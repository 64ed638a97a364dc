"""tools/bench_record.py appends one entry per benchmark run to its file."""

import importlib.util
import json
import pathlib
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

FAKE_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print("progress")
print(json.dumps({"workload": args["--workload"], "seed": int(args["--seed"])}))
print(json.dumps({"correct": True, "metrics": {"verdicts_per_s": {"value": float(args["--seconds"]), "unit": "1/s"}}}))
"""


def _tool_and_checkout(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "workloads": [{"name": "sweep"}, {"name": "cli"}]}))
    return tool, root


def test_runs_are_appended_per_workload(tmp_path, capsys):
    tool, root = _tool_and_checkout(tmp_path)
    out = tmp_path / "BENCH.json"
    assert tool.main(["--root", str(root), "--label", "parent", "--out", str(out)]) == 0
    assert tool.main(["--root", str(root), "--label", "change", "--out", str(out),
                      "--workload", "cli", "--seed", "2"]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [(r["label"], r["workload"], r["seed"], r["seconds"]) for r in runs] == [
        ("parent", "sweep", 1, 7), ("parent", "cli", 1, 7), ("change", "cli", 2, 7)]
    assert runs[2]["detail"] == {"workload": "cli", "seed": 2}
    assert runs[2]["result"]["metrics"]["verdicts_per_s"]["value"] == 7.0
    assert runs[0]["commit"] is None  # not a git checkout
    assert "change cli: correct=True" in capsys.readouterr().out


def test_each_entry_records_the_bytecode_setting(tmp_path, monkeypatch):
    tool, root = _tool_and_checkout(tmp_path)
    out = tmp_path / "BENCH.json"
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert tool.main(["--root", str(root), "--label", "uncached", "--out", str(out),
                      "--workload", "cli"]) == 0
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert tool.main(["--root", str(root), "--label", "cached", "--out", str(out),
                      "--workload", "cli"]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [r["PYTHONDONTWRITEBYTECODE"] for r in runs] == ["1", None]
    assert [r["dont_write_bytecode"] for r in runs] == [bool(sys.flags.dont_write_bytecode)] * 2
