"""tools/bench_compare.py summarises the parent/change pairs of a BENCH file."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(label, workload, **metrics):
    return {"label": label, "workload": workload,
            "result": {"correct": True,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


def test_each_metric_gets_medians_wins_and_a_verdict(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "cli"}, {"name": "sweep"}],
        "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.25},
                       {"name": "p50", "better": "lower", "bound": 0.25},
                       {"name": "rss", "better": "lower", "bound": 0.15}]}))
    rates = [(10, 11), (12, 12), (11, 13)]       # change wins 2 of 3 pairs, one tie
    p50s = [(1.0, 1.3), (1.0, 1.4), (1.1, 1.3)]  # change's median 30% worse
    rss = [(30, 30), (50, 31), (30, 30)]         # parent IQR 10 of a 30 median
    runs = []
    for (rp, rc), (pp, pc), (sp, sc) in zip(rates, p50s, rss):
        runs += [_run("parent", "cli", rate=rp, p50=pp, rss=sp),
                 _run("change", "cli", rate=rc, p50=pc, rss=sc)]
    runs[-1]["result"]["correct"] = False
    runs.append(_run("parent", "sweep", rate=1))  # no change run to pair with
    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"runs": runs}))
    tool = _tool()
    assert tool.main([str(bench)]) == 0
    lines = {tuple(line.split()[:2]): line for line in capsys.readouterr().out.splitlines()}
    assert lines["cli", "rate"].split()[2:] == ["11", "12", "1", "2/3", "within", "bound"]
    assert lines["cli", "p50"].split()[2:] == ["1", "1.3", "0.05", "0/3", "worse", "beyond", "bound"]
    assert lines["cli", "rss"].split()[2:] == ["30", "30", "10", "1/3", "unresolved"]
    assert lines["cli", "runs:"].endswith("3 parent, 3 change, 1 not correct")
    assert lines["sweep", "no"] == "sweep     no parent and change runs to compare"


def test_a_spread_that_every_change_run_beats_is_resolved():
    tool = _tool()
    s = tool.compare([10.0, 20.0, 30.0], [31.0, 32.0, 40.0], "higher", 0.25)
    assert (s["wins"], s["pairs"], s["verdict"]) == (3, 3, "within bound")
    assert tool.compare([10.0, 20.0, 30.0], [29.0, 32.0, 40.0], "higher", 0.25)["verdict"] == "unresolved"


def test_usage_without_a_file(capsys):
    assert _tool().main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_a_bench_file_without_a_spec_beside_it_uses_the_checkouts(tmp_path, capsys):
    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"runs": [_run("parent", "cli", setup_s=1.0),
                                          _run("change", "cli", setup_s=0.9)]}))
    assert _tool().main([str(bench)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.split()[:2] == ["cli", "setup_s"])
    assert line.split()[2:4] == ["1", "0.9"]


def test_no_spec_anywhere_is_one_line_and_exit_2(tmp_path, capsys):
    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"runs": []}))
    tool = _tool()
    tool.CHECKOUT_SPEC = tmp_path / "missing" / "BENCHMARK.json"
    assert tool.main([str(bench)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
