"""tools/task_ab.py times each task of two checkouts and compares outcomes."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "task_ab.py"

# a stand-in for perfbench/workloads.py: three tasks whose outcome keys
# read the checkout's VERSION
FAKE_WORKLOADS = """\
import pathlib

DEFAULT_SEED = 1
VERSION = (pathlib.Path(__file__).parent / "VERSION").read_text()


class Outcome:
    def __init__(self, counts, result=None):
        self.counts, self.result = counts, result

    def key(self):
        return repr(sorted(self.counts.items()))


class Result:
    nodes = 7


def generate(workload, seed):
    return {"tasks": [{"id": "se000", "kind": "member"}, {"id": "se001", "kind": "ppmorph"},
                      {"id": "se002", "kind": "embed"}]}


def build_inputs(spec):
    return {}


def run_task(task, objs):
    if task["kind"] == "member":
        return Outcome({}, Result())
    nodes = 5 if task["kind"] == "embed" and VERSION == "new" else 4
    return Outcome({"nodes": nodes})
"""


def _tool():
    spec = importlib.util.spec_from_file_location("task_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _checkout(tmp_path, name, version):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    (root / "perfbench" / "VERSION").write_text(version)
    return str(root)


def test_each_selected_task_is_timed_on_both_sides(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "a", "old"), _checkout(tmp_path, "b", "old")
    argv = ["--parent", parent, "--change", change, "--workload", "search", "--rounds", "2"]
    assert _tool().main(argv + ["--kinds", "member,ppmorph"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["kind", "task", "nodes", "parent", "ms", "change", "ms", "ratio"]
    assert [line.split()[:3] for line in lines[1:3]] == [["member", "se000", "7"],
                                                         ["ppmorph", "se001", "4"]]
    assert lines[3].startswith("summed") and len(lines) == 4


def test_a_differing_outcome_exits_1(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "a", "old"), _checkout(tmp_path, "b", "new")
    argv = ["--parent", parent, "--change", change, "--workload", "search", "--rounds", "1"]
    assert _tool().main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[:3] == ["embed", "se002", "4/5"]
    assert lines[-1] == "outcome differs: se002"
