"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import time
from pathlib import Path

import pytest

from palg import core, logic, steiner

import check
import cliwork
import harness
import layers
import verify
import workloads
from stats import percentile

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", ["sweep", "search", "cli"])
def test_generator_is_deterministic(workload):
    a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert workloads.spec_hash(a) == workloads.spec_hash(b)
    assert workloads.spec_hash(a) != workloads.spec_hash(workloads.generate(workload, 8))


def test_every_sweep_task_respects_its_engine_rule():
    spec = workloads.generate("sweep", 3)
    objs = workloads.build_inputs(spec)
    for task in spec["tasks"]:
        n = objs[task["alg"]].size
        k = len(check.qe_vars(objs[task["qe"]]))
        assert (n ** k <= task["budget"]) == (task["engine"] == "grid")


def _b3_qb3():
    a, q = core.make_bn(3), logic.make_qb(3)
    res = logic.satisfies(a, q)
    assert res.status == "falsified"
    return a, q, res


def test_checker_accepts_and_rejects_falsifiers():
    a, q, res = _b3_qb3()
    assert check.is_falsifier(a, q, res.falsifier)
    assert check.least_falsifier(a, q) == res.falsifier
    bad = dict(res.falsifier, x1=a.zero)
    assert not check.is_falsifier(a, q, bad)

    task = {"kind": "satisfies", "alg": "A", "qe": "Q", "budget": 10, "engine": "grid"}
    objs = {"A": a, "Q": q}
    good = workloads.Outcome("falsified", sorted(res.falsifier.items()))
    assert verify.verify(task, good, objs, verify.Routes(objs)) == "ok"
    corrupt = workloads.Outcome("falsified", sorted(bad.items()))
    assert verify.verify(task, corrupt, objs, verify.Routes(objs)).startswith("rejected")
    wrong = workloads.Outcome("satisfied")
    assert verify.verify(task, wrong, objs, verify.Routes(objs)).startswith("rejected")


def test_checker_rejects_a_corrupted_pp_witness():
    f = steiner.collapse_pasting(4)
    src, dst = list(f.source.up), list(f.target.up)
    assert check.is_surjective_ppmap(src, dst, list(f.table))
    table = list(f.table)
    table[-1] = 0                       # the bottom onto a maximal
    assert not check.is_surjective_ppmap(src, dst, table)
    task = {"kind": "ppmorph", "src": "S", "dst": "D", "budget": 10, "expect": "found"}
    objs = {"S": f.source, "D": f.target}
    out = workloads.Outcome("found", table)
    assert verify.verify(task, out, objs, verify.Routes(objs)).startswith("rejected")
    assert verify.verify(task, workloads.Outcome("none"), objs,
                         verify.Routes(objs)).startswith("rejected")


def test_checker_rejects_a_corrupted_embedding():
    small, big = core.make_bn(2), core.make_bn(3)
    res = core.enumerate_embeddings(small, big, limit=1)
    table = list(res.maps[0].table)
    assert check.is_homomorphism(small, big, table, injective=True)
    table[1] = big.one                  # an atom onto the top
    assert not check.is_homomorphism(small, big, table, injective=True)


def test_dual_width_route_matches_the_variety_identity():
    for n in range(1, 5):
        up = check.dual_up_masks(core.make_bn(n).meet)
        assert check.max_fan_width(up) == n
        assert logic.satisfies(core.make_bn(n), logic.make_ib(n)).status == "satisfied"


def test_an_injected_exception_counts_as_failed(monkeypatch):
    spec = {"inputs": {}, "tasks": [{"id": "t0", "kind": "satisfies"}]}
    runner = harness.InProcess(spec)

    def boom(task, objs):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(workloads, "run_task", boom)
    ex = runner.execute(spec["tasks"][0])
    assert ex.error == "RecursionError"
    run = harness.Run("h")
    decided = harness._account(run, [ex, ex], {"t0": "ok"})
    assert (run.attempted, run.failed, decided) == (2, 2, 0)
    assert run.correct                    # a crash is a failure, not a wrong answer


def test_a_wrong_exit_code_counts_as_failed():
    spec = {"what": "report", "suite": "lemma8", "exit": 0}
    judged = cliwork.check_command(spec, 1, "", {}, ROOT, None)
    assert judged.startswith("rejected")
    ex = harness.Execution("c0", 0.1, "exit 1", "k")
    run = harness.Run("h")
    harness._account(run, [ex], {"c0": judged})
    assert run.failed == 1 and not run.correct
    known_red = {"what": "report", "suite": "lemma11", "exit": 1}
    assert cliwork.check_command(known_red, 1, "", {}, ROOT, None) == "ok"


def test_two_runs_that_disagree_fail_the_self_check():
    run = harness.Run("h")
    a = harness.Execution("t0", 0.1, "satisfied", json.dumps(["satisfied", None, {"n": 1}]))
    b = harness.Execution("t0", 0.1, "satisfied", json.dumps(["satisfied", None, {"n": 2}]))
    harness._account(run, [a, b], {})
    assert not run.correct


def test_a_run_measures_whole_passes():
    def execute(task):
        time.sleep(0.002)
        return task
    execs, elapsed = harness._loop(["a", "b", "c"], execute, 0.05)
    assert len(execs) >= 6 and len(execs) % 3 == 0
    assert execs[:3] == ["a", "b", "c"] and elapsed > 0


def test_percentile_reports_its_sample_count():
    p = percentile(range(1, 101), 90)
    assert (p.value, p.samples, p.beyond) == (90, 100, 10)
    assert percentile([3.0], 50).samples == 1
    with pytest.raises(ValueError):
        percentile([], 50)


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in layers.PER_LAYER]
    run = harness.Run("h")
    execs = [harness.Execution("t", 0.1 * i, "x", "k") for i in range(1, 21)]
    harness._end_to_end(run, execs, 2.0, [1.0, 2.0, 3.0], 20, 0)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.metrics)
    assert all(m["unit"] == run.metrics[m["name"]]["unit"] for m in bench["end_to_end"])
    assert {w["name"] for w in bench["workloads"]} == {"sweep", "search", "cli"}
