"""The benchmark reads palg's results through adapters of its own: one
``workloads.run_task`` branch per task kind and one tracer counter per
traced search.  A change to a result's shape must fail here, in Tier-1,
not first in a benchmark run."""

import json
import os
import pathlib
import subprocess
import sys

import palg

ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(palg.__file__).parent.parent))
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# one task per kind on small objects, with the verdict each must reach
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing, workloads
from palg import core, logic, steiner

objs = {"b2": core.make_bn(2), "b3": core.make_bn(3), "fan2": steiner.make_p1(2),
        "fan3": steiner.make_p1(3), "qb2": logic.make_qb(2),
        "q7": steiner.to_quasigroup(steiner.fano_system())}
tasks = [
    {"kind": "satisfies", "alg": "b3", "qe": "qb2", "budget": 10_000},
    {"kind": "ppmorph", "src": "fan3", "dst": "fan2", "budget": 10_000},
    {"kind": "embed", "small": "b2", "big": "b3", "limit": 1, "budget": 10_000},
    {"kind": "homs", "small": "b3", "big": "b2", "limit": None, "budget": 10_000},
    {"kind": "iso", "a": "b3", "b": "b3", "budget": 10_000},
    {"kind": "qhoms", "src": "q7", "dst": "q7", "budget": 10_000},
    {"kind": "member", "alg": "b2", "gens": ["b3"], "budget": 10_000},
]
tracer = tracing.Tracer()
tracer.install()
outcomes = [workloads.run_task(task, objs) for task in tasks]
tracer.uninstall()
print(json.dumps({"verdicts": [o.verdict for o in outcomes],
                  "keys": [json.loads(o.key()) for o in outcomes],
                  "layers": tracing.aggregate(tracer.spans)}))
"""


def test_each_task_kind_reads_its_verdict_and_counts():
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH)], capture_output=True,
                         text=True, env=ENV, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["verdicts"] == ["falsified", "found", "found", "found", "yes", "found", "yes"]
    assert all(error is None for *_, error in out["keys"])
    layers = out["layers"]
    assert not any("error" in counts for counts in layers.values())
    assert layers["duality.pp_search"]["found"] == layers["duality.pp_search"]["calls"] > 0
    assert layers["duality.pp_search"]["nodes"] > 0
    assert layers["core.map_search"]["found"] == layers["core.map_search"]["calls"] == 3
    assert layers["steiner.quasigroup_homs"]["maps"] > 0
