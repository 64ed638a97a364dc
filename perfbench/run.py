"""palg benchmark: seeded workloads, checked verdicts, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep|search|cli --seed N --seconds S --trace 0|1

It imports palg from ``src/`` of that checkout (and refuses to run without
it), builds the seed's inputs, runs the task list in a closed loop with
one client for ``--seconds``, checks every verdict outside the timed phase,
and prints as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``; with ``--trace 1`` every task runs twice, untraced and
traced, and the metrics are the per-layer ones, including the tracing
overhead.  The line before the result holds the environment, the task-list
hash and the sample counts.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

# One BLAS thread, in this process and in every palg process it starts:
# palg does no linear algebra, and idle BLAS threads only add start-up
# work and contention on a machine with few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"


def _import_palg():
    if not (SRC / "palg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no palg sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import palg
    if Path(palg.__file__).resolve().parent != SRC / "palg":
        sys.exit(f"perfbench: imported palg from {palg.__file__}, not from {SRC}")
    return palg


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "search", "cli"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record verdicts and witnesses of the default seed")
    args = ap.parse_args(argv)
    # a terminated run unwinds like a failed one: the running palg command
    # is killed and waited for, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    _import_palg()

    import harness
    from workloads import DEFAULT_SEED
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.write_reference and seed != DEFAULT_SEED:
        sys.exit("perfbench: --write-reference records the default seed only")
    run = harness.run_workload(args.workload, seed, args.seconds, bool(args.trace))

    ref_path = REFERENCE_DIR / f"{args.workload}.json"
    if args.write_reference:
        ref_path.write_text("{\n" + ",\n".join(
            f"{json.dumps(tid)}: {json.dumps(v)}" for tid, v in sorted(run.reference.items()))
            + "\n}\n")
    elif seed == DEFAULT_SEED and ref_path.is_file():
        run.compare_reference(json.loads(ref_path.read_text()))

    detail = {"env": env, "workload": args.workload, "seed": seed,
              "task_list_sha256": run.spec_hash, **run.detail}
    if run.problems:
        detail["problems"] = run.problems[:20]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
