"""Time perfbench tasks in-process, a parent checkout against a change.

    python3 tools/task_ab.py --parent DIR --change DIR --workload sweep|search \
        [--kinds member,ppmorph] [--rounds N]

Each round runs one subprocess per checkout, alternating which side goes
first.  A subprocess imports palg from ``src/`` and the perfbench modules
from ``perfbench/`` of its checkout, builds the inputs of the default seed
and times each selected task once.  The table gives, per task, its kind,
id, node (or valuation) count, the fastest of its times on each side in
milliseconds and the change's over the parent's; below it comes the same
ratio of the summed times.  Exits 1 when a task's ``Outcome.key()``
differs between the sides.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# argv: checkout, workload, comma-separated kinds (empty: every kind);
# prints one JSON line per task: id, kind, nodes, milliseconds, outcome key
CHILD = """\
import json, sys, time
root, workload, kinds = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
spec = workloads.generate(workload, workloads.DEFAULT_SEED)
objs = workloads.build_inputs(spec)
for task in spec["tasks"]:
    if kinds and task["kind"] not in kinds.split(","):
        continue
    start = time.perf_counter()
    out = workloads.run_task(task, objs)
    ms = (time.perf_counter() - start) * 1e3
    nodes = out.counts.get("nodes", out.counts.get("valuations", getattr(out.result, "nodes", None)))
    print(json.dumps([task["id"], task["kind"], nodes, ms, out.key()]))
"""


def run_side(root: Path, workload: str, kinds: str) -> list[list]:
    """One subprocess over ``root``'s tasks: ``[id, kind, nodes, ms, key]`` each."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", CHILD, str(root), workload, kinds],
                         cwd=root, capture_output=True, text=True, env=env)
    if run.returncode != 0:
        raise SystemExit(f"task_ab: {root} exited {run.returncode}: {run.stderr[-2000:]}")
    return [json.loads(line) for line in run.stdout.splitlines()]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--change", type=Path, required=True, help="checkout with the change")
    ap.add_argument("--workload", required=True, choices=["sweep", "search"])
    ap.add_argument("--kinds", default="", help="comma-separated task kinds; default: all")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    keys: dict[str, dict[str, str]] = {side: {} for side in SIDES}
    rows: dict[str, dict[str, tuple]] = {side: {} for side in SIDES}
    for r in range(args.rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            for tid, kind, nodes, ms, key in run_side(roots[side], args.workload, args.kinds):
                times[side].setdefault(tid, []).append(ms)
                keys[side].setdefault(tid, key)
                rows[side][tid] = (kind, nodes)
    print(f"{'kind':<10} {'task':<7} {'nodes':>12} {'parent ms':>10} {'change ms':>10} {'ratio':>6}")
    total = dict.fromkeys(SIDES, 0.0)
    differ = sorted(set(keys["parent"]) ^ set(keys["change"]))
    for tid in sorted(set(times["parent"]) & set(times["change"]),
                      key=lambda t: (rows["parent"][t][0], t)):
        (kind, nodes), (_, change_nodes) = rows["parent"][tid], rows["change"][tid]
        if nodes != change_nodes:
            nodes = f"{nodes}/{change_nodes}"
        best = {side: min(times[side][tid]) for side in SIDES}
        for side in SIDES:
            total[side] += best[side]
        if keys["parent"][tid] != keys["change"][tid]:
            differ.append(tid)
        print(f"{kind:<10} {tid:<7} {str(nodes):>12} {best['parent']:>10.2f} "
              f"{best['change']:>10.2f} {best['change'] / (best['parent'] or 1e-9):>6.2f}")
    print(f"{'summed':<31} {total['parent']:>10.2f} {total['change']:>10.2f} "
          f"{total['change'] / (total['parent'] or 1e-9):>6.2f}")
    for tid in sorted(differ):
        print(f"outcome differs: {tid}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
