"""Record benchmark runs of a source checkout in a BENCH_*.json file.

    python3 tools/bench_record.py --root <checkout> --label parent|change \
        --out BENCH_<n>.json [--workload W ...] [--seed N]

Runs ``perfbench/run.py`` of the checkout once per workload (all of the
checkout's ``BENCHMARK.json`` workloads by default) for the
``run_seconds`` that file sets, and appends one entry per run to
``--out``: the label, the checkout's ``git describe``, the settings, the
bytecode setting the runs inherit, the result line (the end-to-end metrics
and ``correct``) and the detail line before it, which holds the per-task
node and valuation counts next to their times.  A cold ``palg`` process
compiles every module it imports when bytecode is not written, so ``cli``
runs with and without a bytecode cache are not comparable.  Call it once
per side and repeat, alternating sides, to record pairs.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path


def describe(root: Path) -> str | None:
    """The checkout's ``git describe --always --dirty``, or None outside git."""
    try:
        run = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return run.stdout.strip() if run.returncode == 0 else None


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last two stdout lines are the
    detail and the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=20 * seconds + 600)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {run.returncode}: {run.stderr[-2000:]}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path("."), help="source checkout to run")
    ap.add_argument("--label", required=True, help="side of the comparison, e.g. parent or change")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_*.json file to append to")
    ap.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"runs": []}
    commit = describe(root)
    for workload in workloads:
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        entry = {"label": args.label, "commit": commit, "workload": workload, "seed": args.seed,
                 "seconds": seconds, "started": started,
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                 "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
                 **run_workload(root, workload, args.seed, seconds)}
        record["runs"].append(entry)
        # written after every run, so an interrupted series keeps what it measured
        args.out.write_text('{"runs": [\n' + ",\n".join(json.dumps(r, sort_keys=True) for r in record["runs"])
                            + "\n]}\n", encoding="utf-8")
        metrics = {k: round(v["value"], 4) for k, v in entry["result"]["metrics"].items()}
        print(f"{args.label} {workload}: correct={entry['result']['correct']} {metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
