"""Summarise the parent and change runs recorded in a BENCH_*.json file.

    python3 tools/bench_compare.py BENCH_<n>.json

Takes the end-to-end metrics, their direction and their bounds from the
``BENCHMARK.json`` next to the file, or, when there is none, from the one
at the root of the checkout that holds this tool.  For each workload and metric it
prints the median of the ``parent`` runs and of the ``change`` runs, the
interquartile range of the parent runs, and how many of the pairs the
change wins: the i-th parent run of a workload is paired with its i-th
change run, and a tie counts for neither side.  The verdict is

- ``worse beyond bound`` when the change's median is worse than the
  parent's by more than the bound, a fraction of the parent's median;
- ``unresolved`` when either side's interquartile range is wider than that
  bound, unless every change run reads better than every parent run;
- ``within bound`` otherwise.

Uses the standard library only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CHECKOUT_SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The summary of one metric on one workload."""
    sign = 1 if better == "higher" else -1   # sign * (a - b) > 0: a is better
    p_med, c_med = statistics.median(parent), statistics.median(change)
    scale = abs(p_med) or 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if sign * (p_med - c_med) > bound * scale:
        verdict = "worse beyond bound"
    elif (max(iqr(parent), iqr(change)) > bound * scale
          and not all(sign * (c - p) > 0 for p in parent for c in change)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p_med, "change": c_med, "parent_iqr": iqr(parent),
            "wins": wins, "pairs": min(len(parent), len(change)), "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/bench_compare.py BENCH_<n>.json", file=sys.stderr)
        return 2
    path = Path(argv[0])
    spec_path = next((p for p in (path.parent / "BENCHMARK.json", CHECKOUT_SPEC) if p.is_file()),
                     None)
    if spec_path is None:
        print(f"no BENCHMARK.json next to {path} or at {CHECKOUT_SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    print(f"{'workload':<9} {'metric':<15} {'parent':>10} {'change':>10} {'parent IQR':>10} "
          f"{'wins':>5}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {label: [r for r in runs if r["workload"] == workload and r["label"] == label]
                 for label in ("parent", "change")}
        if not all(sides.values()):
            print(f"{workload:<9} no parent and change runs to compare")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = ([r["result"]["metrics"][name]["value"] for r in sides[label]
                               if name in r["result"]["metrics"]] for label in ("parent", "change"))
            if not parent or not change:
                continue
            s = compare(parent, change, metric["better"], metric["bound"])
            wins = f"{s['wins']}/{s['pairs']}"
            print(f"{workload:<9} {name:<15} {s['parent']:>10.4g} {s['change']:>10.4g} "
                  f"{s['parent_iqr']:>10.3g} {wins:>5}  {s['verdict']}")
        failed = sum(not r["result"]["correct"] for side in sides.values() for r in side)
        print(f"{workload:<9} runs: {len(sides['parent'])} parent, {len(sides['change'])} change, "
              f"{failed} not correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
