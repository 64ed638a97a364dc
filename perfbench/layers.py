"""Per-layer metrics, named ``<module>.<function>.<stat>``, from the
aggregated spans of a traced run.

``PER_LAYER`` is the list ``BENCHMARK.json`` declares; every traced run
prints all of them, with 0 for a layer the workload never enters.
"""

from __future__ import annotations

from cliwork import REPORTS

_UNITS = {"calls": ("count", "higher"), "valuations": ("count", "higher"),
          "nodes": ("count", "higher"), "elements": ("count", "higher"),
          "bytes": ("bytes", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower"),
          "valuations_per_s": ("1/s", "higher"), "nodes_per_s": ("1/s", "higher"),
          "found_frac": ("fraction", "higher"), "budget_out": ("count", "lower")}

# span name -> the stats reported for it
SPAN_STATS = {
    "logic.satisfies.grid": ["calls", "valuations", "s", "self_s", "valuations_per_s"],
    "logic.satisfies.backtrack": ["calls", "valuations", "s", "self_s", "valuations_per_s"],
    "logic.parse": ["calls", "s"],
    "core.map_search": ["calls", "nodes", "s", "self_s", "nodes_per_s", "found_frac"],
    "duality.pp_search": ["calls", "nodes", "s", "self_s", "nodes_per_s", "found_frac",
                          "budget_out"],
    "duality.finite_membership": ["calls", "s", "self_s"],
    "duality.posets_isomorphic": ["calls", "s"],
    "steiner.quasigroup_homs": ["calls", "nodes", "s"],
    "core.validate_palgebra": ["calls", "elements", "s"],
    "duality.epsilon": ["calls", "elements", "s"],
    "duality.delta": ["calls", "s"],
    "free.build_free": ["calls", "elements", "s"],
    "core.construct": ["s"],
    "steiner.construct": ["s"],
    "serialize.load": ["calls", "bytes", "self_s"],
    "serialize.dump": ["calls", "bytes", "s"],
    "cli.make": ["s"], "cli.check": ["s"], "cli.dual": ["s"], "cli.search": ["s"],
    "cli.report": ["s"],
    **{f"reports.{suite}": ["s"] for suite in REPORTS},
}

PER_LAYER = ([(f"{span}.{stat}", *_UNITS[stat]) for span, stats in SPAN_STATS.items()
              for stat in stats]
             + [("cli.startup_s", "s", "lower"), ("trace.overhead_frac", "fraction", "lower")])


def _stat(agg: dict, stat: str) -> float:
    if stat.endswith("_per_s"):
        work = agg.get(stat[:-len("_per_s")], 0)
        return work / agg["s"] if agg.get("s") else 0.0
    if stat == "found_frac":
        return agg.get("found", 0) / agg["calls"] if agg.get("calls") else 0.0
    return agg.get(stat, 0)


def compute(aggregated: dict, overhead: float, startup_s: float) -> dict:
    out = {}
    for span, stats in SPAN_STATS.items():
        agg = aggregated.get(span, {})
        for stat in stats:
            unit = _UNITS[stat][0]
            out[f"{span}.{stat}"] = {"value": _stat(agg, stat), "unit": unit}
    out["cli.startup_s"] = {"value": startup_s, "unit": "s"}
    out["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return out
