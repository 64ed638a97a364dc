"""In-memory span tracing around palg's public entry points.

A :class:`Tracer` replaces module attributes of palg with wrappers that
record one span per call: ``[name, start, end, parent, task, counts]``.
Spans stay in memory until the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (span name, counter, [(module, attribute), ...]).  A counter maps
# (result, args) to the counts recorded on the span.


def _valuations(res, args):
    return {"valuations": res.checked}


def _map_search(res, args):
    return {"nodes": res.nodes, "found": int(bool(res.maps))}


def _pp_search(res, args):
    status, _table, nodes = res
    return {"nodes": nodes, "found": int(status == "found"),
            "budget_out": int(status == "inconclusive")}


def _qhoms(res, args):
    return {"nodes": res.nodes, "maps": len(res.maps)}


def _arg_elements(res, args):
    return {"elements": args[0].size}


def _res_elements(res, args):
    return {"elements": res.size}


def _free_elements(res, args):
    return {"elements": res.algebra.size}


def _file_bytes(res, args):
    """Size of the file named by the first argument, read after the call."""
    try:
        return {"bytes": os.path.getsize(args[0])}
    except (OSError, IndexError, TypeError):
        return {}


_CLI = "palg.cli"
WRAPS = [
    ("logic.satisfies.grid", _valuations, [("palg.logic", "_sweep_grid")]),
    ("logic.satisfies.backtrack", _valuations, [("palg.logic", "_sweep_backtrack")]),
    ("logic.parse", None, [(_CLI, "parse")]),
    ("core.map_search", _map_search, [("palg.core", "_map_search")]),
    ("duality.pp_search", _pp_search, [("palg.duality", "_pp_search")]),
    ("duality.finite_membership", None,
     [("palg.duality", "finite_membership"), (_CLI, "finite_membership")]),
    ("duality.posets_isomorphic", None,
     [("palg.duality", "posets_isomorphic"), (_CLI, "posets_isomorphic")]),
    ("steiner.quasigroup_homs", _qhoms,
     [("palg.steiner", "enumerate_quasigroup_homs"),
      ("palg.reports", "enumerate_quasigroup_homs")]),
    ("core.validate_palgebra", _arg_elements,
     [("palg.core", "validate_palgebra"), ("palg.serialize", "validate_palgebra")]),
    ("duality.epsilon", _res_elements,
     [("palg.duality", "epsilon"), (_CLI, "epsilon"), ("palg.free", "epsilon"),
      ("palg.reports", "epsilon")]),
    ("duality.delta", None,
     [("palg.duality", "delta"), (_CLI, "delta"), ("palg.free", "delta"),
      ("palg.reports", "delta")]),
    ("free.build_free", _free_elements,
     [("palg.free", "build_free"), (_CLI, "build_free"), ("palg.reports", "build_free")]),
    ("core.construct", None,
     [("palg.core", "make_bn"), ("palg.core", "product"),
      ("palg.core", "generated_subalgebra"), (_CLI, "make_bn"), ("palg.logic", "make_bn"),
      ("palg.reports", "make_bn")]),
    ("steiner.construct", None,
     [("palg.steiner", name) for name in
      ("construct_sts", "poset_of", "paste_w", "make_p1", "to_quasigroup")]
     + [(_CLI, name) for name in ("construct_sts", "poset_of", "paste_w", "make_p1")]
     + [("palg.reports", name) for name in
        ("construct_sts", "poset_of", "paste_w", "make_p1", "to_quasigroup")]
     + [("palg.free", "make_p1")]),
    ("serialize.load", _file_bytes, [(_CLI, "load_object"), (_CLI, "load_json")]),
    ("serialize.dump", _file_bytes, [(_CLI, "save_json")]),
    ("cli.make", None, [(_CLI, "_cmd_make")]),
    ("cli.check", None, [(_CLI, "_cmd_check")]),
    ("cli.dual", None, [(_CLI, "_cmd_dual")]),
    ("cli.search", None, [(_CLI, "_cmd_search")]),
    ("cli.report", None, [(_CLI, "_cmd_report")]),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task: str | None = None
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if counts:
            span[5] = counts
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, {"error": 1})
                raise
            self.close(idx, counter(res, args) if counter else None)
            return res
        return traced

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPS`, plus each report suite."""
        wrapped: dict[int, object] = {}
        for name, counter, sites in WRAPS:
            for modname, attr in sites:
                module = importlib.import_module(modname)
                fn = getattr(module, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(fn, name, counter)
                self._patch(module, attr, wrapped[id(fn)])
        reports = importlib.import_module("palg.reports")
        for suite, fn in list(reports.SUITES.items()):
            self._saved.append((reports.SUITES, suite, fn))
            reports.SUITES[suite] = self.wrap(fn, f"reports.{suite}")

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._saved.clear()


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, seconds, self seconds and summed counts.

    ``calls`` and ``s`` count only the outermost span of a name, so a layer
    that calls itself (``paste_w`` building ``poset_of``) is not counted
    twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _task, _counts in spans:
        if parent is not None and end is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _task, counts) in enumerate(spans):
        if end is None:
            continue
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["self_s"] += end - start - child_time[i]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            agg["calls"] += 1
            agg["s"] += end - start
        for key, value in counts.items():
            agg[key] = agg.get(key, 0) + value
    return out
