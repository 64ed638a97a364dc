"""Verdict checks for the in-process tasks, run outside the timed phase.

``verify(task, outcome, objs, routes)`` returns ``"ok"``, ``"unconfirmed"``
(a decided verdict with no independent route at this size) or
``"rejected: <why>"``.  Second routes that need a search use palg's other
engine (the pp-morphism search, the quasigroup homomorphisms) and check
whatever witness it returns here, never through palg's validators.
"""

from __future__ import annotations

from palg import duality, steiner

import check

ROUTE_BUDGET = 1_000_000


class Routes:
    """Memoised second routes, shared by every task of a run."""

    def __init__(self, objs: dict):
        self.objs = objs
        self._memo: dict = {}

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def dual_up(self, name: str) -> list[int]:
        """Up-masks of the dual poset of an algebra input, computed here."""
        return self._get(("dual", name), lambda: check.dual_up_masks(self.objs[name].meet))

    def onto_fan(self, up: list[int], n: int) -> bool | None:
        """Is there a surjective pp-morphism from ``up`` onto the n-fan?
        Equivalently: does B_n embed into the upset algebra?  None when the
        route runs out of budget."""
        def compute():
            fan = steiner.make_p1(n)
            res = duality.find_surjective_ppmorphism(
                duality.FinitePoset(len(up), tuple(up)), fan, budget=ROUTE_BUDGET)
            if res.status == "found":
                if not check.is_surjective_ppmap(up, list(fan.up), res.witness.table):
                    raise ValueError("second-route witness is not a pp-morphism")
                return True
            return False if res.status == "none" else None
        return self._get(("fan", tuple(up), n), compute)


def _qe_route(task, routes) -> bool | None:
    """Satisfied?  From the paper's dual characterisations, when one applies."""
    name = task["qe"]
    if name.startswith("Q.qb"):
        hit = routes.onto_fan(routes.dual_up(task["alg"]), int(name[4:]))
        return None if hit is None else not hit
    if name.startswith("Q.ib"):
        return check.max_fan_width(routes.dual_up(task["alg"])) <= int(name[4:])
    return None


def _verify_satisfies(task, out, objs, routes) -> str:
    a, q = objs[task["alg"]], objs[task["qe"]]
    cells = a.size ** len(check.qe_vars(q))
    if out.verdict == "falsified":
        val = dict(out.witness)
        if not check.is_falsifier(a, q, val):
            return "rejected: falsifier does not falsify"
        if cells <= 2_000_000 and check.least_falsifier(a, q) != val:
            return "rejected: falsifier is not the least"
        return "ok"
    if out.verdict == "satisfied":
        if cells <= 2_000_000:
            return "ok" if check.least_falsifier(a, q) is None else "rejected: a falsifier exists"
        holds = _qe_route(task, routes)
        if holds is None:
            return "unconfirmed"
        return "ok" if holds else "rejected: second route finds a falsifier"
    return "ok"


def _verify_ppmorph(task, out, objs) -> str:
    src, dst = objs[task["src"]], objs[task["dst"]]
    src_up, dst_up = list(src.up), list(dst.up)
    if out.verdict == "found":
        if not check.is_surjective_ppmap(src_up, dst_up, out.witness):
            return "rejected: witness is not a surjective pp-morphism"
        return "ok" if task.get("expect") != "none" else "rejected: expected none"
    if out.verdict != "none":
        return "ok"
    if task.get("expect") == "found":
        return "rejected: a planted witness exists"
    # the bottom of a w-fan needs a source point under at least w maximals
    if check.max_fan_width(src_up) < check.max_fan_width(dst_up):
        return "ok"
    orders = task.get("steiner_orders")
    if orders and task["dst"] == "P.fano":
        return _fano_route(orders)
    if orders and task["dst"] == "P.fan3" and all(o % 3 for o in orders):
        return "ok"       # 3-colour classes of equal size: 3 would divide v
    if orders and task["dst"] == "P.fan3" and max(orders) <= 9:
        hit = any(check.steiner_fan3_exists(steiner.construct_sts(o).blocks, o)
                  for o in orders)
        return "rejected: a 3-colouring map exists" if hit else "ok"
    return "unconfirmed"


def _fano_route(orders) -> str:
    """A pp-morphism from Steiner posets onto the Fano poset restricts on
    each summand to a quasigroup homomorphism; a block of the target is
    covered only by a summand whose image contains that block.  With no
    surjective homomorphism onto the order-7 quasigroup, each summand
    covers at most one block, so fewer than 7 summands cannot cover all 7."""
    fano_q = steiner.to_quasigroup(steiner.construct_sts(7))
    if len(orders) >= 7:
        return "unconfirmed"
    for o in orders:
        q = steiner.to_quasigroup(steiner.construct_sts(o))
        res = steiner.enumerate_quasigroup_homs(q, fano_q, budget=ROUTE_BUDGET)
        if not res.complete:
            return "unconfirmed"
        for h in res.maps:
            if not check.is_quasigroup_hom(q.mult, fano_q.mult, h.table):
                return "rejected: route homomorphism is invalid"
            if len(set(h.table)) == 7:
                return "unconfirmed"
    return "ok"


def _verify_maps(task, out, routes, small, big, injective) -> str:
    res = out.result
    for m in res.maps[:200]:
        if not check.is_homomorphism(small, big, m.table, injective):
            return "rejected: map is not a homomorphism"
    tables = [m.table for m in res.maps]
    if tables != sorted(tables):
        return "rejected: maps are not in table order"
    if task["kind"] == "embed" and task["small"].startswith("A.b") and out.verdict == "none":
        n = int(task["small"][3:])
        hit = routes.onto_fan(routes.dual_up(task["big"]), n)
        if hit:
            return "rejected: second route finds an embedding"
        return "unconfirmed" if hit is None else "ok"
    if task["kind"] == "homs" and out.verdict == "none":
        return "rejected: B_n maps onto 2, which sits in every nontrivial algebra"
    return "ok"


def verify(task: dict, out, objs: dict, routes: Routes) -> str:
    kind = task["kind"]
    if out.error is not None:
        return "ok"                    # counted as failed by the caller
    if kind == "satisfies":
        return _verify_satisfies(task, out, objs, routes)
    if kind == "ppmorph":
        return _verify_ppmorph(task, out, objs)
    if kind in ("embed", "homs"):
        return _verify_maps(task, out, routes, objs[task["small"]], objs[task["big"]],
                            kind == "embed")
    if kind == "iso":
        if out.verdict != "yes":
            return "rejected: a relabelled copy is isomorphic"
        a, b = objs[task["a"]], objs[task["b"]]
        return "ok" if check.is_homomorphism(a, b, out.witness, injective=True) else \
            "rejected: witness is not an isomorphism"
    if kind == "qhoms":
        src, dst = objs[task["src"]], objs[task["dst"]]
        tables = [m.table for m in out.result.maps]
        if any(not check.is_quasigroup_hom(src.mult, dst.mult, t) for t in tables):
            return "rejected: map is not a quasigroup homomorphism"
        constants = {tuple([v] * src.order) for v in range(dst.order)}
        if out.result.complete and not constants <= set(tables):
            return "rejected: a constant map is missing"
        return "ok"
    if kind == "member":
        return _verify_member(task, out, routes)
    raise ValueError(f"unknown task kind {kind!r}")


def _verify_member(task, out, routes) -> str:
    target = routes.dual_up(task["alg"])
    if out.verdict == "yes":
        w = out.result.witness
        if list(w.target.up) != target:
            return "rejected: witness target is not the dual"
        if not check.is_surjective_ppmap(list(w.source.up), target, list(w.table)):
            return "rejected: witness is not a surjective pp-morphism"
    if out.verdict in ("yes", "no") and all(g.startswith("A.b") for g in task["gens"]):
        # quasivariety of B_n = its variety: yes iff every dual point has at
        # most max(n) maximals above it
        width = max(int(g[3:]) for g in task["gens"])
        expect = "yes" if check.max_fan_width(target) <= width else "no"
        if out.verdict != expect:
            return f"rejected: expected {expect} by dual width"
    return "ok"
