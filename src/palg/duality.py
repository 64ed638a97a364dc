"""Finite posets and the order-theoretic duality for finite p-algebras.

``delta`` sends an algebra to its poset of join-irreducible elements under
the converse order; ``epsilon`` sends a poset to its algebra of upsets
with ``U* = X minus the downset of U``.  Morphisms on the poset side are
pp-morphisms: order-preserving maps with ``f(max up(x)) = max up(f(x))``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from .core import (
    DEFAULT_SEARCH_BUDGET,
    MAX_ALGEBRA_SIZE,
    AlgebraMap,
    FiniteAlgebra,
    ResourceLimitError,
    StructureError,
    ValidationReport,
    bits,
    covers,
    first_broken,
    image_table,
    transpose,
    upset_algebra,
)
from .search import Backtrack, EnumerationResult


@dataclass(frozen=True)
class FinitePoset:
    """Reflexive order relation over indexed points, one bitmask row per
    point: bit ``y`` of ``up[x]`` is set iff ``x <= y``."""

    size: int
    up: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "up", tuple(map(operator.index, self.up)))
        if len(self.up) != self.size:
            raise StructureError("up-mask count does not match size")
        full = (1 << self.size) - 1
        if any(m & ~full for m in self.up):
            raise StructureError("up-mask has bits beyond size")

    @classmethod
    def from_covers(cls, size: int, covers) -> "FinitePoset":
        """Reflexive-transitive closure of a cover list; rejects cycles."""
        above: list[list[int]] = [[] for _ in range(size)]
        below: list[list[int]] = [[] for _ in range(size)]
        for lo, hi in covers:
            if not (0 <= lo < size and 0 <= hi < size):
                raise StructureError("cover index out of range")
            if lo != hi:
                above[lo].append(hi)
                below[hi].append(lo)
        # one pass in reverse topological order (Kahn): a point is closed
        # as soon as every point it is covered by is
        up = [1 << x for x in range(size)]
        waiting = [len(hs) for hs in above]
        done = [x for x in range(size) if not waiting[x]]
        for x in done:  # grows while it is walked
            for y in above[x]:
                up[x] |= up[y]
            for lo in below[x]:
                waiting[lo] -= 1
                if not waiting[lo]:
                    done.append(lo)
        if len(done) < size:
            x = next(x for x in range(size) if waiting[x])
            raise StructureError(f"cover list is cyclic on or above point {x}")
        return cls(size, tuple(up))

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        return transpose(self.up)

    @cached_property
    def maximal_mask(self) -> int:
        m = 0
        for x in range(self.size):
            if self.up[x] == 1 << x:
                m |= 1 << x
        return m

    @cached_property
    def max_up_masks(self) -> tuple[int, ...]:
        mm = self.maximal_mask
        return tuple(self.up[x] & mm for x in range(self.size))

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges (lower, upper), sorted."""
        return covers(self.up, self.down)

    def __repr__(self) -> str:
        return f"FinitePoset(size={self.size}, covers={self.covers()})"


EMPTY_POSET = FinitePoset(0, ())


def validate_poset(p: FinitePoset) -> ValidationReport:
    """Reflexivity, antisymmetry, then transitivity: the first law broken,
    with its first witness in row-major order."""
    up = p.up
    trans = []  # the first transitivity witness, found by the antisymmetry walk

    def antisymmetry():
        for x in range(p.size):
            for y in bits(up[x] & ~(1 << x)):
                if (up[y] >> x) & 1:
                    yield x, y
                if not trans and (gap := up[y] & ~up[x]):
                    trans.append((x, y, (gap & -gap).bit_length() - 1))

    return first_broken(("reflexive", ((x,) for x in range(p.size) if not (up[x] >> x) & 1)),
                        ("antisymmetric", antisymmetry()),
                        ("transitive", trans))


def max_up(p: FinitePoset, x: int) -> frozenset[int]:
    """Maximal elements of the upset of ``x``."""
    if not (0 <= x < p.size):
        raise ValueError("point index out of range")
    return frozenset(bits(p.max_up_masks[x]))


# ---------------------------------------------------------------------------
# the dual functors


def delta(a: FiniteAlgebra) -> tuple[FinitePoset, tuple[int, ...]]:
    """Poset of join-irreducible elements under the converse algebra order.

    Points are listed in ascending algebra index; the returned labeling
    maps point index to algebra index.
    """
    labels = a.join_irreducibles
    point = {x: i for i, x in enumerate(labels)}
    ji = sum(1 << x for x in labels)
    # the converse order: the points above a point are the labels below it
    up = [sum(1 << point[y] for y in bits(a.down_masks[x] & ji)) for x in labels]
    return FinitePoset(len(labels), tuple(up)), labels


def upsets_of(p: FinitePoset, max_count: int | None = None) -> list[int]:
    """All upsets as bitmasks, ascending numerically; raises
    :class:`ResourceLimitError` as soon as there are more than ``max_count``."""
    # decide points in ascending up-set size: y > x implies up(y) < up(x),
    # so every point above x is decided first, and after each step ``out``
    # holds exactly the upsets inside the points decided so far
    out = [0]
    for x in sorted(range(p.size), key=lambda x: p.up[x].bit_count()):
        bit, above = 1 << x, p.up[x] & ~(1 << x)
        out += [u | bit for u in out if u & above == above]
        if max_count is not None and len(out) > max_count:
            raise ResourceLimitError(f"more than {max_count} upsets exceed the table budget")
    out.sort()
    return out


def epsilon(x: FinitePoset) -> FiniteAlgebra:
    """Algebra of upsets of ``x``: meet/join are intersection/union and
    ``U*`` is the complement of the downset of ``U``.

    Elements are the upsets encoded as point bitsets, sorted ascending, so
    zero is index 0 and one is the last index.  More than
    ``MAX_ALGEBRA_SIZE`` upsets raise :class:`ResourceLimitError`.
    """
    return upset_algebra(upsets_of(x, MAX_ALGEBRA_SIZE), x.down)


def disjoint_union(parts: list[FinitePoset]) -> FinitePoset:
    """Block-diagonal union; part ``i`` occupies indices starting at the
    sum of the sizes of the earlier parts."""
    if not parts:
        raise ValueError("disjoint_union of an empty list is not supported")
    size = sum(p.size for p in parts)
    up = []
    off = 0
    for p in parts:
        up.extend(m << off for m in p.up)
        off += p.size
    return FinitePoset(size, tuple(up))


# ---------------------------------------------------------------------------
# pp-morphisms


@dataclass(frozen=True)
class PPMap:
    """A candidate morphism between posets, given by an image table."""

    source: FinitePoset
    target: FinitePoset
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", image_table(self))

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.target.size


def validate_ppmap(f: PPMap) -> ValidationReport:
    """Order preservation, then ``f(max up(x)) = max up(f(x))`` pointwise:
    the first law broken, with its first witness in row-major order."""
    s, t, tab = f.source, f.target, f.table

    def pp_failures():
        for x in range(s.size):
            img = 0
            for y in bits(s.max_up_masks[x]):
                img |= 1 << tab[y]
            if img != (want := t.max_up_masks[tab[x]]):
                yield x, tuple(bits(img)), tuple(bits(want))

    return first_broken(("order-preserving", ((x, y) for x in range(s.size) for y in bits(s.up[x])
                                              if not t.leq(tab[x], tab[y]))),
                        ("pp condition f(max up(x)) = max up(f(x))", pp_failures()))


def compose_ppmaps(g: PPMap, f: PPMap) -> PPMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("composition mismatch")
    return PPMap(f.source, g.target, tuple(g.table[v] for v in f.table))


# the narrowing masks a pp search keeps for reuse, in bits; a mask past
# this is built again at each node that needs it
MAX_MASK_CACHE_BITS = 1 << 28


def _spread(mask: int, width: int) -> int:
    """``mask`` with bit ``j`` moved to bit ``j * width``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (low.bit_length() - 1) * width
        mask ^= low
    return out


def _pp_tables(src: FinitePoset, dst: FinitePoset):
    """The pp-morphism engine for ``src -> dst``, built once per pair:
    ``run(required, budget, make, limit)`` returns the
    :class:`EnumerationResult` of the first ``limit`` tables, each passed
    to ``make``, whose image covers the ``required`` target mask, in
    lexicographic order, by backtracking over point images in index order
    with forward checking.

    A state is ``(d, need)``.  ``need`` holds the required targets that no
    placed point covers yet: ``expand`` cuts a node whose domains cannot
    reach them all, and at the last point rejects a value that leaves one
    uncovered or breaks ``f(max up(x)) = max up(f(x))``, so every complete
    assignment is a table.  ``d`` holds the domains of the points not yet
    placed: at the node that places point ``i``, point ``i + j``'s target
    mask sits in the ``nd + 1``-bit field at ``j * (nd + 1)``, whose top
    bit is a guard that every state keeps set.  Fixing ``f(i) = t`` drops
    field 0 and narrows every related later point with one AND, against a
    mask built for ``(i, t)`` on first use and kept, for every search of
    the engine, while the masks fit in ``MAX_MASK_CACHE_BITS``.
    Subtracting 1 from a field leaves its guard set unless the field was
    empty, so the narrowed points all keep a target iff
    ``(e - spread) & touched == touched``, where ``spread`` has bit 0 of
    each narrowed field and ``touched`` its guard.
    """
    ns, nd = src.size, dst.size
    w = nd + 1
    mu_s, mu_d = src.max_up_masks, dst.max_up_masks
    up_d, down_d = dst.up, dst.down
    field = (1 << nd) - 1
    # a point with k maximals above it can only land on a point with at
    # most k maximals above it, since f maps max up(x) onto max up(f(x)):
    # fits[k] holds the targets with at most k maximals above them
    card_d = [m.bit_count() for m in mu_d]
    fits = [0] * (max(card_d, default=0) + 1)
    for t, k in enumerate(card_d):
        fits[k] |= 1 << t
    for k in range(1, len(fits)):
        fits[k] |= fits[k - 1]
    widest = len(fits) - 1
    dom0 = ((1 << ns * w) - 1) // ((1 << w) - 1) << nd  # every field's guard
    for x, m in enumerate(mu_s):
        dom0 |= fits[min(m.bit_count(), widest)] << x * w
    # fixing f(i) = t narrows a later point y related to i: above i to
    # up(t), below i to down(t), and a maximal above i also to max up(t);
    # the lowest bits of the three sets' fields are spread when the
    # search first places i, and the mask for (i, t), which keeps every
    # bit but the targets it strikes from those fields, on first use; it
    # is kept while ``room`` bits last
    up_s, max_s = src.up, src.maximal_mask
    narrow: list = [None] * ns
    room = MAX_MASK_CACHE_BITS

    def narrowing(i):
        above = up_s[i] >> i + 1
        top = _spread(above & max_s >> i + 1, w)
        below = _spread(src.down[i] >> i + 1, w)  # built once a point is placed
        spread = _spread(above, w) | below
        return spread, spread << nd, top, below, [None] * nd

    # a maximal point must land on a maximal point; for a maximal y above i
    # and assigned before it, f(y) in max up(f(i)) then follows from f(i)
    # lying in down(f(y))
    max_d = dst.maximal_mask
    # forward checking keeps f(max up(x)) inside max up(f(x)), so a complete
    # assignment is a pp-morphism iff no point of max up(f(x)) is missed,
    # which only a point with two or more maximals above it can do
    max_lists = [(x, list(bits(m))) for x, m in enumerate(mu_s) if m & (m - 1)]

    def misses(f):
        for x, ys in max_lists:
            img = 0
            for y in ys:
                img |= 1 << f[y]
            if img != mu_d[f[x]]:
                return True
        return False

    # doubling[j]: the shifts that fold 2^j fields onto the lowest one
    doubling = [()]
    for j in range(ns.bit_length()):
        doubling.append(doubling[-1] + (w << j,))
    last = ns - 1

    def expand(i, f, state):
        nonlocal room
        d, need = state
        del state  # the frame lives as long as the node's children
        dom = d & field
        d >>= w
        # a required target that no remaining point can reach is fatal:
        # fold the later fields, and dom, onto the lowest one by doubling
        if need:
            reach = d | dom
            for shift in doubling[(last - i).bit_length()]:
                reach |= reach >> shift
            if reach & need != need:
                return
            del reach
        row = narrow[i]
        if row is None:
            row = narrow[i] = narrowing(i)
        spread, touched, top, below, masks = row
        off = dom & ~max_d if (max_s >> i) & 1 else 0  # each is a rejected node
        while dom:
            low = dom & -dom
            dom ^= low
            f[i] = t = low.bit_length() - 1
            if low & off:
                yield None
            elif not touched:
                rest = need & ~low
                yield None if i == last and (rest or misses(f)) else (d, rest)
            else:
                mask = masks[t]
                if mask is None:
                    mask = (1 << (last - i) * w) - 1 ^ (
                        (spread ^ below) * (field ^ up_d[t])
                        | top * (field ^ mu_d[t]) | below * (field ^ down_d[t]))
                    if mask.bit_length() <= room:
                        masks[t] = mask
                        room -= mask.bit_length()
                e = d & mask
                yield (e, need & ~low) if (e - spread) & touched == touched else None

    def run(required: int, budget: int, make=tuple, limit: int | None = None):
        if required and not ns:
            return EnumerationResult((), True, 0)
        return Backtrack(ns, expand, budget).enumerate((dom0, required), make, limit)

    return run


def _pp_search(run, required: int, budget: int) -> tuple[str, tuple[int, ...] | None, int]:
    """The lexicographically least table of the engine ``run`` whose image
    covers the ``required`` target mask, as ``(status, table, nodes)``."""
    res = run(required, budget, limit=1)
    return res.status, res.witness, res.nodes


def find_surjective_ppmorphism(source: FinitePoset, target: FinitePoset,
                               budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """The lexicographically least surjective pp-morphism source -> target,
    as an enumeration of at most one map; ``witness`` is that map.

    "none" is only reported when the backtracking exhausted within budget,
    so it is a proof of non-existence.
    """
    status, table, nodes = _pp_search(_pp_tables(source, target),
                                      (1 << target.size) - 1, budget)
    maps = () if table is None else (PPMap(source, target, table),)
    return EnumerationResult(maps, status == "none", nodes)


def enumerate_ppmorphisms(source: FinitePoset, target: FinitePoset,
                          limit: int | None = None,
                          budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """All pp-morphisms source -> target in lexicographic table order."""
    return _pp_tables(source, target)(0, budget, partial(PPMap, source, target), limit)


def epsilon_map(f: PPMap) -> AlgebraMap:
    """The algebra homomorphism epsilon(target) -> epsilon(source) taking
    an upset to the upward closure of its preimage."""
    src_ups = upsets_of(f.target, MAX_ALGEBRA_SIZE)
    tgt_ups = upsets_of(f.source, MAX_ALGEBRA_SIZE)
    tgt_index = {u: i for i, u in enumerate(tgt_ups)}
    # the preimage of an upset is already an upset
    table = tuple(tgt_index[sum(1 << x for x, v in enumerate(f.table) if (u >> v) & 1)]
                  for u in src_ups)
    return AlgebraMap(upset_algebra(src_ups, f.target.down),
                      upset_algebra(tgt_ups, f.source.down), table)


def delta_map(h: AlgebraMap) -> PPMap:
    """The pp-morphism delta(target) -> delta(source) dual to ``h``: a
    prime filter pulls back along ``h`` to a prime filter."""
    dsrc, src_labels = delta(h.source)
    dtgt, tgt_labels = delta(h.target)
    src_pos = {lab: i for i, lab in enumerate(src_labels)}
    table = []
    for q in tgt_labels:
        # least element of h^{-1}(up(q))
        members = [x for x in range(h.source.size) if h.target.leq(q, h.table[x])]
        p = members[0]
        for x in members[1:]:
            p = h.source.meet[p][x]
        table.append(src_pos[p])
    return PPMap(dtgt, dsrc, tuple(table))


# ---------------------------------------------------------------------------
# poset isomorphism and enumeration


def _profile(p: FinitePoset) -> list[tuple[int, int, int]]:
    """Per point: how many points lie above, below, and maximal above it;
    an isomorphism maps each point to one of the same profile."""
    return [(p.up[x].bit_count(), p.down[x].bit_count(), p.max_up_masks[x].bit_count())
            for x in range(p.size)]


def posets_isomorphic(p: FinitePoset, q: FinitePoset) -> bool:
    """Backtracking order-isomorphism test with degree-profile pruning."""
    if p.size != q.size:
        return False
    n = p.size
    pp, qp = _profile(p), _profile(q)
    if sorted(pp) != sorted(qp):
        return False
    cands = [[t for t in range(n) if qp[t] == pp[x]] for x in range(n)]

    def expand(i, f, used):
        pu, pd = p.up[i], p.down[i]
        for t in cands[i]:
            if (used >> t) & 1:
                continue
            f[i] = t
            qu, qd = q.up[t], q.down[t]
            ok = all((pu >> y) & 1 == (qu >> f[y]) & 1 and (pd >> y) & 1 == (qd >> f[y]) & 1
                     for y in range(i))
            yield used | (1 << t) if ok else None

    return bool(Backtrack(n, expand).enumerate(0, tuple, 1))


@lru_cache(maxsize=None)
def all_posets(size: int) -> tuple[FinitePoset, ...]:
    """One representative per isomorphism class of posets on exactly
    ``size`` points (1, 1, 2, 5, 16, 63, 318 classes for sizes 0..6)."""
    if size == 0:
        return (EMPTY_POSET,)
    reps = []
    groups: dict[tuple, list[FinitePoset]] = {}  # by sorted profile
    for smaller in all_posets(size - 1):
        for u in upsets_of(smaller):
            # append a new minimal point lying below exactly the upset u
            up = list(smaller.up) + [u | (1 << smaller.size)]
            cand = FinitePoset(size, tuple(up))
            group = groups.setdefault(tuple(sorted(_profile(cand))), [])
            if not any(posets_isomorphic(cand, rep) for rep in group):
                group.append(cand)
                reps.append(cand)
    return tuple(reps)


def posets_up_to(size: int) -> list[FinitePoset]:
    """Representatives of every isomorphism class on at most ``size`` points."""
    out: list[FinitePoset] = []
    for n in range(size + 1):
        out.extend(all_posets(n))
    return out


# ---------------------------------------------------------------------------
# quasivariety membership for finite algebras


@dataclass(frozen=True)
class MembershipResult:
    status: str                    # "yes" | "no" | "inconclusive"
    witness: PPMap | None          # surjective pp-morphism onto delta(a)
    summands: tuple[int, ...]      # generator index used for each summand
    nodes: int = 0                 # pp-search nodes spent in total

    def __bool__(self) -> bool:
        return self.status == "yes"


def finite_membership(a: FiniteAlgebra, generators: list[FiniteAlgebra],
                      budget: int = DEFAULT_SEARCH_BUDGET) -> MembershipResult:
    """Decide membership of ``a`` in the quasivariety generated by
    ``generators``, dually: is there a surjective pp-morphism from a
    finite disjoint union of copies of the generators' dual posets onto
    ``delta(a)``?

    A pp-morphism on a disjoint union is exactly one pp-morphism per
    summand, so it suffices to know which target points each generator
    dual can reach.  One pass walks the target points in ascending order
    and skips a point that a summand chosen so far already covers; for
    any other point it takes, from the first generator dual that has one,
    the least pp-morphism whose image contains the point as the next
    summand.  So there is at most one summand per point, which bounds the
    multiplicity of each generator by ``delta(a)``'s size.  Each generator
    dual keeps one pp engine for the whole run.  The searches share one
    ``budget`` of nodes, each getting what the earlier ones left; "no"
    requires every search it rests on to exhaust within it, and a spent
    budget ends the run "inconclusive".
    """
    target, _ = delta(a)
    if target.size == 0:
        return MembershipResult("yes", PPMap(EMPTY_POSET, target, ()), ())
    duals = [delta(g)[0] for g in generators]
    engines = [_pp_tables(d, target) for d in duals]
    chosen: list[tuple[int, tuple[int, ...]]] = []
    covered = nodes = 0
    for t in range(target.size):
        if (covered >> t) & 1:
            continue
        for gi, run in enumerate(engines):
            status, table, used = _pp_search(run, 1 << t, budget - nodes)
            nodes += used
            if status == "found":
                chosen.append((gi, table))
                for v in table:
                    covered |= 1 << v
                break
            if status == "inconclusive":
                return MembershipResult("inconclusive", None, (), nodes)
        else:
            # no generator dual reaches this point: proven non-member
            return MembershipResult("no", None, (), nodes)
    union = disjoint_union([duals[gi] for gi, _ in chosen])
    table = tuple(v for _, tab in chosen for v in tab)
    return MembershipResult("yes", PPMap(union, target, table),
                            tuple(gi for gi, _ in chosen), nodes)
