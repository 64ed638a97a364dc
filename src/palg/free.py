"""Canonical construction of finitely generated free algebras.

``build_free(m, k)`` realizes the k-generated free algebra of the variety
generated by the m-atom subdirectly irreducible, as the subalgebra of a
product of small subdirectly irreducibles generated by the coordinate
tuples.  Factors with more than ``2^k`` atoms are omitted: a k-generated
subalgebra has only k-generated subdirectly irreducible quotients, and
those have at most ``2^k`` atoms, so the smaller factors already separate
every pair of points.

Internally each product element is a single bitmask: the product algebra
is the upset algebra of the disjoint union of the factors' dual fans, so
meet and join are bitwise and/or.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    BITWISE_ROWS,
    FiniteAlgebra,
    InconsistentMethodsError,
    MAX_ALGEBRA_SIZE,
    ResourceLimitError,
    bits,
    close,
    is_isomorphic,
    enumerate_embeddings,
    make_bn,
    upset_algebra,
    upset_star,
)
from .duality import FinitePoset, delta, find_surjective_ppmorphism, epsilon, validate_poset
from .logic import (
    Const,
    Join,
    Meet,
    Quasiequation,
    SatisfactionResult,
    Star,
    Term,
    Var,
    format_quasiequation,
    make_ib,
    make_qb,
    satisfies,
    variety_satisfies,
)
from .steiner import make_p1


@dataclass(frozen=True)
class FreeAlgebraResult:
    algebra: FiniteAlgebra
    generators: tuple[int, ...]


def _local_mask(j: int, element: int) -> int:
    # element indices of the (2^j + 1)-element factor coincide with its
    # upset masks over the j-fan: Boolean part = subsets of the j maximals,
    # top = the full mask including the bottom bit
    return element if element < (1 << j) else (1 << (j + 1)) - 1


def build_free(m: int, k: int) -> FreeAlgebraResult:
    """Free algebra on ``k`` generators in the variety of the m-atom
    subdirectly irreducible (``m >= 2^k`` gives the free p-algebra).

    The result is canonically reindexed by (lattice height, lexicographic
    component vector); raises :class:`ResourceLimitError` with partial
    stats when the closure exceeds ``MAX_ALGEBRA_SIZE`` elements, or before
    any work when the product has more than ``MAX_ALGEBRA_SIZE`` coordinates.
    """
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    coordinates = 0
    for j in range(min(m, 1 << k) + 1):
        # (2^j + 1)^k factors with j atoms; for a long k, 2^k alone passes the cap
        coordinates += (((1 << j) + 1) ** k if k < MAX_ALGEBRA_SIZE.bit_length()
                        else MAX_ALGEBRA_SIZE + 1)
        if coordinates > MAX_ALGEBRA_SIZE:
            raise ResourceLimitError(
                f"free algebra product passes the cap of {MAX_ALGEBRA_SIZE} coordinates")
    factors: list[tuple[int, tuple[int, ...], int]] = []  # (atoms, tuple, offset)
    downmask: list[int] = []  # the factors' dual fans side by side
    for j in range(min(m, 1 << k) + 1):
        for t in itertools.product(range((1 << j) + 1), repeat=k):
            off = len(downmask)
            bot = 1 << (off + j)
            factors.append((j, t, off))
            downmask += [(1 << (off + i)) | bot for i in range(j)] + [bot]
    total_bits = len(downmask)
    full = (1 << total_bits) - 1

    gens = []
    for i in range(k):
        g = 0
        for j, t, off in factors:
            g |= _local_mask(j, t[i]) << off
        gens.append(g)

    elements = close({0, full, *gens}, (upset_star(downmask),), BITWISE_ROWS, MAX_ALGEBRA_SIZE)
    if len(elements) > MAX_ALGEBRA_SIZE:
        raise ResourceLimitError(
            f"free algebra closure passed {len(elements)} elements "
            f"(cap {MAX_ALGEBRA_SIZE}, {len(factors)} product coordinates)")

    def components(u: int) -> tuple[int, ...]:
        # per-factor element index: a local mask inside the j maximals is
        # its own index (the Boolean part), the full block mask is 2^j (the top)
        return tuple(min((u >> off) & ((2 << j) - 1), 1 << j) for j, _t, off in factors)

    masks = sorted(elements, key=lambda u: (bin(u).count("1"), components(u)))
    return FreeAlgebraResult(upset_algebra(masks, downmask), tuple(map(masks.index, gens)))


# ---------------------------------------------------------------------------
# checks of the free-algebra structure lemmas


@dataclass(frozen=True)
class UnderEachReport:
    max_points: int
    missing_max_up_sets: tuple[tuple[int, ...], ...]       # clause (2)
    full_preimage_is_unique_bottom: bool | None            # clause (3)
    top_join_irreducible: bool | None                      # clause (4)
    stabilizes: bool | None                                # clause (4)
    ok: bool


def check_under_each(f: FreeAlgebraResult, m: int, k: int) -> UnderEachReport:
    """Clauses (1)-(4) of the free-algebra dual-structure lemma; the
    clauses guarded by ``m >= 2^k`` are skipped (None) when the guard
    fails.  Clause (4)'s stabilization compares ``f`` with the free
    algebra at ``m = 2^k`` up to isomorphism; at ``m = 2^k`` that algebra
    is ``f`` itself."""
    poset, _ = delta(f.algebra)
    maximal = list(bits(poset.maximal_mask))
    clause1 = len(maximal) == (1 << k)

    present = set(poset.max_up_masks)
    missing = [subset for r in range(1, min(m, len(maximal)) + 1)
               for subset in itertools.combinations(maximal, r)
               if sum(1 << a for a in subset) not in present]

    guard = m >= (1 << k)
    clause3 = None
    clause4_ji = None
    clause4_stab = None
    if guard:
        hits = [x for x, mu in enumerate(poset.max_up_masks) if mu == poset.maximal_mask]
        everything = (1 << poset.size) - 1
        bottoms = [x for x, u in enumerate(poset.up) if u == everything]
        clause3 = len(hits) == 1 and bottoms == hits
        clause4_ji = f.algebra.one in f.algebra.join_irreducibles
        clause4_stab = m == 1 << k or is_isomorphic(f.algebra, build_free(1 << k, k).algebra)[0]
    ok = clause1 and not missing and (not guard or (clause3 and clause4_ji and clause4_stab))
    return UnderEachReport(len(maximal), tuple(missing),
                           clause3, clause4_ji, clause4_stab, ok)


@dataclass(frozen=True)
class FreeQb3Report:
    status: str                    # "satisfied" | "falsified" | "inconclusive"
    sweep: SatisfactionResult
    pp_search_status: str

    def __bool__(self) -> bool:
        return self.status == "satisfied"


def check_free_qb3(m: int, k: int, built: FreeAlgebraResult | None = None) -> FreeQb3Report:
    """Two independent verdicts that the free algebra satisfies qb_3: the
    valuation sweep, and the absence of a surjective pp-morphism from its
    dual onto the 3-fan, each under its own default budget.  Disagreement
    raises :class:`InconsistentMethodsError`."""
    if m < 3 or k < 2:
        raise ValueError("the free-algebra qb_3 check needs m >= 3 and k >= 2")
    f = built if built is not None else build_free(m, k)
    sweep = satisfies(f.algebra, make_qb(3))
    poset, _ = delta(f.algebra)
    pp = find_surjective_ppmorphism(poset, make_p1(3))
    if sweep.status == "inconclusive" or pp.status == "inconclusive":
        return FreeQb3Report("inconclusive", sweep, pp.status)
    sweep_sat = sweep.status == "satisfied"
    pp_sat = pp.status == "none"
    if sweep_sat != pp_sat:
        raise InconsistentMethodsError(
            f"sweep says satisfied={sweep_sat} but pp-morphism search says {pp.status}")
    return FreeQb3Report("satisfied" if sweep_sat else "falsified", sweep, pp.status)


# ---------------------------------------------------------------------------
# structural completeness of the special-form fragment


def _random_term(rng: random.Random, names: list[str], depth: int) -> Term:
    if depth <= 0:
        roll = rng.randrange(4)
        if roll == 0:
            return Const(rng.randrange(2))
        return Var(rng.choice(names))
    roll = rng.randrange(8)
    if roll < 2:
        return Var(rng.choice(names))
    if roll == 2:
        return Const(rng.randrange(2))
    if roll < 5:
        return Meet(_random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1))
    if roll < 7:
        return Join(_random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1))
    return Star(_random_term(rng, names, depth - 1))


def random_special_quasiequation(rng: random.Random, nvars: int) -> Quasiequation:
    """A random quasiequation of the special form
    ``t_1 = 1 & ... & t_j = 1 => s = 1``, with at most 3 premises and
    terms of depth at most 4 (the conclusion's at least 1)."""
    names = [f"x{i}" for i in range(1, nvars + 1)]
    one = Const(1)
    premises = tuple((_random_term(rng, names, rng.randrange(5)), one)
                     for _ in range(rng.randrange(4)))
    return Quasiequation(premises, (_random_term(rng, names, rng.randrange(1, 5)), one))


@dataclass(frozen=True)
class StructuralReport:
    trials: int
    seed: int
    mismatches: tuple[str, ...]
    skipped: tuple[str, ...]
    ok: bool


def check_special_structural(n: int, trials: int, seed: int = 2024) -> StructuralReport:
    """Empirical check that special-form quasiequations hold in the free
    algebra exactly when they hold in the whole variety, each sweep under
    its own default budget."""
    if n not in (1, 2):
        raise ValueError("only 1 or 2 generators are within the sweep budget")
    free = build_free(1 << n, n)
    rng = random.Random(seed)
    mismatches = []
    skipped = []
    for _ in range(trials):
        q = random_special_quasiequation(rng, n)
        on_free = satisfies(free.algebra, q)
        in_variety = variety_satisfies(q)
        if on_free.status == "inconclusive" or in_variety.status == "inconclusive":
            skipped.append(format_quasiequation(q))
            continue
        if bool(on_free) != bool(in_variety):
            mismatches.append(format_quasiequation(q))
    return StructuralReport(trials, seed, tuple(mismatches), tuple(skipped),
                            ok=not mismatches)


# ---------------------------------------------------------------------------
# the cover-candidate fixtures


COVER_POSETS: tuple[FinitePoset, ...] = (
    # bottom, a middle carrying two tops, one extra top over the bottom
    FinitePoset.from_covers(5, [(0, 1), (0, 4), (1, 2), (1, 3)]),
    # bottom, two middles sharing one of three tops
    FinitePoset.from_covers(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5)]),
    # bottom, three middles, three tops, each middle under two tops
    FinitePoset.from_covers(7, [(0, 1), (0, 2), (0, 3),
                                (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6)]),
)


@dataclass(frozen=True)
class CoverFixtureReport:
    poset_sizes: tuple[int, ...]
    algebra_sizes: tuple[int, ...]
    valid: tuple[bool, ...]
    # None where a sweep or an embedding search ran out of budget
    qb3: tuple[bool | None, ...]
    qb3_by_embedding: tuple[bool | None, ...]
    ib2: tuple[bool | None, ...]
    bn2_embeds: tuple[bool | None, ...]

    @property
    def consistent(self) -> bool:
        return self.qb3 == self.qb3_by_embedding


def _decided(status: str, yes: str) -> bool | None:
    """Whether a verdict ``status`` is ``yes``; None when it is inconclusive."""
    return None if status == "inconclusive" else status == yes


def cover_fixture_checks() -> CoverFixtureReport:
    """Validation plus qb_3 / ib_2 verdicts for the three cover-candidate
    posets; the verdicts are reported, no covering claim is decided."""
    valid, qb3, qb3_emb, ib2, bn2 = [], [], [], [], []
    sizes = []
    for p in COVER_POSETS:
        valid.append(bool(validate_poset(p)))
        a = epsilon(p)
        sizes.append(a.size)
        qb3.append(_decided(satisfies(a, make_qb(3)).status, "satisfied"))
        qb3_emb.append(_decided(enumerate_embeddings(make_bn(3), a, limit=1).status, "none"))
        ib2.append(_decided(satisfies(a, make_ib(2)).status, "satisfied"))
        bn2.append(_decided(enumerate_embeddings(make_bn(2), a, limit=1).status, "found"))
    return CoverFixtureReport(
        tuple(p.size for p in COVER_POSETS), tuple(sizes), tuple(valid),
        tuple(qb3), tuple(qb3_emb), tuple(ib2), tuple(bn2))
