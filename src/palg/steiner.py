"""Steiner triple systems, their quasigroups, and the derived posets.

``construct_sts`` uses the classic direct constructions: Bose for orders
``6k+3`` and Skolem for ``6k+1``.  Labelings are fixed so every fixture is
reproducible; in particular ``paste_w`` always glues along the two
lexicographically greatest points of the order-7 system.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    DEFAULT_SEARCH_BUDGET,
    MAX_ALGEBRA_SIZE,
    EnumerationResult,
    ResourceLimitError,
    StructureError,
    ValidationReport,
    close,
    first_broken,
)
from .duality import FinitePoset, PPMap
from .search import table_homs


@dataclass(frozen=True)
class SteinerSystem:
    """Point set 0..order-1 plus 3-element blocks, stored sorted."""

    order: int
    blocks: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks",
            tuple(sorted(tuple(sorted(map(operator.index, b))) for b in self.blocks)))
        for b in self.blocks:
            if len(set(b)) != 3:
                raise StructureError(f"block {b} is not a 3-element set")
            if any(p < 0 or p >= self.order for p in b):
                raise StructureError(f"block {b} has a point out of range")


@dataclass(frozen=True)
class SteinerQuasigroup:
    """Idempotent commutative multiplication with x(xy) = y."""

    order: int
    mult: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "mult",
                           tuple(tuple(map(operator.index, row)) for row in self.mult))
        if len(self.mult) != self.order or any(len(r) != self.order for r in self.mult):
            raise StructureError("multiplication table shape mismatch")
        if any(min(r) < 0 or max(r) >= self.order for r in self.mult):
            raise StructureError("multiplication table entry out of range")


def validate_steiner(s: SteinerSystem) -> ValidationReport:
    """Every 2-element point set lies in exactly one block: the first pair
    that does not, with the number of blocks holding it. Blocks are
    3-element sets, so a system that passes has v(v-1)/6 blocks."""
    count = Counter(itertools.chain.from_iterable(itertools.combinations(b, 2) for b in s.blocks))
    return first_broken(("pair in exactly one block",
                         ((*p, count[p]) for p in itertools.combinations(range(s.order), 2)
                          if count[p] != 1)))


def validate_quasigroup(q: SteinerQuasigroup) -> ValidationReport:
    """Idempotence, commutativity, then ``x . (x . y) = y``: the first law
    broken, with its first witness in row-major order."""
    m = q.mult
    return first_broken(
        ("x . x = x", ((x,) for x in range(q.order) if m[x][x] != x)),
        ("x . y = y . x", ((x, y) for x, row in enumerate(m) for y, v in enumerate(row)
                           if v != m[y][x])),
        ("x . (x . y) = y", ((x, y) for x, row in enumerate(m) for y, v in enumerate(row)
                             if row[v] != y)))


# ---------------------------------------------------------------------------
# constructions


def _bose(v: int) -> SteinerSystem:
    # points (x, i) -> 3x + i over the idempotent quasigroup on Z_n,
    # n = 2k+1, x o y = (x+y)/2 mod n
    k = (v - 3) // 6
    n = 2 * k + 1
    half = pow(2, -1, n)
    pt = lambda x, i: 3 * x + i
    blocks = []
    for x in range(n):
        blocks.append((pt(x, 0), pt(x, 1), pt(x, 2)))
    for x in range(n):
        for y in range(x + 1, n):
            q = ((x + y) * half) % n
            for i in range(3):
                blocks.append((pt(x, i), pt(y, i), pt(q, (i + 1) % 3)))
    return SteinerSystem(v, blocks)


def _skolem(v: int) -> SteinerSystem:
    # points (x, i) -> 3x + i for x in Z_2k plus the point at infinity
    # v-1, over the half-idempotent commutative quasigroup on Z_2k
    k = (v - 1) // 6
    n = 2 * k
    inf = v - 1
    pt = lambda x, i: 3 * x + i

    def circ(x, y):
        s = (x + y) % n
        return s // 2 if s % 2 == 0 else (s - 1) // 2 + k

    blocks = []
    for x in range(k):
        blocks.append((pt(x, 0), pt(x, 1), pt(x, 2)))
    for i in range(k):
        for j in range(3):
            blocks.append((inf, pt(k + i, j), pt(i, (j + 1) % 3)))
    for x in range(n):
        for y in range(x + 1, n):
            q = circ(x, y)
            for j in range(3):
                blocks.append((pt(x, j), pt(y, j), pt(q, (j + 1) % 3)))
    return SteinerSystem(v, blocks)


def construct_sts(v: int) -> SteinerSystem:
    """Steiner triple system of order ``v >= 7`` with ``v = 1, 3 (mod 6)``."""
    if v < 7 or v % 6 not in (1, 3):
        raise ValueError(f"no Steiner triple system of order {v} is constructed here")
    return _skolem(v) if v % 6 == 1 else _bose(v)


@lru_cache(maxsize=None)
def fano_system() -> SteinerSystem:
    return construct_sts(7)


def to_quasigroup(s: SteinerSystem) -> SteinerQuasigroup:
    """x . y = the third point of the unique block through x and y; x . x = x."""
    m = [[i for _ in range(s.order)] for i in range(s.order)]
    for a, b, c in s.blocks:
        m[a][b] = m[b][a] = c
        m[a][c] = m[c][a] = b
        m[b][c] = m[c][b] = a
    return SteinerQuasigroup(s.order, tuple(tuple(r) for r in m))


def from_quasigroup(q: SteinerQuasigroup) -> SteinerSystem:
    """Blocks are the 3-element subalgebras {x, y, x.y}."""
    blocks = {tuple(sorted((x, y, q.mult[x][y])))
              for x in range(q.order) for y in range(q.order) if x != y}
    return SteinerSystem(q.order, tuple(blocks))


def is_planar(q: SteinerQuasigroup) -> bool:
    """Order at least 4 and every non-block triple generates everything."""
    if q.order < 4:
        return False
    blocks = {frozenset((x, y, q.mult[x][y]))
              for x in range(q.order) for y in range(q.order) if x != y}
    rows = (lambda x: q.mult[x].__getitem__,)
    for triple in itertools.combinations(range(q.order), 3):
        if frozenset(triple) in blocks:
            continue
        if len(close(triple, (), rows)) != q.order:
            return False
    return True


# ---------------------------------------------------------------------------
# homomorphism enumeration


def enumerate_quasigroup_homs(source: SteinerQuasigroup, target: SteinerQuasigroup,
                              budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """All multiplication-preserving maps, sorted by image table.

    Backtracks over point images in index order; a point that is a product
    of two earlier points is forced, so only a generating prefix branches.
    The constant maps are always present (idempotence).
    """
    images = range(target.order)
    tables, complete, nodes = table_homs(
        source.order, [], [(source.mult, target.mult)], [], [images] * source.order,
        budget=budget)
    maps = tuple(_QuasigroupHom(source, target, t) for t in tables)
    return EnumerationResult(maps, complete, nodes)


@dataclass(frozen=True)
class _QuasigroupHom:
    source: SteinerQuasigroup
    target: SteinerQuasigroup
    table: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.table[x]

    def is_constant(self) -> bool:
        return len(set(self.table)) == 1


# ---------------------------------------------------------------------------
# posets


def _refuse_past_budget(points: int) -> None:
    """Refuse, before anything is built, a poset no loader would accept."""
    if points > MAX_ALGEBRA_SIZE:
        raise ResourceLimitError(f"a poset of {points} points exceeds the table budget "
                                 f"{MAX_ALGEBRA_SIZE}")


def poset_of(s: SteinerSystem) -> FinitePoset:
    """The height-1 poset on points plus blocks: points 0..v-1 are the
    maximal elements, blocks follow in lexicographic order as minimal
    elements, each below exactly its three points; refused past the table budget."""
    v = s.order
    _refuse_past_budget(v + len(s.blocks))
    covers = []
    for bi, b in enumerate(s.blocks):
        for p in b:
            covers.append((v + bi, p))
    return FinitePoset.from_covers(v + len(s.blocks), covers)


def make_p1(m: int) -> FinitePoset:
    """One bottom below ``m`` pairwise-incomparable maximal points; the
    maximals are indices 0..m-1 and the bottom is index m."""
    if m < 1:
        raise ValueError("m must be positive")
    _refuse_past_budget(m + 1)
    return FinitePoset.from_covers(m + 1, [(m, i) for i in range(m)])


PASTE_POINTS = (5, 6)  # the two lexicographically greatest Fano points


def paste_w(m: int) -> FinitePoset:
    """Horizontal pasting of the Fano poset with the m-fan: the fan's first
    two maximals are identified with Fano points 5 and 6, the remaining
    ``m - 2`` maximals are new indices 14..11+m and the fan bottom is the
    last index, giving ``13 + m`` points."""
    if m < 3:
        raise ValueError("m must be at least 3")
    _refuse_past_budget(13 + m)
    fano = poset_of(fano_system())
    n = fano.size + (m - 2) + 1
    covers = list(fano.covers())
    bot = n - 1
    covers.append((bot, PASTE_POINTS[0]))
    covers.append((bot, PASTE_POINTS[1]))
    for i in range(m - 2):
        covers.append((bot, fano.size + i))
    return FinitePoset.from_covers(n, covers)


def collapse_pasting(m: int):
    """The surjective pp-morphism from the pasted poset onto the
    (m-1)-fan: the whole triple-system part lands on the first maximal,
    the fresh maximals shift down one slot, bottom goes to bottom."""
    src = paste_w(m)
    dst = make_p1(m - 1)
    table = [0] * src.size
    for i in range(m - 2):
        table[14 + i] = i + 1
    table[src.size - 1] = dst.size - 1
    return PPMap(src, dst, tuple(table))
