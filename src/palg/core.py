"""Finite p-algebras as operation tables.

An algebra here is a bounded distributive lattice with a unary operation
``*`` satisfying ``1* = 0``, ``0* = 1`` and ``x ^ (x ^ y)* = x ^ y*``.
Elements are dense indices ``0..size-1``, and all tables are plain
integer tables.  Values are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, partial

from .search import EnumerationResult, table_homs

MAX_ALGEBRA_SIZE = 5000     # cap on materialized operation tables
MAX_BN_ATOMS = 12           # make_bn bound: 2**12 + 1 = 4097 elements
DEFAULT_SEARCH_BUDGET = 10_000_000
DEFAULT_SWEEP_BUDGET = 50_000_000


class StructureError(ValueError):
    """Malformed table shape or out-of-range entry (not a law violation)."""


class ResourceLimitError(RuntimeError):
    """A construction or search would exceed the desk-scale budget."""


class InconsistentMethodsError(RuntimeError):
    """Two independent decision methods disagreed; the implementation is broken."""


@dataclass(frozen=True)
class Violation:
    """A single violated law together with the first witness tuple found."""

    law: str
    witness: tuple


@dataclass(frozen=True)
class ValidationReport:
    """The first law a validator found broken, with its first witness, or none."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def first_broken(*checks) -> ValidationReport:
    """The first witness of the first law that has one: ``checks`` are
    ``(law, witnesses)`` pairs in checking order, each ``witnesses`` a lazy
    iterable of tuples, read only when every earlier law has none."""
    for law, witnesses in checks:
        for w in witnesses:
            return ValidationReport((Violation(law, w),))
    return ValidationReport()


def bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def transpose(masks) -> tuple[int, ...]:
    """The converse relation of one given by bitmask rows: bit ``x`` of
    ``out[y]`` is set iff bit ``y`` of ``masks[x]`` is."""
    out = [0] * len(masks)
    for x, m in enumerate(masks):
        bit = 1 << x
        for y in bits(m):
            out[y] |= bit
    return tuple(out)


def covers(up, down) -> list[tuple[int, int]]:
    """Hasse edges ``(x, y)``, sorted, of the relation whose rows are ``up``
    (bit ``y`` of ``up[x]`` iff ``x R y``) and ``down`` (its transpose):
    ``x R y`` for ``x != y`` with no third point ``z`` such that
    ``x R z R y``.  Only the points related to ``x`` are visited."""
    out = []
    for x, m in enumerate(up):
        strict = m & ~(1 << x)
        out += [(x, y) for y in bits(strict) if not strict & down[y] & ~(1 << y)]
    return out


def _frozen_array(table) -> np.ndarray:
    import numpy as np
    a = np.asarray(table, dtype=np.int32)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FiniteAlgebra:
    """Operation-table representation of a bounded-lattice-with-star candidate.

    The constructor only checks shapes; use :func:`validate_palgebra` to
    decide whether the tables actually satisfy the p-algebra laws.
    """

    size: int
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    zero: int
    one: int

    def __post_init__(self):
        # operator.index refuses floats and the like, where int() would truncate
        index = operator.index
        object.__setattr__(self, "meet", tuple(tuple(map(index, row)) for row in self.meet))
        object.__setattr__(self, "join", tuple(tuple(map(index, row)) for row in self.join))
        object.__setattr__(self, "star", tuple(map(index, self.star)))
        n = self.size
        if len(self.meet) != n or len(self.join) != n or len(self.star) != n:
            raise StructureError("table length does not match size")
        if any(len(row) != n for row in self.meet) or any(len(row) != n for row in self.join):
            raise StructureError("binary table row length does not match size")

    def leq(self, x: int, y: int) -> bool:
        """Lattice order: ``x <= y`` iff ``x ^ y = x``."""
        return self.meet[x][y] == x

    # read-only numpy copies of the tables, for the grid sweep
    np_meet = cached_property(lambda self: _frozen_array(self.meet))
    np_join = cached_property(lambda self: _frozen_array(self.join))
    np_star = cached_property(lambda self: _frozen_array(self.star))

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """``up_masks[x]`` has bit ``y`` set iff ``x <= y``."""
        masks = []
        for x in range(self.size):
            m = 0
            row = self.meet[x]
            for y in range(self.size):
                if row[y] == x:
                    m |= 1 << y
            masks.append(m)
        return tuple(masks)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """``down_masks[x]`` has bit ``y`` set iff ``y <= x``."""
        return transpose(self.up_masks)

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements ``x != 0`` with a unique lower cover, ascending: in a
        lattice, those whose strict down-set is itself a down-set ``down[y]``
        (``y`` is then the cover)."""
        principal = set(self.down_masks)
        return tuple(x for x, d in enumerate(self.down_masks)
                     if x != self.zero and d ^ (1 << x) in principal)

    def __repr__(self) -> str:
        return f"FiniteAlgebra(size={self.size}, zero={self.zero}, one={self.one})"


def image_table(f) -> tuple[int, ...]:
    """The image table of the map ``f`` as a tuple of ints, refused unless
    it has one entry per source element, each an index of the target."""
    table = tuple(map(operator.index, f.table))
    if len(table) != f.source.size:
        raise StructureError("map table length does not match source size")
    if table and (min(table) < 0 or max(table) >= f.target.size):
        raise StructureError("map image out of range")
    return table


@dataclass(frozen=True)
class AlgebraMap:
    """A candidate map between algebras, given by an image table."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", image_table(self))

    def is_homomorphism(self) -> bool:
        s, t, f = self.source, self.target, self.table
        xs = range(s.size)

        def unsent(op, image_op):
            return ((x, y) for x in xs for y in xs if image_op[f[x]][f[y]] != f[op[x][y]])

        return first_broken(
            ("f(0) = 0, f(1) = 1", [()] if (f[s.zero], f[s.one]) != (t.zero, t.one) else []),
            ("f(x*) = f(x)*", ((x,) for x in xs if t.star[f[x]] != f[s.star[x]])),
            ("f(x ^ y) = f(x) ^ f(y)", unsent(s.meet, t.meet)),
            ("f(x v y) = f(x) v f(y)", unsent(s.join, t.join))).ok

    def is_embedding(self) -> bool:
        return len(set(self.table)) == self.source.size and self.is_homomorphism()


# ---------------------------------------------------------------------------
# validation


def _first_diff(u, v) -> int:
    """The first index at which the sequences ``u`` and ``v`` differ."""
    return next(i for i, (p, q) in enumerate(zip(u, v)) if p != q)


def _first_unsent(table, image, op) -> tuple[int, int] | None:
    """The first ``(x, y)`` with ``x <= y``, in row-major order, where
    ``image[table[x][y]] != op(image[x], image[y])``; None means all pairs
    are sent when ``table`` and ``op`` commute."""
    get = image.__getitem__
    for x, row in enumerate(table):
        got, want = list(map(get, row[x:])), list(map(partial(op, image[x]), image[x:]))
        if got != want:
            return x, x + _first_diff(got, want)
    return None


def _first_violation(a: FiniteAlgebra) -> Violation | None:
    """The first p-algebra law that ``a``, its entries in range, breaks,
    with its first witness in row-major order, or None if it breaks none;
    decided on the bitmask up- and down-sets in O(n^2) mask operations.

    With meet commutative and idempotent, ``x <= y`` iff ``x ^ y = x`` is
    reflexive and antisymmetric.  ``down[x ^ y] = down[x] & down[y]`` makes
    ``x ^ y`` the greatest lower bound (and gives ``down[x] <= down[y]``
    for ``x <= y``, so the order is transitive), and a top makes the order
    a lattice.  In a finite lattice ``x`` is the join of ``J(x)``, the
    join-irreducibles below it, so ``J(x v y) = J(x) | J(y)`` makes
    ``x v y`` the least upper bound and, by Birkhoff's theorem, the lattice
    distributive.  The star law is checked directly.
    """
    n, meet, join, star, zero, one = a.size, a.meet, a.join, a.star, a.zero, a.one
    for law, table in (("meet commutative", meet), ("join commutative", join)):
        for x, (row, col) in enumerate(zip(table, zip(*table))):
            if row != col:
                return Violation(law, (x, _first_diff(row, col)))
    for x, row in enumerate(meet):
        if row[x] != x:
            return Violation("meet idempotent", (x,))
    up, down, full = a.up_masks, a.down_masks, (1 << n) - 1
    if w := _first_unsent(meet, down, operator.and_):
        return Violation("down(x ^ y) = down(x) & down(y)", w)
    for law, mask in (("0 is bottom", up[zero]), ("1 is top", down[one])):
        if mask != full:
            return Violation(law, (next(bits(full & ~mask)),))
    if star[one] != zero:
        return Violation("1* = 0", (one,))
    if star[zero] != one:
        return Violation("0* = 1", (zero,))
    ji = sum(1 << x for x in a.join_irreducibles)
    if w := _first_unsent(join, [d & ji for d in down], operator.or_):
        return Violation("J(x v y) = J(x) | J(y)", w)
    for x, row in enumerate(meet):
        got = list(map(row.__getitem__, map(star.__getitem__, row)))
        want = list(map(row.__getitem__, star))
        if got != want:
            return Violation("x ^ (x ^ y)* = x ^ y*", (x, _first_diff(got, want)))
    return None


def validate_palgebra(candidate: FiniteAlgebra) -> ValidationReport:
    """Decide all p-algebra laws.

    Raises :class:`StructureError` for out-of-range entries.  Otherwise
    reports the first check of :func:`_first_violation` that fails, with
    its first witness in row-major order, or no violation at all.
    """
    n = candidate.size
    if n <= 0:
        raise StructureError("size must be positive")
    for name, rows in (("meet", candidate.meet), ("join", candidate.join), ("star", [candidate.star])):
        if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
            raise StructureError(f"{name} table entry out of range")
    if not (0 <= candidate.zero < n and 0 <= candidate.one < n):
        raise StructureError("zero/one out of range")
    v = _first_violation(candidate)
    return ValidationReport(() if v is None else (v,))


# ---------------------------------------------------------------------------
# constructions


def trivial_algebra() -> FiniteAlgebra:
    """The one-element algebra (zero = one); all laws hold vacuously."""
    return FiniteAlgebra(1, ((0,),), ((0,),), (0,), 0, 0)


def from_elements(elements, meet, join, star, zero, one) -> FiniteAlgebra:
    """The algebra whose index ``i`` is ``elements[i]``.

    ``meet(x)`` and ``join(x)`` give the row of ``x`` as a function of the
    other element, and ``star`` maps an element to an element; ``zero``
    and ``one`` are elements.  Rows are mapped, not looped, so a row
    lookup such as ``mult[x].__getitem__`` costs no Python call per pair.
    """
    index = {e: i for i, e in enumerate(elements)}.__getitem__
    return FiniteAlgebra(len(elements),
                         [tuple(map(index, map(meet(x), elements))) for x in elements],
                         [tuple(map(index, map(join(x), elements))) for x in elements],
                         tuple(map(index, map(star, elements))), index(zero), index(one))


def close(seeds, unary, rows, cap: int | None = None) -> set:
    """Closure of ``seeds`` under the ``unary`` maps and the binary
    operations given as row lookups (``row(x)`` maps ``y`` to ``x op y``).

    Semi-naive: each round combines only the elements new in the last
    round with all elements.  With a ``cap``, stops as soon as the closure
    is known to pass it, so the caller can tell by its size.
    """
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        current = list(closed)
        fresh = set()
        for f in unary:
            fresh.update(map(f, frontier))
        for row in rows:
            for x in frontier:
                fresh.update(map(row(x), current))
                if cap is not None and len(fresh) > cap:
                    return closed | fresh
        fresh -= closed
        closed |= fresh
        if cap is not None and len(closed) > cap:
            break
        frontier = list(fresh)
    return closed


def upset_star(down):
    """``U* = X minus down(U)`` on upset bitmasks over points whose down-sets
    are the masks ``down``."""
    full = (1 << len(down)) - 1
    # points with one strict down-set share one test: down(U) is U plus
    # the strict down-set of each group that U meets
    groups: dict[int, int] = {}
    for b, d in enumerate(down):
        strict = d & ~(1 << b)
        if strict:
            groups[strict] = groups.get(strict, 0) | (1 << b)
    pairs = tuple(groups.items())

    def star(u: int) -> int:
        d = u
        for below, group in pairs:
            if u & group:
                d |= below
        return full & ~d

    return star


# meet and join rows of bitmask elements (a partial of a builtin calls
# faster than the bound ``u.__and__``)
BITWISE_ROWS = (lambda u: partial(operator.and_, u), lambda u: partial(operator.or_, u))


def upset_algebra(masks, down) -> FiniteAlgebra:
    """The algebra of the upsets ``masks`` (index ``i`` is ``masks[i]``) of
    the poset whose down-sets are ``down``: meet and join are bitwise and/or,
    zero is the empty upset and one the full one."""
    return from_elements(masks, *BITWISE_ROWS, upset_star(down), 0, (1 << len(down)) - 1)


def make_bn(n: int) -> FiniteAlgebra:
    """The subdirectly irreducible algebra with Boolean part of ``n`` atoms
    plus a new top.

    It is the upset algebra of the n-fan (maximals ``0..n-1`` over the
    bottom ``n``), and its indices are the upset masks: ``0..2^n-1`` is the
    Boolean part as an atom bitmask (so the atoms sit at indices
    ``1, 2, 4, ...`` and the Boolean top ``e`` at ``2^n - 1``); index
    ``2^n`` is the new top, the full mask.  ``n = 0`` gives the
    two-element Boolean algebra.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_BN_ATOMS:
        raise ResourceLimitError(f"make_bn bound is {MAX_BN_ATOMS} atoms (2^n+1 elements materialized)")
    bottom = 1 << n
    fan = [(1 << i) | bottom for i in range(n)] + [bottom]
    return upset_algebra(list(range(bottom)) + [(bottom << 1) - 1], fan)


def product(factors: list[FiniteAlgebra]) -> FiniteAlgebra:
    """Direct product with mixed-radix indexing, leftmost factor most
    significant: ``index = (...((t0*n1 + t1)*n2 + t2)...)``."""
    if not factors:
        raise ValueError("product of an empty list is not supported")
    size = 1
    for f in factors:
        size *= f.size
    if size > MAX_ALGEBRA_SIZE:
        raise ResourceLimitError(f"product size {size} exceeds table budget {MAX_ALGEBRA_SIZE}")

    def pointwise(tables):
        return lambda x: lambda y: tuple(t[a][b] for t, a, b in zip(tables, x, y))

    return from_elements(
        list(itertools.product(*(range(f.size) for f in factors))),  # row-major == mixed radix
        pointwise([f.meet for f in factors]), pointwise([f.join for f in factors]),
        lambda x: tuple(f.star[a] for f, a in zip(factors, x)),
        tuple(f.zero for f in factors), tuple(f.one for f in factors))


def generated_subalgebra(parent: FiniteAlgebra,
                         generators) -> tuple[FiniteAlgebra, AlgebraMap]:
    """Closure of ``generators | {0, 1}`` under meet, join and star.

    The subalgebra's indices are the closure listed in ascending parent
    order; the returned map is the inclusion embedding.
    """
    gens = set(int(g) for g in generators)
    if any(g < 0 or g >= parent.size for g in gens):
        raise ValueError("generator index out of range")
    meet, join = (lambda x: parent.meet[x].__getitem__), (lambda x: parent.join[x].__getitem__)
    star = parent.star.__getitem__
    elements = sorted(close(gens | {parent.zero, parent.one}, (star,), (meet, join)))
    sub = from_elements(elements, meet, join, star, parent.zero, parent.one)
    return sub, AlgebraMap(sub, parent, tuple(elements))


# ---------------------------------------------------------------------------
# homomorphism / embedding / isomorphism search


def _unary_profile(a: FiniteAlgebra) -> list[tuple[bool, ...]]:
    # term-equality facts preserved forward by any homomorphism
    out = []
    for x in range(a.size):
        sx = a.star[x]
        out.append((
            x == a.zero,
            x == a.one,
            sx == a.zero,
            a.star[sx] == x,
            a.join[x][sx] == a.one,
        ))
    return out


def _iso_invariant(a: FiniteAlgebra) -> list[tuple]:
    # order-theoretic counts, preserved by isomorphisms only
    ji = set(a.join_irreducibles)
    rows = zip(_unary_profile(a), a.up_masks, a.down_masks)
    return [(prof, up.bit_count(), down.bit_count(), x in ji)
            for x, (prof, up, down) in enumerate(rows)]


def _map_search(source: FiniteAlgebra, target: FiniteAlgebra, *,
                injective: bool, iso: bool = False,
                limit: int | None = None,
                budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """Backtracking over element images in index order, candidates ascending.

    Each operation fact of the source is checked as soon as all indices it
    mentions are assigned, so every complete assignment is a homomorphism.
    """
    n, m = source.size, target.size
    if injective and n > m:
        return EnumerationResult((), True, 0)
    profile = _iso_invariant if iso else _unary_profile
    sprof, tprof = profile(source), profile(target)
    # the target elements of each profile, ascending; an embedding keeps
    # profiles, a homomorphism keeps each fact of the unary profile true
    classes: dict[tuple, list[int]] = {}
    for u, q in enumerate(tprof):
        classes.setdefault(q, []).append(u)
    if injective:
        cands = [classes.get(p, []) for p in sprof]
    else:
        admits = {p: sorted(u for q, us in classes.items()
                            if all(not a or b for a, b in zip(p, q)) for u in us)
                  for p in set(sprof)}
        cands = [admits[p] for p in sprof]
    return table_homs(
        n, [(source.star, target.star)],
        [(source.meet, target.meet), (source.join, target.join)],
        [(source.zero, target.zero), (source.one, target.one)], cands,
        partial(AlgebraMap, source, target), injective=injective, limit=limit, budget=budget)


def enumerate_homomorphisms(source: FiniteAlgebra, target: FiniteAlgebra,
                            limit: int | None = None,
                            budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """All homomorphisms source -> target, sorted by image table."""
    return _map_search(source, target, injective=False, limit=limit, budget=budget)


def enumerate_embeddings(small: FiniteAlgebra, big: FiniteAlgebra,
                         limit: int | None = None,
                         budget: int = DEFAULT_SEARCH_BUDGET) -> EnumerationResult:
    """All injective homomorphisms small -> big, sorted by image table.

    An empty result with ``complete=True`` proves no embedding exists;
    inspect ``complete`` before trusting emptiness.
    """
    return _map_search(small, big, injective=True, limit=limit, budget=budget)


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[bool, AlgebraMap | None]:
    """Bijective-homomorphism test with invariant pruning; returns the
    lexicographically least witness when isomorphic."""
    if a.size != b.size:
        return False, None
    res = _map_search(a, b, injective=True, iso=True, limit=1, budget=budget)
    if res.status == "inconclusive":
        raise ResourceLimitError("isomorphism search budget exhausted")
    return bool(res), res.witness


# ---------------------------------------------------------------------------
# subdirect irreducibility


def principal_congruence(a: FiniteAlgebra, x: int, y: int) -> tuple[int, ...]:
    """Congruence generated by identifying ``x`` and ``y``, as a class-id
    vector (pair-generation closure under the basic operations)."""
    parent = list(range(a.size))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    queue = []

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            queue.append((u, v))

    union(x, y)
    while queue:
        p, q = queue.pop()
        union(a.star[p], a.star[q])
        for z in range(a.size):
            union(a.meet[p][z], a.meet[q][z])
            union(a.join[p][z], a.join[q][z])
    return tuple(find(v) for v in range(a.size))


def _si_by_congruences(a: FiniteAlgebra) -> bool:
    n = a.size
    if n < 2:
        return False
    monolith: set[tuple[int, int]] | None = None
    for x in range(n):
        for y in range(x + 1, n):
            cls = principal_congruence(a, x, y)
            pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if cls[u] == cls[v]}
            monolith = pairs if monolith is None else monolith & pairs
            if not monolith:
                return False
    return bool(monolith)


def _si_by_shape(a: FiniteAlgebra) -> bool:
    # structural test: one is join-irreducible and A \ {1} is a Boolean
    # sublattice whose top e is the unique lower cover of 1, with star
    # acting as complementation on it.  Read off the order masks and the
    # tables only, so that it stays independent of the congruence route.
    n, zero, one, meet, join, star = a.size, a.zero, a.one, a.meet, a.join, a.star
    if n < 2:
        return False
    rest = ((1 << n) - 1) & ~(1 << one)
    below_one = a.down_masks[one] & rest
    # the lower covers of 1: no other element below 1 lies above them
    lower = [x for x in bits(rest) if not a.up_masks[x] & below_one & ~(1 << x)]
    if len(lower) != 1:
        return False
    e = lower[0]
    if rest & ~a.down_masks[e]:  # everything but 1 lies below e
        return False
    b = set(range(n)) - {one}  # A \ {1} is closed under meet and join
    if not all(b.issuperset(row[:one]) and b.issuperset(row[one + 1:])
               for table in (meet, join) for x, row in enumerate(table) if x != one):
        return False
    # zero needs a complement: y != 1 with 0 ^ y = 0 (bit y of up[0]) and 0 v y = e
    if zero != one and not any(join[zero][y] == e for y in bits(a.up_masks[zero] & rest)):
        return False
    for x in bits(rest & ~(1 << zero)):  # x* is a complement of x in A \ {1}
        s = star[x]
        if s not in b or meet[x][s] != zero or join[x][s] != e:
            return False
    return star[zero] == one and star[one] == zero


def is_subdirectly_irreducible(a: FiniteAlgebra) -> bool:
    """Subdirect irreducibility via the congruence monolith, checked
    against the independent shape test; raises
    :class:`InconsistentMethodsError` if the two verdicts differ."""
    verdict, shape = _si_by_congruences(a), _si_by_shape(a)
    if verdict != shape:
        raise InconsistentMethodsError(
            f"congruence method says {verdict}, shape method says {shape}")
    return verdict
