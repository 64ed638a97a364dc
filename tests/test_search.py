"""The backtracking kernel and the engines built on it: deep inputs,
pinned node counts, and a brute-force route for pp-morphisms."""

import itertools
import random

import pytest

from palg import (
    FinitePoset,
    all_posets,
    construct_sts,
    disjoint_union,
    finite_membership,
    enumerate_embeddings,
    enumerate_homomorphisms,
    enumerate_quasigroup_homs,
    epsilon,
    fano_system,
    find_surjective_ppmorphism,
    is_isomorphic,
    make_bn,
    make_p1,
    paste_w,
    poset_of,
    posets_up_to,
    to_quasigroup,
    validate_ppmap,
)
from palg import duality
from palg.duality import _pp_search, _pp_tables, enumerate_ppmorphisms
from palg.search import Backtrack, table_homs
from pp_oracle import pp_tables


def _expand_over(values, child):
    """An ``expand`` that tries ``values(i)`` at level ``i`` and yields
    ``child(state)`` for each."""
    def expand(i, f, state):
        for u in values(i):
            f[i] = u
            yield child(state)
    return expand


class TestKernel:
    def test_lexicographic_order_and_node_count(self):
        search = Backtrack(3, _expand_over(lambda i: range(2), lambda s: s))
        tables = [tuple(f) for f in search.solutions(0)]
        assert tables == list(itertools.product(range(2), repeat=3))
        assert search.nodes == 2 + 4 + 8 and not search.exhausted

    def test_budget_counts_every_candidate(self):
        # a rejected value is a node too
        search = Backtrack(3, _expand_over(lambda i: range(2), lambda s: None), budget=1)
        assert list(search.solutions(0)) == []
        assert search.nodes == 2 and search.exhausted

    def test_depth_is_not_bounded_by_recursion(self):
        search = Backtrack(5000, _expand_over(lambda i: (i,), lambda s: s))
        assert [list(f) for f in search.solutions(0)] == [list(range(5000))]


class TestDeepInputs:
    def test_pp_search_from_400_fans(self):
        src = disjoint_union([make_p1(2)] * 400)
        res = find_surjective_ppmorphism(src, make_p1(2))
        assert res.status == "found"
        assert validate_ppmap(res.witness).ok

    def test_pp_search_from_a_1000_point_chain(self):
        # every chain point has one maximal above it and the 3-fan's bottom
        # three, so the search ends before its first node; nothing is built
        # per related pair of the chain first
        res = find_surjective_ppmorphism(_chain(1000), make_p1(3))
        assert (res.status, res.nodes) == ("none", 0)

    def test_isomorphism_of_b10(self):
        ok, witness = is_isomorphic(make_bn(10), make_bn(10))
        assert ok and witness.table == tuple(range(2 ** 10 + 1))


class TestPinnedNodeCounts:
    def test_fano_onto_fan3(self):
        res = find_surjective_ppmorphism(poset_of(fano_system()), make_p1(3))
        assert (res.status, res.nodes) == ("none", 20_457)

    def test_b3_into_epsilon_fano(self):
        res = enumerate_embeddings(make_bn(3), epsilon(poset_of(fano_system())))
        assert (len(res.maps), res.complete, res.nodes) == (0, True, 20_035)

    def test_b2_homs_with_limit(self):
        res = enumerate_homomorphisms(make_bn(2), epsilon(poset_of(fano_system())), limit=1)
        assert (len(res.maps), res.complete, res.nodes) == (1, False, 5)

    def test_s13_to_s7(self):
        res = enumerate_quasigroup_homs(to_quasigroup(construct_sts(13)),
                                        to_quasigroup(fano_system()))
        assert (len(res.maps), res.complete, res.nodes) == (7, True, 8_365)

    def test_ppmorphism_enumeration_reports_its_nodes(self):
        # the kernel stops at the first node past the budget
        res = enumerate_ppmorphisms(paste_w(4), make_p1(3), budget=10)
        assert (res.maps, res.complete, res.nodes, res.status) == ((), False, 11, "inconclusive")


def test_enumeration_status_reads_maps_then_completeness():
    point = all_posets(1)[0]
    assert enumerate_ppmorphisms(point, point).status == "found"
    assert enumerate_embeddings(make_bn(4), make_bn(3)).status == "none"
    assert enumerate_embeddings(make_bn(1), make_bn(3), budget=0).status == "inconclusive"
    # a truncated enumeration that found maps is still "found"
    assert enumerate_homomorphisms(make_bn(1), make_bn(3), limit=1).status == "found"


def _max_up(p, x):
    above = [y for y in range(p.size) if p.leq(x, y)]
    return {y for y in above if not any(z != y and p.leq(y, z) for z in range(p.size))}


def _brute_ppmorphisms(s, t):
    """Every table, in lexicographic order, that preserves the order and
    sends max up(x) onto max up(f(x))."""
    out = []
    for table in itertools.product(range(t.size), repeat=s.size):
        if all(t.leq(table[x], table[y])
               for x in range(s.size) for y in range(s.size) if s.leq(x, y)) \
                and all({table[y] for y in _max_up(s, x)} == _max_up(t, table[x])
                        for x in range(s.size)):
            out.append(table)
    return out


def test_ppmorphisms_match_brute_force():
    small = posets_up_to(3)
    pairs = [(s, t) for s in small for t in small]
    rng = random.Random(5)
    four = all_posets(4)
    pairs += [(rng.choice(four), rng.choice(four)) for _ in range(30)]
    for s, t in pairs:
        brute = _brute_ppmorphisms(s, t)
        res = enumerate_ppmorphisms(s, t)
        assert res.complete
        assert [m.table for m in res.maps] == brute, (s, t)
        surjective = [tab for tab in brute if set(tab) == set(range(t.size))]
        res = find_surjective_ppmorphism(s, t)
        assert res.status == ("found" if surjective else "none"), (s, t)
        if surjective:
            assert res.witness.table == surjective[0]


def test_reached_limit_marks_enumeration_incomplete():
    point = all_posets(1)[0]
    res = enumerate_ppmorphisms(point, point)
    assert len(res.maps) == 1 and res.complete
    res = enumerate_ppmorphisms(point, point, limit=1)
    assert len(res.maps) == 1 and not res.complete  # as enumerate_homomorphisms reports it


class TestPinnedPPEngine:
    """Status and node counts of the pp engine at the values of its first
    kernel version; the node count is the unit of every pp budget."""

    def test_steiner_union_onto_fano_runs_out(self):
        src = disjoint_union([poset_of(construct_sts(13)), poset_of(construct_sts(15))])
        res = find_surjective_ppmorphism(src, poset_of(fano_system()), budget=80_000)
        assert (res.status, res.nodes) == ("inconclusive", 80_001)

    def test_steiner_onto_fan3_runs_out(self):
        for v in (13, 15):
            res = find_surjective_ppmorphism(poset_of(construct_sts(v)), make_p1(3),
                                             budget=150_000)
            assert (res.status, res.nodes) == ("inconclusive", 150_001), v

    def test_planted_union_finds_its_witness(self):
        fano = poset_of(fano_system())
        src = disjoint_union([poset_of(construct_sts(13)), fano])
        res = find_surjective_ppmorphism(src, fano, budget=150_000)
        assert (res.status, res.nodes) == ("found", 123)
        assert res.witness.table == (0,) * 39 + tuple(range(14))
        assert validate_ppmap(res.witness).ok

    def test_membership(self):
        res = finite_membership(epsilon(paste_w(3)), [make_bn(3)])
        assert (res.status, res.summands, res.nodes) == ("yes", (0,) * 9, 631)
        assert res.witness.table == (0, 0, 0, 0, 0, 1, 2, 7, 0, 3, 4, 8, 0, 5, 6, 9, 1, 3,
                                     6, 10, 1, 4, 5, 11, 2, 3, 5, 12, 2, 4, 6, 13, 5, 6,
                                     14, 15)


def test_membership_spends_one_budget():
    """The per-point searches above take at most 391 nodes each and 631
    together: 500 covers every one of them but not their sum."""
    a, gens = epsilon(paste_w(3)), [make_bn(3)]
    assert finite_membership(a, gens, budget=631).status == "yes"
    for budget in (630, 500):
        res = finite_membership(a, gens, budget=budget)
        assert (res.status, res.witness, res.nodes) == ("inconclusive", None, budget + 1)


def _chain(k):
    return FinitePoset.from_covers(k, [(x, x + 1) for x in range(k - 1)])


@pytest.mark.parametrize("cache_bits", [duality.MAX_MASK_CACHE_BITS, 0, 200],
                         ids=["every mask", "no mask", "a few masks"])
def test_packed_pp_engine_on_dense_orders(cache_bits, monkeypatch):
    """Points related to many later points, against the list-layout
    oracle, with a budget spent part way and one that suffices; with room
    for every narrowing mask, for none and for a few (then the rest are
    built again at each node)."""
    monkeypatch.setattr(duality, "MAX_MASK_CACHE_BITS", cache_bits)
    descending = FinitePoset.from_covers(12, [(x + 1, x) for x in range(11)])
    bottom_first = FinitePoset.from_covers(10, [(0, x) for x in range(1, 10)])
    top_first = FinitePoset.from_covers(10, [(x, 0) for x in range(1, 10)])
    cases = [(_chain(12), _chain(3), 0b111), (descending, _chain(3), 0),
             (bottom_first, make_p1(3), 0b1111), (bottom_first, make_p1(3), 0),
             (top_first, _chain(3), 0),
             (disjoint_union([make_p1(10), _chain(10)]), make_p1(2), 0b100)]
    for src, dst, required in cases:
        for budget in (40, 10 ** 6):
            packed, tables = _pp_tables(src, dst)(required, budget)
            listed, oracle = pp_tables(src, dst, required, budget)
            assert list(tables) == list(oracle)
            assert (packed.nodes, packed.exhausted) == (listed.nodes, listed.exhausted)


def test_pp_search_of_a_130_point_chain_onto_itself():
    # fields of 131 bits, one per target point and a guard
    chain = _chain(130)
    for budget in (500, 50_000):
        packed, tables = _pp_tables(chain, chain)((1 << 130) - 1, budget)
        listed, oracle = pp_tables(chain, chain, (1 << 130) - 1, budget)
        assert next(tables, None) == next(oracle, None)
        assert (packed.nodes, packed.exhausted) == (listed.nodes, listed.exhausted)


def _least_covering(tables, k):
    return next((tab for tab in tables if k in tab), None)


def _relabel(p, rng):
    """``p`` with its points renumbered at random, so that maximal points
    can come after the points below them."""
    perm = list(range(p.size))
    rng.shuffle(perm)
    up = [0] * p.size
    for x in range(p.size):
        for y in range(p.size):
            if p.leq(x, y):
                up[perm[x]] |= 1 << perm[y]
    return FinitePoset(p.size, tuple(up))


def test_pp_engine_matches_brute_force_on_larger_sources():
    """Seeded, randomly numbered 5- and 6-point sources into targets of at
    most 4 points, with the single-point ``required`` masks that membership
    searches use."""
    rng = random.Random(11)
    sources = list(all_posets(5)) + list(all_posets(6))
    targets = [t for t in posets_up_to(4) if t.size]
    nodes = 0
    for _ in range(20):
        s, t = _relabel(rng.choice(sources), rng), _relabel(rng.choice(targets), rng)
        brute = _brute_ppmorphisms(s, t)
        res = enumerate_ppmorphisms(s, t)
        assert res.complete and [m.table for m in res.maps] == brute, (s, t)
        surjective = [tab for tab in brute if set(tab) == set(range(t.size))]
        res = find_surjective_ppmorphism(s, t)
        assert res.status == ("found" if surjective else "none"), (s, t)
        assert res.witness is None or res.witness.table == surjective[0]
        nodes += res.nodes
        for k in range(t.size):
            status, table, used = _pp_search(_pp_tables(s, t), 1 << k, 10_000)
            least = _least_covering(brute, k)
            assert (status, table) == (("found", least) if least else ("none", None)), (s, t, k)
            nodes += used
    assert nodes == 1007  # the search tree is pinned as well as its answers


def test_table_homs_match_brute_force():
    """Random commutative operations, neither idempotent nor lattice-like,
    pulled back along a planted surjection ``h`` so that maps exist."""
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randrange(1, 4)
        n = rng.randrange(m, 7)
        h = tuple(range(m)) + tuple(rng.randrange(m) for _ in range(n - m))
        fibre = [[x for x in range(n) if h[x] == v] for v in range(m)]
        dst = [[0] * m for _ in range(m)]
        src = [[0] * n for _ in range(n)]
        for u in range(m):
            for v in range(u + 1):
                dst[u][v] = dst[v][u] = rng.randrange(m)
        for x in range(n):
            for y in range(x + 1):
                src[x][y] = src[y][x] = rng.choice(fibre[dst[h[x]][h[y]]])
        un_d = tuple(rng.randrange(m) for _ in range(m))
        un_s = tuple(rng.choice(fibre[un_d[h[x]]]) for x in range(n))
        unary = [(un_s, un_d)] if rng.random() < 0.5 else []
        brute = [f for f in itertools.product(range(m), repeat=n)
                 if all(dst[f[x]][f[y]] == f[src[x][y]] for x in range(n) for y in range(n))
                 and all(t[f[x]] == f[s[x]] for s, t in unary for x in range(n))]
        tables, complete, _nodes = table_homs(n, unary, [(src, dst)], [], [range(m)] * n)
        assert h in brute
        assert complete and tables == brute, (src, dst, unary)
