"""The backtracking kernel and the engines built on it: deep inputs,
pinned node counts, and a brute-force route for pp-morphisms."""

import itertools
import random

from palg import (
    all_posets,
    construct_sts,
    disjoint_union,
    enumerate_embeddings,
    enumerate_homomorphisms,
    enumerate_quasigroup_homs,
    epsilon,
    fano_system,
    find_surjective_ppmorphism,
    is_isomorphic,
    make_bn,
    make_p1,
    poset_of,
    posets_up_to,
    to_quasigroup,
    validate_ppmap,
)
from palg.duality import enumerate_ppmorphisms
from palg.search import Backtrack


class TestKernel:
    def test_lexicographic_order_and_node_count(self):
        search = Backtrack(3, lambda i, f, s: range(2), lambda i, f, s: s)
        tables = [tuple(f) for f in search.solutions(0)]
        assert tables == list(itertools.product(range(2), repeat=3))
        assert search.nodes == 2 + 4 + 8 and not search.exhausted

    def test_budget_counts_every_candidate(self):
        search = Backtrack(3, lambda i, f, s: range(2), lambda i, f, s: None, budget=1)
        assert list(search.solutions(0)) == []
        assert search.nodes == 2 and search.exhausted

    def test_depth_is_not_bounded_by_recursion(self):
        search = Backtrack(5000, lambda i, f, s: (i,), lambda i, f, s: s)
        assert [list(f) for f in search.solutions(0)] == [list(range(5000))]


class TestDeepInputs:
    def test_pp_search_from_400_fans(self):
        src = disjoint_union([make_p1(2)] * 400)
        res = find_surjective_ppmorphism(src, make_p1(2))
        assert res.status == "found"
        assert validate_ppmap(res.witness).ok

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
        maps, complete = enumerate_ppmorphisms(s, t)
        assert complete
        assert [m.table for m in maps] == brute, (s, t)
        surjective = [tab for tab in brute if set(tab) == set(range(t.size))]
        res = find_surjective_ppmorphism(s, t)
        assert res.status == ("found" if surjective else "none"), (s, t)
        if surjective:
            assert res.witness.table == surjective[0]


def test_reached_limit_marks_enumeration_incomplete():
    point = all_posets(1)[0]
    maps, complete = enumerate_ppmorphisms(point, point)
    assert len(maps) == 1 and complete
    maps, complete = enumerate_ppmorphisms(point, point, limit=1)
    assert len(maps) == 1 and not complete  # as enumerate_homomorphisms reports it
