import hashlib
import itertools
import json
import random

import pytest

from palg import (
    AlgebraMap,
    FiniteAlgebra,
    FinitePoset,
    StructureError,
    enumerate_embeddings,
    enumerate_homomorphisms,
    epsilon,
    generated_subalgebra,
    is_isomorphic,
    is_subdirectly_irreducible,
    make_bn,
    product,
    trivial_algebra,
    validate_palgebra,
)
from palg.core import (
    ResourceLimitError,
    _si_by_shape,
    close,
    principal_congruence,
)
from palg.duality import posets_up_to
from scan_oracle import _scan_palgebra


def three_chain_stone():
    # 0 < e < 1 with e* = 0: the one-atom subdirectly irreducible
    meet = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    join = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    return FiniteAlgebra(3, meet, join, [2, 0, 0], 0, 2)


class TestValidate:
    def test_bn2_is_valid(self, bn):
        assert validate_palgebra(bn[2]).ok

    def test_bad_star_named_violation(self):
        # two-element Boolean algebra with star redefined as identity
        a = FiniteAlgebra(2, [[0, 0], [0, 1]], [[0, 1], [1, 1]], [0, 1], 0, 1)
        rep = validate_palgebra(a)
        assert not rep.ok
        assert any(v.law == "1* = 0" and v.witness == (1,) for v in rep.violations)

    def test_three_chain_is_b1(self):
        a = three_chain_stone()
        assert validate_palgebra(a).ok
        assert is_isomorphic(a, make_bn(1))[0]

    def test_malformed_shape_is_structural(self):
        with pytest.raises(StructureError):
            FiniteAlgebra(2, [[0, 0]], [[0, 1], [1, 1]], [1, 0], 0, 1)
        bad = FiniteAlgebra(2, [[0, 5], [0, 1]], [[0, 1], [1, 1]], [1, 0], 0, 1)
        with pytest.raises(StructureError):
            validate_palgebra(bad)

    def test_broken_lattice_laws_reported(self):
        a = FiniteAlgebra(2, [[0, 1], [0, 1]], [[0, 1], [1, 1]], [1, 0], 0, 1)
        rep = validate_palgebra(a)
        assert not rep.ok
        assert any(v.law == "meet commutative" for v in rep.violations)


def lattice(n, less, star, zero=0, one=None):
    """The algebra on ``0..n-1`` whose order is generated by the pairs
    ``less``, with meet and join read off the order by brute force."""
    le = [[x == y for y in range(n)] for x in range(n)]
    for x, y in less:
        le[x][y] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        le[i][j] = le[i][j] or (le[i][k] and le[k][j])

    def bound(x, y, below):
        common = [z for z in range(n) if (le[z][x] and le[z][y] if below else le[x][z] and le[y][z])]
        return next(z for z in common if all(le[w][z] if below else le[z][w] for w in common))
    return FiniteAlgebra(n, [[bound(x, y, True) for y in range(n)] for x in range(n)],
                         [[bound(x, y, False) for y in range(n)] for x in range(n)],
                         star, zero, n - 1 if one is None else one)


def random_poset(rng, n):
    return FinitePoset.from_covers(n, [(x, y) for x in range(n) for y in range(x + 1, n)
                                       if rng.random() < 0.3])


def mutants(seed, count):
    """Seeded one-entry changes of valid algebras: a star value, or a meet or
    join entry, half of them mirrored so that the table stays commutative."""
    rng = random.Random(seed)
    bases = [make_bn(2), make_bn(3), three_chain_stone(), product([make_bn(0), make_bn(1)])]
    bases += [epsilon(random_poset(rng, rng.randrange(2, 6))) for _ in range(6)]
    for _ in range(count):
        a = rng.choice(bases)
        n = a.size
        meet, join, star = [list(r) for r in a.meet], [list(r) for r in a.join], list(a.star)
        which = rng.randrange(3)
        x, y = rng.randrange(n), rng.randrange(n)
        if which == 2:
            star[x] = rng.choice([v for v in range(n) if v != star[x]])
        else:
            t = (meet, join)[which]
            t[x][y] = rng.choice([v for v in range(n) if v != t[x][y]])
            if rng.random() < 0.5:
                t[y][x] = t[x][y]
        yield FiniteAlgebra(n, meet, join, star, a.zero, a.one)


def verdict(a):
    """The one violation ``validate_palgebra`` reports, as ``(law, witness)``."""
    (v,) = validate_palgebra(a).violations
    return v.law, v.witness


class TestCertificate:
    """validate_palgebra decides by a bitmask certificate that reports the
    first check a table fails; the exhaustive scan is the oracle."""

    def test_upset_algebras_of_random_posets(self, scan_agrees):
        rng = random.Random(7)
        for _ in range(40):
            assert scan_agrees(epsilon(random_poset(rng, rng.randrange(1, 8)))).ok

    def test_non_distributive_lattices(self, scan_agrees):
        m3 = lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], [4, 0, 0, 0, 0])
        # N5 with its pseudocomplement: distributivity is the only law broken
        n5 = lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], [4, 3, 3, 2, 0])
        assert "distributive" in [v.law for v in scan_agrees(m3).violations]
        assert [v.law for v in scan_agrees(n5).violations] == ["distributive"]
        assert verdict(m3) == ("J(x v y) = J(x) | J(y)", (1, 2))
        assert verdict(n5) == ("J(x v y) = J(x) | J(y)", (1, 3))

    def test_wrong_star_and_swapped_bounds(self, bn, scan_agrees):
        a = bn[2]
        star = list(a.star)
        star[1] = 1
        wrong = FiniteAlgebra(a.size, a.meet, a.join, star, a.zero, a.one)
        assert [v.law for v in scan_agrees(wrong).violations] == ["x ^ (x ^ y)* = x ^ y*"]
        assert verdict(wrong) == ("x ^ (x ^ y)* = x ^ y*", (1, 3))
        swapped = FiniteAlgebra(a.size, a.meet, a.join, a.star, a.one, a.zero)
        assert [v.law for v in scan_agrees(swapped).violations] == ["0 is bottom", "1 is top"]
        assert verdict(swapped) == ("0 is bottom", (0,))

    CHAIN = [[0, 0, 0], [0, 1, 1], [0, 1, 2]], [[0, 1, 2], [1, 1, 2], [2, 2, 2]]

    # each breaks one check of the certificate and passes all the others
    @pytest.mark.parametrize("args,laws,first", [
        ((4, [[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 1, 2], [0, 1, 2, 3]],
          [[0, 1, 1, 3], [1, 1, 1, 3], [1, 1, 1, 3], [3, 3, 3, 3]], [3, 0, 0, 0], 0, 3),
         ["meet idempotent", "join idempotent", "absorption x ^ (x v y) = x",
          "absorption x v (x ^ y) = x", "distributive"], ("meet idempotent", (2,))),
        ((4, [[0, 0, 0, 0], [0, 1, 3, 1], [0, 3, 2, 2], [0, 1, 2, 3]],
          [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]], [3, 0, 0, 0], 0, 3),
         ["absorption x v (x ^ y) = x", "meet associative", "distributive"],
         ("down(x ^ y) = down(x) & down(y)", (1, 2))),
        ((3, *CHAIN, [0, 2, 1], 1, 2), ["0 is bottom"], ("0 is bottom", (0,))),
        ((3, *CHAIN, [0, 0, 0], 0, 0), ["1 is top"], ("1 is top", (1,))),
        ((2, [[0, 0], [0, 1]], [[0, 1], [1, 1]], [1, 1], 0, 1), ["1* = 0"], ("1* = 0", (1,))),
    ], ids=["idempotent", "meet-glb", "bottom", "top", "one-star"])
    def test_each_check_is_needed(self, scan_agrees, args, laws, first):
        assert [v.law for v in scan_agrees(FiniteAlgebra(*args)).violations] == laws
        assert verdict(FiniteAlgebra(*args)) == first

    def test_seeded_mutations(self, scan_agrees):
        # scan_agrees checks each witness against its check and against the scan
        scans = [scan_agrees(a) for a in mutants(2024, 300)]
        laws = [verdict(a)[0] for a in mutants(2024, 300)]
        assert not any(s.ok for s in scans)
        # the other 89 name a check that the scan does not report for that table
        assert sum(law in [v.law for v in s.violations] for s, law in zip(scans, laws)) == 211

    def test_scan_witnesses_are_pinned(self):
        # sha256 of every (law, witness) the scan reports on the mutants,
        # recorded while each 3-D law had its own chunked scan
        rows = [[[v.law, list(v.witness)] for v in _scan_palgebra(a).violations]
                for a in mutants(2024, 300)]
        assert sum(map(len, rows)) == 1032
        text = json.dumps(rows, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bc039fdf24b407c3b90e67f74caa9f7dff92de5e4f71052bedd66f7019c284c2")


class TestMakeBn:
    @pytest.mark.parametrize("n,size", [(0, 2), (1, 3), (2, 5), (3, 9), (4, 17)])
    def test_sizes(self, n, size):
        a = make_bn(n)
        assert a.size == size
        assert validate_palgebra(a).ok

    def test_n0_is_two_element_boolean(self):
        two = make_bn(0)
        assert two.star == (1, 0)
        assert two.meet[0][1] == 0 and two.join[0][1] == 1

    def test_atoms_sit_at_powers_of_two(self):
        b3 = make_bn(3)
        e = 7
        for atom in (1, 2, 4):
            assert b3.meet[atom][e] == atom
            assert b3.star[atom] == e ^ atom  # complement in the Boolean part

    def test_bound(self):
        with pytest.raises(ResourceLimitError):
            make_bn(13)


class TestProduct:
    def test_two_times_two_is_boolean_square(self):
        p = product([make_bn(0), make_bn(0)])
        assert p.size == 4
        assert validate_palgebra(p).ok
        assert is_subdirectly_irreducible(p) is False

    def test_unary_product_has_identical_tables(self, bn):
        assert product([bn[1]]) == bn[1]

    def test_mixed_product_validates(self, bn):
        p = product([bn[1], bn[2]])
        assert p.size == 15
        assert validate_palgebra(p).ok

    def test_index_order_leftmost_most_significant(self, bn):
        p = product([bn[1], bn[2]])
        # element (t0, t1) lives at t0 * 5 + t1
        assert p.one == 2 * 5 + 4
        assert p.meet[1 * 5 + 3][2 * 5 + 1] == 1 * 5 + (bn[2].meet[3][1])

    def test_associative_up_to_isomorphism(self, bn):
        triples = [(bn[0], bn[1], bn[1]), (bn[0], bn[0], bn[2])]
        for a, b, c in triples:
            left = product([product([a, b]), c])
            right = product([a, product([b, c])])
            flat = product([a, b, c])
            assert is_isomorphic(left, flat)[0]
            assert is_isomorphic(right, flat)[0]

    def test_overflow_is_resource_error(self, bn):
        with pytest.raises(ResourceLimitError):
            product([bn[4]] * 4)


class TestGeneratedSubalgebra:
    def test_atoms_generate_bn2(self, bn):
        sub, inc = generated_subalgebra(bn[2], {1, 2})
        assert sub.size == 5
        assert inc.is_embedding()

    def test_empty_generators_give_bounds(self, bn):
        sub, _ = generated_subalgebra(bn[2], set())
        assert sub.size == 2

    def test_empty_generators_on_trivial(self):
        sub, _ = generated_subalgebra(trivial_algebra(), set())
        assert sub.size == 1

    def test_output_validates_and_includes(self, bn):
        for gens in ({1}, {3}, {1, 4}):
            sub, inc = generated_subalgebra(bn[3], gens)
            assert validate_palgebra(sub).ok
            assert inc.is_embedding()

    def test_free_generator_closure_in_product(self, free1):
        # independent route to the one-generated free algebra: close the
        # separating tuple (0, e, a) inside bn0 x bn1 x bn2
        parent = product([make_bn(0), make_bn(1), make_bn(2)])
        gen = (0 * 3 + 1) * 5 + 1
        sub, _ = generated_subalgebra(parent, {gen})
        assert sub.size == 7
        assert is_isomorphic(sub, free1.algebra)[0]


class TestEmbeddings:
    def test_b1_into_b2(self, bn):
        res = enumerate_embeddings(bn[1], bn[2])
        assert res.complete
        assert [m.table for m in res.maps] == [(0, 3, 4)]

    def test_b3_into_b2_impossible(self, bn):
        res = enumerate_embeddings(bn[3], bn[2])
        assert res.complete and not res.maps

    def test_witnesses_are_embeddings(self, bn):
        for small, big in [(bn[1], bn[3]), (bn[2], bn[3])]:
            res = enumerate_embeddings(small, big)
            assert res.complete and res.maps
            for m in res.maps:
                assert m.is_embedding()

    def test_budget_reports_incomplete(self, bn):
        res = enumerate_embeddings(bn[2], bn[4], budget=3)
        assert not res.complete

    def test_homomorphisms_include_collapse(self, bn):
        # bn1 -> bn0 collapsing e to 1 is a homomorphism
        res = enumerate_homomorphisms(bn[1], bn[0])
        assert res.complete
        assert (0, 1, 1) in [m.table for m in res.maps]
        for m in res.maps:
            assert m.is_homomorphism()


class TestIsomorphism:
    def test_identity_witness(self, bn):
        ok, w = is_isomorphic(bn[2], bn[2])
        assert ok and w.table == (0, 1, 2, 3, 4)

    def test_relabelled_chain(self):
        # same 3-chain with elements listed 1 < 2 < 0
        meet = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
        join = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
        a = FiniteAlgebra(3, meet, join, [1, 0, 1], 1, 0)
        assert validate_palgebra(a).ok
        assert is_isomorphic(a, make_bn(1))[0]

    def test_size_mismatch(self, bn):
        assert is_isomorphic(bn[2], product([bn[0], bn[0]]))[0] is False

    def test_a_spent_budget_is_refused_not_answered(self, bn):
        with pytest.raises(ResourceLimitError, match="budget exhausted"):
            is_isomorphic(bn[3], bn[3], budget=1)


@pytest.mark.parametrize("table", [(0, 5, 2), (0, -1, 2)], ids=["past-size", "negative"])
def test_algebra_map_images_out_of_range_are_refused(table, bn):
    # -1 would be read from the end of each table row
    with pytest.raises(StructureError, match="map image out of range"):
        AlgebraMap(bn[1], bn[1], table)


class TestSubdirectIrreducibility:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_bn_is_si(self, n):
        assert is_subdirectly_irreducible(make_bn(n)) is True

    def test_product_is_not_si(self, bn):
        assert is_subdirectly_irreducible(product([bn[0], bn[0]])) is False

    def test_free1_is_not_si(self, free1):
        assert is_subdirectly_irreducible(free1.algebra) is False

    def test_trivial_is_not_si(self):
        assert is_subdirectly_irreducible(trivial_algebra()) is False

    def test_methods_agree_on_small_corpus(self, bn, free1):
        corpus = [bn[0], bn[1], bn[2], bn[3], product([bn[0], bn[0]]),
                  product([bn[0], bn[1]]), free1.algebra, trivial_algebra(),
                  three_chain_stone()]
        for a in corpus:
            if a.size <= 12:
                is_subdirectly_irreducible(a)  # raises on mismatch

    def test_a_disagreement_between_the_routes_raises(self, bn, monkeypatch):
        from palg import core
        monkeypatch.setattr(core, "_si_by_shape", lambda a: False)
        with pytest.raises(core.InconsistentMethodsError):
            is_subdirectly_irreducible(bn[2])

    def test_shape_test_matches_the_leq_search_on_mutants(self):
        # the shape test as it read before it ran on the order masks: a
        # cubic search over ``leq``, kept as the oracle for any tables
        def by_leq(a):
            n = a.size
            if n < 2:
                return False
            one = a.one
            below_one = [x for x in range(n) if x != one]
            covers = [x for x in below_one
                      if not any(z != x and a.leq(x, z) for z in below_one if a.leq(z, one))]
            if len(covers) != 1:
                return False
            e = covers[0]
            b = set(below_one)
            for x in below_one:
                if not a.leq(x, e):
                    return False
                for y in below_one:
                    if a.meet[x][y] not in b or a.join[x][y] not in b:
                        return False
            for x in below_one:
                comp = [y for y in below_one if a.meet[x][y] == a.zero and a.join[x][y] == e]
                if not comp:
                    return False
                if x != a.zero and a.star[x] not in comp:
                    return False
            return a.star[a.zero] == one and a.star[one] == a.zero

        bases = [make_bn(n) for n in range(4)] + [three_chain_stone(), trivial_algebra(),
                                                  product([make_bn(0), make_bn(1)])]
        valid = bases + [make_bn(5)] + [epsilon(p) for p in posets_up_to(4)]
        # every zero/one choice on the bases, zero == one included
        bounds = [FiniteAlgebra(a.size, a.meet, a.join, a.star, z, o)
                  for a in bases for z in range(a.size) for o in range(a.size)]
        cases = valid + bounds + list(mutants(3, 900))
        verdicts = [_si_by_shape(a) for a in cases]
        assert verdicts == [by_leq(a) for a in cases]
        assert len(cases) - len(valid) >= 900 and 20 < sum(verdicts) < len(cases) - 20

    def test_principal_congruence_collapse(self, bn):
        # collapsing e with 1 in bn1 merges only that pair
        cls = principal_congruence(bn[1], 1, 2)
        assert cls[1] == cls[2] and cls[0] != cls[1]


def test_thread_safety_of_shared_values(bn):
    from concurrent.futures import ThreadPoolExecutor

    def work(_):
        res = enumerate_embeddings(bn[1], bn[3])
        return tuple(m.table for m in res.maps)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, range(8)))
    assert len(set(results)) == 1


def test_join_irreducibles_are_the_elements_with_one_lower_cover(bn, free1):
    for a in [*bn.values(), free1.algebra, *(epsilon(p) for p in posets_up_to(4))]:
        def lower_covers(x):
            below = [y for y in range(a.size) if y != x and a.leq(y, x)]
            return [y for y in below if not any(z != y and a.leq(y, z) for z in below)]
        assert a.join_irreducibles == tuple(
            x for x in range(a.size) if x != a.zero and len(lower_covers(x)) == 1)


def test_close_stops_inside_the_round_that_passes_the_cap():
    def union(x):
        return x.__or__

    bits = {1 << i for i in range(20)}
    # the first round alone makes all 210 unions of at most two bits
    assert len(close(bits, (), (union,), cap=1000)) > 1000
    assert 100 < len(close(bits, (), (union,), cap=100)) <= 200
