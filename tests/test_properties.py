"""Seeded randomized cross-checks between independent code paths."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from palg import (
    Const,
    Join,
    Meet,
    Quasiequation,
    Star,
    Var,
    all_posets,
    delta,
    enumerate_embeddings,
    epsilon,
    find_surjective_ppmorphism,
    generated_subalgebra,
    is_isomorphic,
    make_bn,
    posets_isomorphic,
    posets_up_to,
    product,
    satisfies,
    validate_palgebra,
    variety_satisfies,
)
from palg import logic
from palg.core import StructureError
from palg.duality import FinitePoset, _pp_tables, enumerate_ppmorphisms, validate_poset
from palg.free import _random_term
from palg.logic import ONE, ZERO, _compile, _sweep_backtrack, _sweep_grid, variables_of
from palg.serialize import algebra_from_dict, algebra_to_dict
from pp_oracle import walks_the_oracles_tree


def random_algebra(rng):
    """A valid algebra by construction: an upset algebra, a product of
    two of them, or a generated subalgebra of such."""
    pool = all_posets(rng.randrange(1, 5))
    kind = rng.randrange(3)
    a = epsilon(rng.choice(pool))
    if kind == 1:
        a = product([a, epsilon(rng.choice(all_posets(rng.randrange(1, 4))))])
    elif kind == 2 and a.size > 2:
        gens = {rng.randrange(a.size) for _ in range(2)}
        a = generated_subalgebra(a, gens)[0]
    return a


def random_quasiequation(rng, names):
    premises = tuple((_random_term(rng, names, rng.randrange(3)),
                      _random_term(rng, names, rng.randrange(3)))
                     for _ in range(rng.randrange(3)))
    return Quasiequation(premises, (_random_term(rng, names, rng.randrange(1, 4)),
                                    _random_term(rng, names, rng.randrange(1, 4))))


@pytest.mark.parametrize("seed", range(3))
def test_sweep_engines_agree_on_random_inputs(seed):
    rng = random.Random(seed)
    for _ in range(40):
        a = random_algebra(rng)
        q = random_quasiequation(rng, ["x", "y"][: rng.randrange(1, 3)])
        names = variables_of(q)
        prog = _compile(q, names)
        r1 = _sweep_backtrack(a, names, prog, 10 ** 7)
        r2 = _sweep_grid(a, names, prog)
        assert (r1.status, r1.falsifier) == (r2.status, r2.falsifier), (a, q)


def table_eval(t, a, val):
    """Structural evaluation through the tables, kept apart from palg's."""
    if isinstance(t, Var):
        return val[t.name]
    if isinstance(t, Const):
        return a.one if t.value else a.zero
    if isinstance(t, Star):
        return a.star[table_eval(t.arg, a, val)]
    table = a.meet if isinstance(t, Meet) else a.join
    return table[table_eval(t.left, a, val)][table_eval(t.right, a, val)]


def least_falsifier(a, q, names):
    """The first valuation in (variable order, element index) order that
    satisfies every premise and breaks the conclusion, or None."""
    for values in itertools.product(range(a.size), repeat=len(names)):
        val = dict(zip(names, values))
        if (all(table_eval(l, a, val) == table_eval(r, a, val) for l, r in q.premises)
                and table_eval(q.conclusion[0], a, val) != table_eval(q.conclusion[1], a, val)):
            return val
    return None


def random_pinning_quasiequation(rng, names):
    """Premises mix free equations, ground ones (true or false) and the
    shapes ``x = t``, ``x* = t``, ``t = x*`` that the backtrack sweep pins."""
    premises = []
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(4)
        if kind == 0:
            premises.append((_random_term(rng, names, 2), _random_term(rng, names, 2)))
        elif kind == 1:
            premises.append((rng.choice([ZERO, ONE, Star(ZERO)]), rng.choice([ZERO, ONE, Star(ONE)])))
        else:
            x = rng.choice(names)
            mine = Star(Var(x)) if kind == 3 else Var(x)
            others = [y for y in names if y != x]
            other = (_random_term(rng, others, rng.randrange(3)) if others
                     else rng.choice([ZERO, ONE]))
            premises.append((mine, other) if rng.randrange(2) else (other, mine))
    return Quasiequation(tuple(premises), (_random_term(rng, names, rng.randrange(1, 4)),
                                           _random_term(rng, names, rng.randrange(1, 4))))


@pytest.mark.parametrize("seed", range(3))
def test_sweep_engines_match_a_brute_force_oracle(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        a = random_algebra(rng)
        # as many variables, up to three, as keep the brute force small
        k = next(j for j in (3, 2, 1) if a.size ** j <= 3000 or j == 1)
        q = random_pinning_quasiequation(rng, ["x", "y", "z"][:k])
        names = variables_of(q)
        expected = least_falsifier(a, q, names)
        prog = _compile(q, names)
        for engine, budget in ((_sweep_backtrack, (10 ** 7,)), (_sweep_grid, ())):
            res = engine(a, names, prog, *budget)
            assert res.status == ("satisfied" if expected is None else "falsified"), (a, q)
            assert res.falsifier == expected, (engine, a, q)


@pytest.mark.parametrize("grid_min", [1, logic._GRID_MIN])
@pytest.mark.parametrize("seed", range(3))
def test_satisfies_matches_a_brute_force_oracle_at_any_budget(monkeypatch, seed, grid_min):
    # at grid_min 1 every space within the budget goes to the grid, pinned
    # variables in its lead; at the default the oracle's small spaces
    # go to the level search
    monkeypatch.setattr(logic, "_GRID_MIN", grid_min)
    rng = random.Random(200 + seed)
    for _ in range(40):
        a = random_algebra(rng)
        k = next(j for j in (3, 2, 1) if a.size ** j <= 3000 or j == 1)
        q = random_pinning_quasiequation(rng, ["x", "y", "z"][:k])
        names = variables_of(q)
        expected = least_falsifier(a, q, names)
        space = a.size ** len(names)
        for budget in (rng.randrange(space), space, 10 ** 7):
            res = satisfies(a, q, budget=budget)
            if res.status == "inconclusive":
                assert budget < space, (budget, a, q)
                continue
            assert res.status == ("satisfied" if expected is None else "falsified"), (a, q)
            assert res.falsifier == expected, (budget, a, q)


def test_random_algebras_validate():
    rng = random.Random(4)
    for _ in range(60):
        assert validate_palgebra(random_algebra(rng)).ok


def test_corpus_falsification_implies_variety_falsification():
    rng = random.Random(9)
    for _ in range(30):
        q = random_quasiequation(rng, ["x", "y"])
        a = random_algebra(rng)
        if satisfies(a, q).status == "falsified":
            assert variety_satisfies(q).status == "falsified"


def test_surjective_search_matches_full_enumeration():
    rng = random.Random(13)
    pool = posets_up_to(4)
    for _ in range(60):
        s, t = rng.choice(pool), rng.choice(pool)
        enum = enumerate_ppmorphisms(s, t)
        assert enum.complete
        any_surjective = any(m.is_surjective() for m in enum.maps)
        res = find_surjective_ppmorphism(s, t)
        assert (res.status == "found") == any_surjective, (s, t)
        if res.status == "found":
            surjective_tables = sorted(m.table for m in enum.maps if m.is_surjective())
            assert res.witness.table == surjective_tables[0]  # least witness


def test_isomorphism_is_symmetric_and_respects_relabeling():
    rng = random.Random(21)
    for _ in range(25):
        a = random_algebra(rng)
        perm = list(range(a.size))
        rng.shuffle(perm)
        inv = [0] * a.size
        for i, p in enumerate(perm):
            inv[p] = i
        from palg import FiniteAlgebra
        b = FiniteAlgebra(
            a.size,
            [[perm[a.meet[inv[x]][inv[y]]] for y in range(a.size)] for x in range(a.size)],
            [[perm[a.join[inv[x]][inv[y]]] for y in range(a.size)] for x in range(a.size)],
            [perm[a.star[inv[x]]] for x in range(a.size)],
            perm[a.zero], perm[a.one])
        assert is_isomorphic(a, b)[0]
        assert is_isomorphic(b, a)[0]


def test_embedding_transitivity_on_chain():
    # bn1 -> bn2 -> bn3 embeddings compose to a bn1 -> bn3 embedding
    e12 = enumerate_embeddings(make_bn(1), make_bn(2), limit=1).maps[0]
    e23 = enumerate_embeddings(make_bn(2), make_bn(3), limit=1).maps[0]
    composed = tuple(e23.table[v] for v in e12.table)
    from palg import AlgebraMap
    assert AlgebraMap(make_bn(1), make_bn(3), composed).is_embedding()


def test_delta_epsilon_preserve_isomorphism():
    rng = random.Random(31)
    pool = all_posets(4)
    for _ in range(15):
        p = rng.choice(pool)
        perm = list(range(p.size))
        rng.shuffle(perm)
        from palg import FinitePoset
        q = FinitePoset(p.size, tuple(
            sum(1 << y for y in range(p.size) if p.leq(perm.index(x), perm.index(y)))
            for x in range(p.size)))
        assert posets_isomorphic(p, q)
        assert is_isomorphic(epsilon(p), epsilon(q))[0]


def test_serialization_survives_randomized_corpus():
    rng = random.Random(43)
    for _ in range(20):
        a = random_algebra(rng)
        assert algebra_from_dict(algebra_to_dict(a)) == a


def test_membership_in_own_quasivariety():
    from palg import finite_membership
    rng = random.Random(47)
    for _ in range(10):
        a = random_algebra(rng)
        res = finite_membership(a, [a])
        assert res.status == "yes"
        # the witness surjects the dual onto itself
        assert res.witness.is_surjective()


def test_subalgebra_membership_is_monotone():
    # a generated subalgebra stays in the quasivariety of its parent
    from palg import finite_membership
    rng = random.Random(53)
    for _ in range(10):
        parent = random_algebra(rng)
        if parent.size < 3:
            continue
        sub, _ = generated_subalgebra(parent, {rng.randrange(parent.size)})
        assert finite_membership(sub, [parent]).status == "yes"


def test_delta_of_product_is_union_of_duals(bn):
    p = product([bn[1], bn[2]])
    dp, _ = delta(p)
    from palg import disjoint_union
    expected = disjoint_union([delta(bn[1])[0], delta(bn[2])[0]])
    assert posets_isomorphic(dp, expected)


@st.composite
def cover_lists(draw):
    """A point count up to 10 and a list of pairs over it, self-loops and
    duplicates included; about half the lists are oriented upward, so
    that acyclic lists with many pairs are drawn as often as cyclic ones."""
    n = draw(st.integers(0, 10))
    if not n:
        return 0, []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    if draw(st.booleans()):
        pairs = [(min(pair), max(pair)) for pair in pairs]
    return n, pairs


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(cover_lists())
def test_from_covers_closes_or_refuses_a_cycle(case):
    """``from_covers`` refuses exactly the cover lists with a cycle through
    two distinct points, and otherwise returns the reflexive-transitive
    closure, which ``validate_poset`` accepts; so a loaded poset file needs
    no second check."""
    n, pairs = case
    reach = [[x == y for y in range(n)] for x in range(n)]
    for lo, hi in pairs:
        reach[lo][hi] = True
    for k in range(n):  # Warshall
        for i in range(n):
            if reach[i][k]:
                reach[i] = [r or s for r, s in zip(reach[i], reach[k])]
    if any(reach[x][y] and reach[y][x] for x in range(n) for y in range(x)):
        with pytest.raises(StructureError, match="cyclic"):
            FinitePoset.from_covers(n, pairs)
        return
    p = FinitePoset.from_covers(n, pairs)
    assert p.up == tuple(sum(1 << y for y in range(n) if reach[x][y]) for x in range(n))
    assert validate_poset(p).ok


@st.composite
def pp_cases(draw):
    """A source of at most 7 points onto a target of at most 6, each an
    order on randomly numbered points, with a ``required`` target mask and
    a budget that often runs out."""
    def order(n):
        if not n:
            return FinitePoset(0, ())
        perm = draw(st.permutations(range(n)))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
        return FinitePoset.from_covers(n, [(perm[min(p)], perm[max(p)]) for p in pairs])
    src, dst = order(draw(st.integers(0, 7))), order(draw(st.integers(0, 6)))
    required = draw(st.integers(0, (1 << dst.size) - 1))
    budget = draw(st.one_of(st.integers(0, 60), st.just(10 ** 6)))
    return src, dst, required, budget


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(pp_cases())
def test_packed_pp_engine_walks_the_list_engines_tree(case):
    """The packed-domain engine against the list-layout oracle: the same
    first table at the same node count (what ``_pp_search`` reads), then
    the same tables, nodes and budget verdict."""
    src, dst, required, budget = case
    walks_the_oracles_tree(_pp_tables(src, dst), src, dst, required, budget)
