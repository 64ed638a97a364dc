import random

import pytest

from palg import (
    Const,
    Join,
    Meet,
    ParseError,
    Quasiequation,
    Star,
    UnboundVariableError,
    Var,
    epsilon,
    eval_term,
    format_quasiequation,
    format_term,
    make_bn,
    make_ib,
    make_positive_diagram,
    make_qb,
    make_splitting_quasieq,
    parse,
    posets_up_to,
    satisfies,
    variety_satisfies,
)
from palg import logic, reports
from palg.steiner import fano_system, poset_of


class TestParse:
    def test_defining_identity(self):
        q = parse("x ^ (x ^ y)* = x ^ y*")
        assert isinstance(q, Quasiequation) and not q.premises
        x, y = Var("x"), Var("y")
        assert q.conclusion == (Meet(x, Star(Meet(x, y))), Meet(x, Star(y)))

    def test_star_of_one(self):
        q = parse("1* = 0")
        assert q.conclusion == (Star(Const(1)), Const(0))

    def test_qb3_text_parses_to_generator_output(self):
        text = "x1* = x2 v x3 & x2* = x1 v x3 & x3* = x1 v x2 => x1 v x2 v x3 = 1"
        assert parse(text) == make_qb(3)

    def test_bare_term(self):
        t = parse("x v y*")
        assert t == Join(Var("x"), Star(Var("y")))

    def test_position_in_errors(self):
        with pytest.raises(ParseError) as err:
            parse("x ^ ) y")
        assert "position" in str(err.value)

    def test_join_operator_is_not_a_variable(self):
        with pytest.raises(ParseError):
            parse("v = 1")

    def test_star_stacks(self):
        assert parse("x**") == Star(Star(Var("x")))

    def test_precedence(self):
        assert parse("x v y ^ z") == Join(Var("x"), Meet(Var("y"), Var("z")))
        assert parse("(x v y) ^ z") == Meet(Join(Var("x"), Var("y")), Var("z"))

    @pytest.mark.parametrize("seed", range(4))
    def test_print_parse_round_trip_on_random_asts(self, seed):
        rng = random.Random(seed)
        names = ["x", "y1", "z_2"]

        def rand_term(depth):
            roll = rng.randrange(8 if depth else 3)
            if roll == 0:
                return Var(rng.choice(names))
            if roll == 1:
                return Const(rng.randrange(2))
            if roll == 2:
                return Star(rand_term(depth - 1)) if depth else Var(rng.choice(names))
            if roll < 6:
                return Meet(rand_term(depth - 1), rand_term(depth - 1))
            return Join(rand_term(depth - 1), rand_term(depth - 1))

        for _ in range(50):
            t = rand_term(4)
            assert parse(format_term(t)) == t
        for _ in range(50):
            q = Quasiequation(
                tuple((rand_term(2), rand_term(2)) for _ in range(rng.randrange(3))),
                (rand_term(3), rand_term(3)))
            assert parse(format_quasiequation(q)) == q


class TestEval:
    def test_join_with_star_on_chain(self, bn):
        # on the 3-chain, e v e* = e v 0 = e
        assert eval_term(parse("x v x*"), bn[1], {"x": 1}) == 1

    def test_star_of_zero_is_one(self, bn):
        for a in (bn[0], bn[2], bn[3]):
            assert eval_term(parse("0*"), a, {}) == a.one

    def test_atom_star_is_other_atom(self, bn):
        assert eval_term(parse("x*"), bn[2], {"x": 1}) == 2

    def test_unbound_variable(self, bn):
        with pytest.raises(UnboundVariableError):
            eval_term(parse("x ^ y"), bn[1], {"x": 0})


def _eps_fano():
    return epsilon(poset_of(fano_system()))


# the engine each sweep runs on, and its status, least falsifier and
# valuation count.  The pins pick the engine: the grid runs only when
# n^k <= budget and an unpinned tail of at least logic._GRID_MIN
# valuations follows the last pinned variable
PINNED_SWEEPS = [
    ("eps_w4-qb3", reports.eps_w4, make_qb(3), 50_000_000, "_sweep_backtrack",
     "falsified", {"x1": 457, "x2": 458, "x3": 916}, 1_019_405),
    ("b5-qb4", lambda: make_bn(5), make_qb(4), 33 ** 4 - 1, "_sweep_backtrack",
     "falsified", {"x1": 1, "x2": 2, "x3": 4, "x4": 24}, 2_112),
    ("eps_fano-qb3", _eps_fano, make_qb(3), 50_000_000, "_sweep_backtrack",
     "satisfied", None, 224_656),
    # x2 is pinned by x2 = x1*, so no unpinned tail is left for a grid
    ("eps_fano-qb2", _eps_fano, make_qb(2), 50_000_000, "_sweep_backtrack",
     "falsified", {"x1": 1, "x2": 449}, 4),
    # the positive diagram pins every variable
    ("b5-split1", lambda: make_bn(5), make_splitting_quasieq(1), 50_000_000,
     "_sweep_backtrack", "falsified", {"x0": 0, "x1": 31, "x2": 32}, 3),
    # nothing is pinned: the grid fills all 33^3 valuations
    ("b5-distributive", lambda: make_bn(5), parse("x ^ (y v z) = (x ^ y) v (x ^ z)"),
     50_000_000, "_sweep_grid", "satisfied", None, 35_937),
    # y has two pins; the first one, y* = x ^ x*, sets the count
    ("b4-first-pin", lambda: make_bn(4), parse("x ^ y = 0 & y* = x ^ x* & y = x* => y = x*"),
     17 ** 2 - 1, "_sweep_backtrack", "satisfied", None, 51),
    # B_6 has 65 elements, so the grid spans 2 variables and 2 lead
    # variables are searched; y* = x pins the lead variable x
    ("b6-grid-lead-pin", lambda: make_bn(6), parse("y* = x & w v z = y => x ^ z = x ^ w"),
     50_000_000, "_sweep_grid", "satisfied", None, 274_625),
    ("b6-grid-lead-pin-falsified", lambda: make_bn(6),
     parse("y* = x & z ^ w = y => z v w = z"), 50_000_000, "_sweep_grid",
     "falsified", {"y": 0, "x": 64, "z": 0, "w": 1}, 4_225),
]


@pytest.mark.parametrize("build, q, budget, engine, status, falsifier, checked",
                         [case[1:] for case in PINNED_SWEEPS],
                         ids=[case[0] for case in PINNED_SWEEPS])
def test_sweep_counts_are_pinned(monkeypatch, build, q, budget, engine, status,
                                 falsifier, checked):
    ran = []
    for name in ("_sweep_grid", "_sweep_backtrack"):
        real = getattr(logic, name)
        monkeypatch.setattr(logic, name,
                            lambda *args, name=name, real=real: ran.append(name) or real(*args))
    res = satisfies(build(), q, budget=budget)
    assert (ran, res.status, res.falsifier, res.checked) == ([engine], status, falsifier, checked)


class TestSatisfies:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bn_falsifies_qbn_at_the_atoms(self, n):
        res = satisfies(make_bn(n), make_qb(n))
        assert res.status == "falsified"
        assert res.falsifier == {f"x{i+1}": 1 << i for i in range(n)}

    def test_two_satisfies_qb1(self, bn):
        assert satisfies(bn[0], make_qb(1)).status == "satisfied"

    def test_budget_inconclusive(self, eps_w4):
        res = satisfies(eps_w4, make_qb(3), budget=50)
        assert res.status == "inconclusive"

    def test_ground_quasiequation(self, bn):
        assert bool(satisfies(bn[2], parse("1 = 1 => 0* = 1")))
        assert not bool(satisfies(bn[2], parse("1 = 1 => 1 = 0")))
        # an unsatisfiable ground premise makes the implication hold
        assert bool(satisfies(bn[2], parse("0 = 1 => 1 = 0")))

    def test_backtracking_and_grid_engines_agree(self, bn):
        from palg.logic import _compile, _sweep_backtrack, _sweep_grid, variables_of
        qs = [make_qb(2), make_ib(1), make_splitting_quasieq(1),
              parse("x* v x** = 1"), parse("x ^ y = 0 => x ^ y* = x")]
        for a in (bn[1], bn[2], epsilon(posets_up_to(3)[-1])):
            for q in qs:
                names = variables_of(q)
                prog = _compile(q, names)
                r1 = _sweep_backtrack(a, names, prog, 10 ** 7)
                r2 = _sweep_grid(a, names, prog)
                assert r1.status == r2.status
                assert r1.falsifier == r2.falsifier


class TestMakeQb:
    def test_qb1_shape(self):
        assert format_quasiequation(make_qb(1)) == "x1* = 0 => x1 = 1"

    def test_qb2_shape(self):
        q = make_qb(2)
        x1, x2 = Var("x1"), Var("x2")
        assert q.premises == ((Star(x1), x2), (Star(x2), x1))
        assert q.conclusion == (Join(x1, x2), Const(1))

    def test_qb3_premise_count(self):
        assert len(make_qb(3).premises) == 3


class TestMakeIb:
    @pytest.mark.parametrize("m,sat,falsified_by", [
        (1, 1, 2),
        (2, 2, 3),
        (3, 3, 4),
    ])
    def test_chain_boundary(self, m, sat, falsified_by):
        ib = make_ib(m)
        assert bool(satisfies(make_bn(sat), ib))
        assert not bool(satisfies(make_bn(falsified_by), ib))

    def test_identity_has_no_premises(self):
        assert make_ib(2).premises == ()


class TestDiagrams:
    def test_two_element_diagram_facts(self, bn):
        prem = make_positive_diagram(bn[0])
        x0, x1 = Var("x0"), Var("x1")
        assert (x0, Const(0)) in prem
        assert (x1, Const(1)) in prem
        assert (Meet(x0, x1), x0) in prem
        assert (Star(x0), x1) in prem

    def test_diagram_sizes(self, bn):
        assert len(make_positive_diagram(bn[1])) == 9 + 9 + 3 + 2
        assert len(make_positive_diagram(bn[2])) == 25 + 25 + 5 + 2

    def test_splitting_m1_falsified_by_b1_satisfied_by_two(self, bn):
        q = make_splitting_quasieq(1)
        res = satisfies(bn[1], q)
        assert res.status == "falsified"
        # the identity valuation is the least falsifier
        assert res.falsifier == {"x0": 0, "x1": 1, "x2": 2}
        assert bool(satisfies(bn[0], q))

    def test_splitting_m2_falsified_by_eps_w4(self, eps_w4):
        assert satisfies(eps_w4, make_splitting_quasieq(2)).status == "falsified"


class TestVarietySatisfies:
    def test_defining_identity_holds(self):
        assert bool(variety_satisfies(parse("x ^ (x ^ y)* = x ^ y*")))

    def test_qb3_fails_in_the_variety(self):
        res = variety_satisfies(make_qb(3))
        assert res.status == "falsified"
        assert res.counterexample_atoms == 3

    def test_ib1_fails_in_the_variety(self):
        res = variety_satisfies(make_ib(1))
        assert res.status == "falsified"
        assert res.counterexample_atoms == 2

    def test_past_the_largest_algebra_built_is_inconclusive(self, monkeypatch):
        # four variables call for B_0..B_16, past the 12-atom bound; with the
        # bound lowered to 3 atoms, B_4 would raise if it were built
        from palg import core
        monkeypatch.setattr(core, "MAX_BN_ATOMS", 3)
        monkeypatch.setattr(logic, "MAX_BN_ATOMS", 3)
        commuted = parse("x1 ^ x2 ^ x3 ^ x4 = x4 ^ x3 ^ x2 ^ x1")
        assert variety_satisfies(commuted, budget=1000).status == "inconclusive"
        # the Stone law, which B_2 breaks, in four variables
        stone = variety_satisfies(parse("x1* v x1** v (x2 ^ x3 ^ x4 ^ 0) = 1"), budget=1000)
        assert (stone.status, stone.counterexample_atoms) == ("falsified", 2)


def test_qb1_models_are_boolean_and_qb2_models_are_stone():
    double_negation = parse("x** = x")
    stone = parse("x* v x** = 1")
    for p in posets_up_to(4):
        a = epsilon(p)
        if bool(satisfies(a, make_qb(1))):
            assert bool(satisfies(a, double_negation))
        if bool(satisfies(a, make_qb(2))):
            assert bool(satisfies(a, stone))
