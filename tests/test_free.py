import random
import time

import pytest

from palg import (
    COVER_POSETS,
    build_free,
    check_free_qb3,
    check_special_structural,
    check_under_each,
    cover_fixture_checks,
    delta,
    enumerate_homomorphisms,
    epsilon,
    is_isomorphic,
    make_bn,
    make_ib,
    make_p1,
    make_qb,
    random_special_quasiequation,
    satisfies,
    validate_palgebra,
    validate_poset,
)
from palg.core import ResourceLimitError


class TestBuildFree:
    def test_one_generator_free_algebra(self, free1):
        assert free1.algebra.size == 7
        assert validate_palgebra(free1.algebra).ok
        assert len(free1.generators) == 1

    def test_free_stone_on_one_generator(self):
        res = build_free(1, 1)
        assert res.algebra.size == 6
        assert bool(satisfies(res.algebra, make_ib(1)))

    def test_stabilization_at_m_two(self, free1):
        f3 = build_free(3, 1)
        assert f3.algebra.size == 7
        assert is_isomorphic(f3.algebra, free1.algebra)[0]

    def test_two_generators_at_m3(self, free32):
        assert free32.algebra.size == 625
        poset, _ = delta(free32.algebra)
        assert bin(poset.maximal_mask).count("1") == 4

    def test_generators_generate(self, free1):
        from palg import generated_subalgebra
        sub, _ = generated_subalgebra(free1.algebra, set(free1.generators))
        assert sub.size == free1.algebra.size

    def test_built_algebras_satisfy_their_identity(self, free1):
        assert bool(satisfies(free1.algebra, make_ib(2)))
        assert bool(satisfies(build_free(1, 1).algebra, make_ib(1)))

    @pytest.mark.parametrize("m,k,message", [
        # one closure round would collect about a million elements
        (1, 7, "closure passed"),
        # the ambient product alone has 20 195 coordinates
        (9, 9, "product passes"),
        # 2^k coordinates, too many to print
        (1, 10 ** 8, "product passes"),
    ])
    def test_caps_act_before_the_work(self, m, k, message):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=message):
            build_free(m, k)
        assert time.perf_counter() - start < 2.0


class TestUniversalProperty:
    def test_unique_extension_per_generator_image(self, free1):
        gen = free1.generators[0]
        for n in (0, 1, 2, 3):
            target = make_bn(n)
            homs = enumerate_homomorphisms(free1.algebra, target)
            assert homs.complete
            images = [h.table[gen] for h in homs.maps]
            assert sorted(images) == list(range(target.size))


class TestUnderEach:
    def test_m2_k1_all_clauses(self, free1):
        rep = check_under_each(free1, 2, 1)
        assert rep.ok
        assert rep.max_points == 2
        assert rep.full_preimage_is_unique_bottom is True
        assert rep.top_join_irreducible is True
        assert rep.stabilizes is True

    def test_stabilization_rebuilds_only_past_2_to_the_k(self, free1, monkeypatch):
        import palg.free as free
        calls = []
        for name in ("build_free", "is_isomorphic"):
            real = getattr(free, name)
            monkeypatch.setattr(free, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        # at m = 2^k the target of the comparison is f itself
        assert check_under_each(free1, 2, 1).stabilizes is True
        assert calls == []
        assert check_under_each(build_free(3, 1), 3, 1).stabilizes is True
        assert calls == ["build_free", "is_isomorphic"]

    def test_m1_k1_guarded(self):
        rep = check_under_each(build_free(1, 1), 1, 1)
        assert rep.ok
        assert rep.max_points == 2
        assert rep.full_preimage_is_unique_bottom is None

    def test_m3_k2_guarded(self, free32):
        rep = check_under_each(free32, 3, 2)
        assert rep.ok
        assert rep.max_points == 4
        assert not rep.missing_max_up_sets
        assert rep.full_preimage_is_unique_bottom is None


class TestFreeQb3:
    def test_m3_k2(self, free32):
        rep = check_free_qb3(3, 2, built=free32)
        assert rep.status == "satisfied"
        assert rep.pp_search_status == "none"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_free_qb3(2, 2)
        with pytest.raises(ValueError):
            check_free_qb3(3, 1)

    def test_checks_spend_each_engines_own_budget(self, monkeypatch, free32):
        import inspect

        import palg.free as free
        from palg.core import DEFAULT_SEARCH_BUDGET, DEFAULT_SWEEP_BUDGET
        expected = {"satisfies": DEFAULT_SWEEP_BUDGET,
                    "variety_satisfies": DEFAULT_SWEEP_BUDGET,
                    "find_surjective_ppmorphism": DEFAULT_SEARCH_BUDGET}
        spent = []
        for name in expected:
            real = getattr(free, name)

            def record(*args, name=name, real=real, **kwargs):
                call = inspect.signature(real).bind(*args, **kwargs)
                call.apply_defaults()
                spent.append((name, call.arguments["budget"]))
                return real(*args, **kwargs)
            monkeypatch.setattr(free, name, record)
        rep = check_free_qb3(3, 2, built=free32)
        check_special_structural(1, 5)
        assert {name for name, _ in spent} == set(expected)
        assert all(budget == expected[name] for name, budget in spent), spent
        # 625^3 valuations pass the sweep budget, so the level search decides qb_3
        assert rep.sweep.checked == 395_969

    def test_sanity_negative_eps_fan3_fails_qb3(self):
        assert satisfies(epsilon(make_p1(3)), make_qb(3)).status == "falsified"


class TestSpecialStructural:
    def test_quick_trials_agree(self):
        rep = check_special_structural(1, 40, seed=5)
        assert rep.ok and not rep.skipped

    def test_generator_shape(self):
        rng = random.Random(0)
        for _ in range(20):
            q = random_special_quasiequation(rng, 1)
            assert q.conclusion[1].value == 1
            assert all(rhs.value == 1 for _, rhs in q.premises)

    def test_named_instances(self, free1):
        from palg import parse, variety_satisfies
        phi = parse("x v x* = 1 => x = 1")
        assert satisfies(free1.algebra, phi).status == "falsified"
        assert variety_satisfies(phi).status == "falsified"
        stone = parse("x* v x** = 1")
        assert satisfies(free1.algebra, stone).status == "falsified"
        assert variety_satisfies(stone).status == "falsified"
        trivial_truth = parse("1 = 1 => 0* = 1")
        assert bool(satisfies(free1.algebra, trivial_truth))
        assert bool(variety_satisfies(trivial_truth))


@pytest.mark.expensive
class TestTwoGeneratorTier:
    def test_free_p_algebra_on_two_generators(self):
        res = build_free(4, 2)
        assert res.algebra.size == 626
        rep = check_under_each(res, 4, 2)
        assert rep.ok
        assert rep.top_join_irreducible is True

    def test_qb3_at_m4(self):
        assert check_free_qb3(4, 2).status == "satisfied"

    def test_structural_sample_two_variables(self):
        rep = check_special_structural(2, 25, seed=3)
        assert rep.ok


class TestCoverFixtures:
    def test_posets_validate(self):
        for p in COVER_POSETS:
            assert validate_poset(p).ok
        assert [p.size for p in COVER_POSETS] == [5, 6, 7]

    def test_report_values_are_stable(self):
        rep = cover_fixture_checks()
        assert rep.valid == (True, True, True)
        assert rep.qb3 == (True, True, True)
        assert rep.ib2 == (False, False, False)
        assert rep.bn2_embeds == (True, True, True)
        assert rep.consistent
        assert rep.algebra_sizes == cover_fixture_checks().algebra_sizes

    def test_an_inconclusive_search_fails_its_stability_clause(self, monkeypatch):
        # a search that ran out of budget is no verdict, not a disproof
        from palg import free, reports
        from palg.core import EnumerationResult
        from palg.logic import SatisfactionResult

        def passed():
            return {c["id"]: c["passed"] for c in reports.run_covers()["clauses"]}

        monkeypatch.setattr(free, "satisfies", lambda *a, **k: SatisfactionResult("inconclusive"))
        assert cover_fixture_checks().ib2 == (None, None, None)
        clauses = passed()
        assert not clauses["ib2 verdicts stable"] and not clauses["qb3 verdicts stable"]
        monkeypatch.undo()
        monkeypatch.setattr(free, "enumerate_embeddings",
                            lambda *a, **k: EnumerationResult((), False, 1))
        assert cover_fixture_checks().bn2_embeds == (None, None, None)
        clauses = passed()
        assert not clauses["bn2 embeds in each"] and not clauses["qb3 agrees with embedding route"]
