import pytest

from palg import (
    StructureError,
    SteinerQuasigroup,
    SteinerSystem,
    collapse_pasting,
    construct_sts,
    delta,
    disjoint_union,
    enumerate_quasigroup_homs,
    epsilon,
    fano_system,
    find_surjective_ppmorphism,
    from_quasigroup,
    is_planar,
    make_bn,
    make_p1,
    max_up,
    paste_w,
    poset_of,
    posets_isomorphic,
    to_quasigroup,
    validate_poset,
    validate_ppmap,
    validate_quasigroup,
    validate_steiner,
)
from palg.duality import enumerate_ppmorphisms


class TestConstruct:
    @pytest.mark.parametrize("v,blocks", [(7, 7), (9, 12), (13, 26), (15, 35), (19, 57)])
    def test_block_counts_and_validity(self, v, blocks):
        s = construct_sts(v)
        assert len(s.blocks) == blocks
        assert validate_steiner(s).ok

    @pytest.mark.parametrize("v", [5, 8, 11, 6])
    def test_bad_orders_rejected(self, v):
        with pytest.raises(ValueError):
            construct_sts(v)

    def test_small_system_buildable_by_hand(self):
        s = SteinerSystem(3, [(0, 1, 2)])
        assert validate_steiner(s).ok

    def test_non_integers_are_refused_not_truncated(self):
        # int() would turn these into a valid system and a table the caller never gave
        with pytest.raises(TypeError):
            SteinerSystem(3, [(0.9, 1, 2)])
        with pytest.raises(TypeError):
            SteinerQuasigroup(2, [[0, 1.7], [1, 1]])

    @pytest.mark.parametrize("mult", [
        [[0, 5, 1], [5, 1, 0], [1, 0, 2]],
        [[0, -1, 1], [-1, 1, 0], [1, 0, 2]],  # -1 would be read from the end of a row
    ], ids=["past-order", "negative"])
    def test_table_entries_out_of_range_are_refused(self, mult):
        with pytest.raises(StructureError, match="entry out of range"):
            SteinerQuasigroup(3, mult)


class TestQuasigroup:
    def test_first_fano_block_multiplication(self):
        s = fano_system()
        assert s.blocks[0] == (0, 1, 2)
        q = to_quasigroup(s)
        assert q.mult[0][1] == 2

    def test_idempotent(self):
        q = to_quasigroup(construct_sts(9))
        assert all(q.mult[x][x] == x for x in range(9))
        assert validate_quasigroup(q).ok

    @pytest.mark.parametrize("v", [7, 9, 13])
    def test_round_trip(self, v):
        s = construct_sts(v)
        assert from_quasigroup(to_quasigroup(s)) == s

    def test_validate_catches_broken_table(self):
        q = SteinerQuasigroup(3, [[0, 2, 1], [2, 1, 0], [1, 0, 0]])
        assert not validate_quasigroup(q).ok


class TestPlanarity:
    def test_fano_is_planar(self):
        assert is_planar(to_quasigroup(fano_system()))

    def test_order_13_is_planar(self):
        assert is_planar(to_quasigroup(construct_sts(13)))

    def test_order_3_is_too_small(self):
        q = to_quasigroup(SteinerSystem(3, [(0, 1, 2)]))
        assert not is_planar(q)

    def test_order_9_reported_not_asserted(self):
        # 9 is the excluded simplicity order; record the verdict only
        is_planar(to_quasigroup(construct_sts(9)))


class TestHomEnumeration:
    def test_fano_endomorphisms(self):
        q7 = to_quasigroup(fano_system())
        res = enumerate_quasigroup_homs(q7, q7)
        assert res.complete
        assert len(res.maps) == 175  # 7 constants + 168 automorphisms
        constants = [h for h in res.maps if h.is_constant()]
        assert len(constants) == 7
        assert any(not h.is_constant() for h in res.maps)

    def test_cross_homs_are_constant(self):
        q7 = to_quasigroup(fano_system())
        q13 = to_quasigroup(construct_sts(13))
        up = enumerate_quasigroup_homs(q7, q13)
        assert up.complete and len(up.maps) == 13
        assert all(h.is_constant() for h in up.maps)
        down = enumerate_quasigroup_homs(q13, q7)
        assert down.complete and len(down.maps) == 7
        assert all(h.is_constant() for h in down.maps)

    def test_budget_marks_incomplete(self):
        q13 = to_quasigroup(construct_sts(13))
        res = enumerate_quasigroup_homs(q13, q13, budget=10)
        assert not res.complete


class TestPPRoute:
    """A pp-morphism P(S) -> P(T) is a quasigroup homomorphism on the
    points (a block goes to a point or to the block of its images), and
    points precede blocks in both posets, so the pp enumeration restricted
    to the points lists the quasigroup homomorphisms in their order."""

    @staticmethod
    def check(s: int, t: int, count: int):
        source, target = construct_sts(s), construct_sts(t)
        pp = enumerate_ppmorphisms(poset_of(source), poset_of(target))
        homs = enumerate_quasigroup_homs(to_quasigroup(source), to_quasigroup(target))
        assert pp.complete and homs.complete
        assert [m.table[:s] for m in pp.maps] == [h.table for h in homs.maps]
        assert len(homs.maps) == count

    def test_fano_onto_fano(self):
        self.check(7, 7, 175)

    @pytest.mark.expensive
    def test_fano_into_order_9(self):
        self.check(7, 9, 9)


class TestPosets:
    def test_fano_poset_shape(self):
        p = poset_of(fano_system())
        assert p.size == 14
        maximals = [x for x in range(p.size) if p.up[x] == 1 << x]
        assert len(maximals) == 7
        for x in range(7, 14):
            assert len(max_up(p, x)) == 3

    @pytest.mark.parametrize("v", [7, 9, 13])
    def test_sizes_and_validity(self, v):
        p = poset_of(construct_sts(v))
        assert p.size == v + v * (v - 1) // 6
        assert validate_poset(p).ok

    def test_p1_is_chain_for_m1(self):
        p = make_p1(1)
        assert p.size == 2 and p.leq(1, 0)

    def test_p1_matches_delta_bn(self, bn):
        assert posets_isomorphic(make_p1(3), delta(bn[3])[0])

    def test_epsilon_size(self):
        for m in (1, 2, 3):
            assert epsilon(make_p1(m)).size == 2 ** m + 1


class TestPasting:
    def test_w4_shape(self):
        w = paste_w(4)
        assert w.size == 17
        maximals = [x for x in range(w.size) if w.up[x] == 1 << x]
        assert len(maximals) == 9  # 7 from the triple system, m - 2 fresh
        assert len(max_up(w, w.size - 1)) == 4

    def test_w5_shape(self):
        w = paste_w(5)
        assert w.size == 18
        assert len(max_up(w, w.size - 1)) == 5

    def test_triple_points_keep_three_maximals(self):
        w = paste_w(4)
        for x in range(7, 14):
            assert len(max_up(w, x)) == 3

    @pytest.mark.parametrize("m", [4, 5])
    def test_collapse_validates(self, m):
        h = collapse_pasting(m)
        assert validate_ppmap(h).ok and h.is_surjective()
        assert h.target.size == m

    def test_m_below_three_rejected(self):
        with pytest.raises(ValueError):
            paste_w(2)


class TestUnionSearches:
    def test_no_surjection_onto_fan4_with_two_copies(self):
        src = disjoint_union([poset_of(construct_sts(13)),
                              poset_of(construct_sts(13)),
                              paste_w(4)])
        res = find_surjective_ppmorphism(src, make_p1(4))
        assert res.status == "none"

    def test_w4_alone_cannot_cover_fan4(self):
        assert find_surjective_ppmorphism(paste_w(4), make_p1(4)).status == "none"

    @pytest.mark.parametrize("n", [2, 3])
    def test_bn_embeds_into_pasted_algebra(self, n, bn, eps_w4):
        from palg import enumerate_embeddings
        res = enumerate_embeddings(bn[n], eps_w4, limit=1)
        assert res.maps and res.maps[0].is_embedding()
