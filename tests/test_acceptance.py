"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
lines as they appear).  Criterion 7's third instance is a known red: the
required answer is unattainable because a genuine surjective pp-morphism
onto that target exists (the search finds it and it validates); the
README's acceptance notes walk through the witness.
"""

import time

import pytest

from palg import (
    delta,
    enumerate_embeddings,
    enumerate_homomorphisms,
    epsilon,
    find_surjective_ppmorphism,
    is_isomorphic,
    make_bn,
    make_ib,
    make_splitting_quasieq,
    posets_isomorphic,
    posets_up_to,
    product,
    satisfies,
    trivial_algebra,
    validate_ppmap,
)
from palg import reports
from palg.duality import disjoint_union
from palg.steiner import collapse_pasting, construct_sts, fano_system, make_p1, paste_w, poset_of


def _report(criterion, passed, detail, started):
    took = time.time() - started
    line = f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'} ({took:.1f}s) -- {detail}"
    print(line)
    return passed


def _suite_detail(suite):
    bad = [c["id"] for c in suite["clauses"] if not c["passed"]]
    return "all clauses pass" if not bad else "failing: " + "; ".join(bad)


def test_criterion_01_duality_round_trips(bn, free1):
    t0 = time.time()
    algebras = [bn[n] for n in range(4)] + [free1.algebra]
    # the poset side of the corpus: every class on <= 5 points covers both
    # readings of the stated "63 nonisomorphic posets" count
    small = posets_up_to(5)
    algebras += [epsilon(p) for p in small]
    first = all(is_isomorphic(epsilon(delta(a)[0]), a)[0] for a in algebras)
    second = all(posets_isomorphic(delta(epsilon(p))[0], p) for p in posets_up_to(6))
    ok = first and second and (time.time() - t0) < 60
    assert _report(1, ok, f"{len(algebras)} algebras and 406 posets round-trip", t0)


def test_criterion_02_lemma7_oracle_equivalence():
    t0 = time.time()
    suite = reports.run_lemma7()
    ok = suite["passed"] and (time.time() - t0) < 300
    assert _report(2, ok, _suite_detail(suite), t0)


def test_criterion_03_variety_chain():
    t0 = time.time()
    mismatches = []
    for k in range(5):
        a = make_bn(k)
        for m in range(5):
            if m == 0:
                # the zero-width variety is the Boolean one: x** = x
                from palg import parse
                verdict = bool(satisfies(a, parse("x** = x")))
            else:
                verdict = bool(satisfies(a, make_ib(m)))
            if verdict != (k <= m):
                mismatches.append((k, m, verdict))
    ok = not mismatches and (time.time() - t0) < 60
    assert _report(3, ok, f"25 checks, mismatches: {mismatches}", t0)


def test_criterion_04_thm13_free_algebra(free32):
    t0 = time.time()
    suite = reports.run_thm13()
    ok = suite["passed"] and (time.time() - t0) < 1800
    assert _report(4, ok, _suite_detail(suite), t0)


def test_criterion_05_lemma8_clauses():
    t0 = time.time()
    suite = reports.run_lemma8()
    assert _report(5, suite["passed"], _suite_detail(suite), t0)


def test_criterion_06_lemma10_constant_homs():
    t0 = time.time()
    suite = reports.run_lemma10()
    ok = suite["passed"] and (time.time() - t0) < 300
    assert _report(6, ok, _suite_detail(suite), t0)


def test_criterion_07a_explicit_collapse_validates():
    t0 = time.time()
    h = collapse_pasting(4)
    rep = validate_ppmap(h)
    ok = rep.ok and h.is_surjective()
    found = find_surjective_ppmorphism(paste_w(4), make_p1(3))
    ok = ok and found.status == "found"
    assert _report("7a", ok, "W4 -> 3-fan collapse is a surjective pp-morphism", t0)


def test_criterion_07b_no_surjection_onto_fan4():
    t0 = time.time()
    src = disjoint_union([poset_of(construct_sts(13)), paste_w(4)])
    res = find_surjective_ppmorphism(src, make_p1(4))
    ok = res.status == "none" and (time.time() - t0) < 1800
    assert _report("7b", ok, f"complete search, {res.nodes} nodes", t0)


def test_criterion_07c_fano_target_as_stated():
    # Required answer: none.  But the uniqueness argument behind this
    # instance needs targets whose quasigroup admits only constant
    # homomorphisms from the order-7 one, and the order-7 target is its
    # own copy sitting inside the pasting: mapping that copy identically
    # (with the fresh maximals and the glue bottom landing on a block)
    # is a genuine surjective pp-morphism.  Kept as stated; known red.
    t0 = time.time()
    src = disjoint_union([poset_of(construct_sts(13)), paste_w(4)])
    res = find_surjective_ppmorphism(src, poset_of(fano_system()))
    detail = f"search says {res.status}"
    if res.witness is not None:
        detail += f", witness validates: {validate_ppmap(res.witness).ok}"
    ok = res.status == "none"
    assert _report("7c", ok, detail + " (required: none; known red, see README)", t0)


def test_criterion_08_thm16_structural_sample():
    t0 = time.time()
    suite = reports.run_thm16()
    ok = suite["passed"] and (time.time() - t0) < 300
    assert _report(8, ok, _suite_detail(suite), t0)


def test_criterion_09_diagram_splitting_consistency(bn, free1):
    t0 = time.time()
    corpus = [bn[n] for n in range(4)] + [free1.algebra, trivial_algebra(),
                                          product([bn[0], bn[0]])]
    corpus += [epsilon(p) for p in posets_up_to(4) if p.size > 0]
    mismatches = []
    for m in (1, 2):
        q = make_splitting_quasieq(m)
        source = make_bn(m)
        e = (1 << m) - 1
        for a in corpus:
            falsified = satisfies(a, q).status == "falsified"
            homs = enumerate_homomorphisms(source, a)
            assert homs.complete
            witness = any(h.table[e] != h.table[source.one] for h in homs.maps)
            if falsified != witness:
                mismatches.append((m, a.size))
    ok = not mismatches
    assert _report(9, ok, f"{len(corpus)} algebras, m in (1, 2); mismatches: {mismatches}", t0)


def test_criterion_10_cover_fixture_report():
    t0 = time.time()
    suite = reports.run_covers()
    assert _report(10, suite["passed"], _suite_detail(suite), t0)
