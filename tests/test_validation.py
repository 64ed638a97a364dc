"""Every validator reports only the first law its input breaks, with that
law's first witness, and ``ValidationReport.ok`` follows its violations."""

import dataclasses
import itertools

import pytest

from palg import (
    FiniteAlgebra,
    FinitePoset,
    PPMap,
    SteinerQuasigroup,
    SteinerSystem,
    ValidationReport,
    Violation,
    enumerate_homomorphisms,
    make_bn,
    validate_palgebra,
    validate_poset,
    validate_ppmap,
    validate_quasigroup,
    validate_steiner,
)
from palg.core import AlgebraMap
from scan_oracle import _scan_palgebra

C2 = FinitePoset(2, (0b11, 0b10))
# the 3-chain 0 < 1 < 2 with 0* = 0 and 2* = 2: breaks "1* = 0", "0* = 1" and more
BAD_STAR = FiniteAlgebra(3, ((0, 0, 0), (0, 1, 1), (0, 1, 2)), ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
                         (0, 0, 2), 0, 2)

TWICE_BROKEN = {
    "poset": (lambda: validate_poset(FinitePoset(3, (0b010, 0b110, 0b100))),
              Violation("reflexive", (0,))),
    "ppmap": (lambda: validate_ppmap(PPMap(C2, C2, (1, 0))),
              Violation("order-preserving", (0, 1))),
    "steiner": (lambda: validate_steiner(SteinerSystem(7, [(0, 1, 2), (0, 1, 3), (0, 4, 5), (1, 4, 6)])),
                Violation("pair in exactly one block", (0, 1, 2))),
    "quasigroup": (lambda: validate_quasigroup(SteinerQuasigroup(3, [[0, 2, 1], [2, 1, 0], [1, 0, 0]])),
                   Violation("x . x = x", (2,))),
    "palgebra": (lambda: validate_palgebra(BAD_STAR), Violation("1* = 0", (2,))),
}


@pytest.mark.parametrize("kind", TWICE_BROKEN)
def test_a_validator_reports_only_the_first_law_broken(kind):
    validate, first = TWICE_BROKEN[kind]
    rep = validate()
    assert rep.violations == (first,)
    assert not rep.ok and not rep


def test_the_palgebra_case_breaks_two_laws():
    assert [v.law for v in _scan_palgebra(BAD_STAR).violations][:2] == ["1* = 0", "0* = 1"]


def test_ok_is_read_from_the_violations():
    assert ValidationReport().ok and ValidationReport()
    assert not ValidationReport((Violation("reflexive", (0,)),)).ok
    assert [f.name for f in dataclasses.fields(ValidationReport)] == ["violations"]


@pytest.mark.parametrize("src, dst", [(1, 2), (2, 1)])
def test_is_homomorphism_holds_exactly_for_the_enumerated_maps(src, dst):
    s, t = make_bn(src), make_bn(dst)
    homs = {m.table for m in enumerate_homomorphisms(s, t).maps}
    tables = list(itertools.product(range(t.size), repeat=s.size))
    assert len(tables) == {(1, 2): 125, (2, 1): 243}[src, dst]
    assert {tab for tab in tables if AlgebraMap(s, t, tab).is_homomorphism()} == homs
    assert 0 < len(homs) < len(tables)


def test_check_ppmap_prints_one_violation_for_a_map_that_breaks_both_laws(tmp_path, capsys):
    from palg.cli import main
    (tmp_path / "c2.json").write_text('{"size": 2, "covers": [[0, 1]]}')
    (tmp_path / "swap.json").write_text('{"table": [1, 0]}')
    c2, swap = str(tmp_path / "c2.json"), str(tmp_path / "swap.json")
    assert main(["check", "ppmap", "--src", c2, "--dst", c2, "--map", swap]) == 1
    assert capsys.readouterr().out == "violation 'order-preserving' witness (0, 1)\n"
