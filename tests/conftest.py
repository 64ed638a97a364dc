import pytest

from palg import make_bn
from palg import reports


@pytest.fixture(scope="session")
def bn():
    return {n: make_bn(n) for n in range(5)}


@pytest.fixture(scope="session")
def eps_w4():
    return reports.eps_w4()


@pytest.fixture(scope="session")
def free1():
    return reports.free_algebra(2, 1)


@pytest.fixture(scope="session")
def free32():
    return reports.free_algebra(3, 2)


@pytest.fixture(scope="session")
def scan_agrees():
    """Asserts that validation accepts ``a`` iff the exhaustive scan finds
    no violation, and otherwise reports one violation whose witness breaks
    the check it names, the scan's own witness where the scan names the
    same law; returns the scan's report."""
    from palg.core import validate_palgebra
    from scan_oracle import _scan_palgebra, breaks

    def check(a):
        scan, rep = _scan_palgebra(a), validate_palgebra(a)
        assert rep.ok == scan.ok
        if not rep.ok:
            (v,) = rep.violations
            assert breaks(a, v)
            assert all(s.witness == v.witness for s in scan.violations if s.law == v.law)
        return scan
    return check
