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
    """Asserts that the certificate accepts ``a`` iff the exhaustive scan
    finds no violation, and that validation returns the scan's report."""
    from palg.core import _certified, _scan_palgebra, validate_palgebra

    def check(a):
        scan = _scan_palgebra(a)
        assert _certified(a) == scan.ok
        assert validate_palgebra(a) == scan
        return scan
    return check
