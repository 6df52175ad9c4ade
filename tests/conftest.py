import pytest

from _support import first_certified


@pytest.fixture(scope="session")
def certified_t46():
    """First certified MR code for T_{4x6}(1,2,0) in the q sweep."""
    code, q, elapsed = first_certified(4, 2, 6, 1 << 10)
    assert code is not None
    return code, q, elapsed


@pytest.fixture(scope="session")
def certified_t37():
    """First certified MR code for T_{3x7}(1,3,0) in the q sweep."""
    code, q, elapsed = first_certified(3, 3, 7, 1 << 12)
    assert code is not None
    return code, q, elapsed
