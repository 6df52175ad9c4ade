import time

import pytest

from mrgrid import search_mr
from mrgrid.galois import prime_powers_upto, spec_for_order


def _sweep(m, b, n, q_max, seed=0):
    t0 = time.time()
    for q in prime_powers_upto(q_max):
        spec = spec_for_order(q)
        code = search_mr(m, b, n, spec, strategy="greedy_indep", seed=seed)
        if code is not None:
            return code, q, time.time() - t0
    return None, None, time.time() - t0


@pytest.fixture(scope="session")
def certified_t46():
    """First certified MR code for T_{4x6}(1,2,0) in the q sweep."""
    code, q, elapsed = _sweep(4, 2, 6, 1 << 10)
    assert code is not None
    return code, q, elapsed


@pytest.fixture(scope="session")
def certified_t37():
    """First certified MR code for T_{3x7}(1,3,0) in the q sweep."""
    code, q, elapsed = _sweep(3, 3, 7, 1 << 12)
    assert code is not None
    return code, q, elapsed
