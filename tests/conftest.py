import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def signed_limit_pair():
    """The 2x2 pair whose limit measure carries a signed weight."""
    a = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return a, b


def _traced_peak(call):
    """(call(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """A function that runs call() and returns (its result, the peak bytes traced meanwhile)."""
    return _traced_peak
