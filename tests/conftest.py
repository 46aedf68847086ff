import numpy as np
import pytest

from speckleqi import SystemParams
from speckleqi.params import FIG2A, FIG2B


@pytest.fixture
def fig2a():
    """First comparison point: N_S = 1e-4, M = 10^8.5, shared noise/tap values."""
    return SystemParams(**FIG2A)


@pytest.fixture
def fig2b():
    """Second comparison point: N_S = 1e-2, M = 10^6.5 (same x as the first)."""
    return SystemParams(**FIG2B)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
