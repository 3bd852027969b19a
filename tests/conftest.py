import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def random_state(rng):
    """Random full-rank density matrix of dimension d, drawn from `rng`: the
    partial trace of a random pure state on d x d."""
    def make(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return m / np.real(np.trace(m))
    return make
