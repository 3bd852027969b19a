"""The flip-paired sector layout against dense matrices (kernel adjointness)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from medbound.layout import _charges, _Flat, _Rule, _scatter
from medbound.opalg import embed_mat, ptrace_mat


def _flip_symmetric_herm(rng, dims, modulus, complex_):
    """A random Hermitian matrix in the sectors of `modulus`, invariant under
    the global flip (i -> d - 1 - i)."""
    d = int(np.prod(dims))
    a = rng.standard_normal((d, d))
    if complex_:
        a = a + 1j * rng.standard_normal((d, d))
    a = a + a.conj().T
    a = a + a[::-1, ::-1]
    q = _charges(dims, modulus)
    return np.where(q[:, None] == q[None, :], a, 0.0)


CASES = dict(n=st.integers(1, 6), modulus=st.sampled_from([0, 2, 1]),
             complex_=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))


class TestFlipLayout:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(**CASES)
    def test_dense_round_trip_is_exact(self, n, modulus, complex_, seed):
        dims = (2,) * n
        a = _flip_symmetric_herm(np.random.default_rng(seed), dims, modulus, complex_)
        flat = _Flat([dims], _Rule(modulus, flip=True))
        back = flat.to_dense(flat.from_dense([a]))[0]
        assert back.dtype == a.dtype and np.array_equal(back, a)
        # counted by multiplicity, the carried entries are every in-sector one
        assert flat.mult.sum() == _Flat([dims], _Rule(modulus)).n

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), **CASES)
    def test_partial_trace_and_embedding(self, n, modulus, complex_, seed, data):
        # the trace map against ptrace_mat, and read backwards against
        # embed_mat: the embedding is the adjoint of the partial trace
        dims = (2,) * n
        rng = np.random.default_rng(seed)
        keep = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        rule = _Rule(modulus, flip=True)
        a = _flip_symmetric_herm(rng, dims, modulus, complex_)
        w = _flip_symmetric_herm(rng, (2,) * len(keep), modulus, complex_)
        flat, marg = _Flat([dims], rule), _Flat([(2,) * len(keep)], rule)
        labels = marg.to_dense(np.arange(1.0, marg.n + 1.0))[0]
        src, tgt, count = flat.trace_map(0, labels, keep)
        rho = flat.from_dense([a])
        traced = _scatter(tgt, rho[src] * count / marg.mult[tgt], marg.n)
        expect = ptrace_mat(a, dims, keep)
        assert np.max(np.abs(marg.to_dense(traced)[0] - expect)) <= 1e-13 * max(
            1.0, np.abs(expect).max())
        embedded = _scatter(src, marg.from_dense([w])[tgt] * count / flat.mult[src], flat.n)
        expect = embed_mat(w, dims, keep)
        assert np.max(np.abs(flat.to_dense(embedded)[0] - expect)) <= 1e-13 * max(
            1.0, np.abs(expect).max())

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(**CASES)
    def test_weighted_eigenvalue_sums(self, n, modulus, complex_, seed):
        dims = (2,) * n
        a = _flip_symmetric_herm(np.random.default_rng(seed), dims, modulus, complex_)
        flat = _Flat([dims], _Rule(modulus, flip=True))
        vals = flat.eigvals(flat.from_dense([a]))
        dense = np.linalg.eigvalsh(a)
        scale = max(1.0, np.abs(dense).sum())
        assert abs(np.sum(flat.eig_mult * vals) - np.trace(a).real) <= 1e-12 * scale
        assert abs(np.sum(flat.eig_mult * np.abs(vals)) - np.abs(dense).sum()) <= 1e-12 * scale
        # the carried eigenvalues, each counted by its multiplicity, are the
        # dense spectrum
        assert np.allclose(np.sort(np.repeat(vals, flat.eig_mult.astype(int))), dense,
                           rtol=0.0, atol=1e-12 * scale)
