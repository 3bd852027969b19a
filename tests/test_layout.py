"""The flip-paired sector layout against dense matrices (kernel adjointness)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from medbound.layout import _charges, _Flat, _Rule, _scatter
from medbound.opalg import embed_mat, logm_psd, ptrace_mat


def _flip_symmetric_herm(rng, dims, modulus, complex_, flip=True):
    """A random Hermitian matrix in the sectors of `modulus`, invariant under
    the global flip (i -> d - 1 - i) unless `flip` is False."""
    d = int(np.prod(dims))
    a = rng.standard_normal((d, d))
    if complex_:
        a = a + 1j * rng.standard_normal((d, d))
    a = a + a.conj().T
    if flip:
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
        # the trace map against ptrace_mat, and read backwards (and as its
        # gather) against embed_mat: the embedding is the adjoint of the
        # partial trace
        dims = (2,) * n
        rng = np.random.default_rng(seed)
        keep = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        rule = _Rule(modulus, flip=True)
        a = _flip_symmetric_herm(rng, dims, modulus, complex_)
        w = _flip_symmetric_herm(rng, (2,) * len(keep), modulus, complex_)
        flat, marg = _Flat([dims], rule), _Flat([(2,) * len(keep)], rule)
        labels = marg.to_dense(np.arange(1.0, marg.n + 1.0))[0]
        src, tgt, count, at = flat.trace_map(0, labels, keep)
        rho = flat.from_dense([a])
        traced = _scatter(tgt, rho[src] * count / marg.mult[tgt], marg.n)
        expect = ptrace_mat(a, dims, keep)
        assert np.max(np.abs(marg.to_dense(traced)[0] - expect)) <= 1e-13 * max(
            1.0, np.abs(expect).max())
        embedded = _scatter(src, marg.from_dense([w])[tgt] * count / flat.mult[src], flat.n)
        expect = embed_mat(w, dims, keep)
        assert np.max(np.abs(flat.to_dense(embedded)[0] - expect)) <= 1e-13 * max(
            1.0, np.abs(expect).max())
        # the gather: on every carried entry, the embedded entry at its own
        # position, bit for bit, and 0 where nothing is embedded
        gathered = np.where(at >= 0, marg.from_dense([w])[at], 0.0)
        assert np.array_equal(gathered, flat.from_dense([expect]))

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

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(modulus=st.sampled_from([0, 2]), **{k: v for k, v in CASES.items() if k != "modulus"})
    def test_flip_average_is_the_dense_average(self, n, modulus, complex_, seed):
        # on any flat vector of a flip layout, U(1) or Z2 (random, so its
        # self-mirror blocks are not invariant), the dense matrices of the
        # average are (A + flip(A)) / 2 of the input's, bit for bit, for two
        # matrices at once and with a batch axis; without the flip it is the
        # identity
        rng = np.random.default_rng(seed)
        dims = [(2,) * n, (2,) * (n + 1)]
        flat = _Flat(dims, _Rule(modulus, flip=True))
        x = rng.standard_normal((3, flat.n))
        if complex_:
            x = x + 1j * rng.standard_normal((3, flat.n))
        for got, a in zip(flat.to_dense(flat.flip_average(x)), flat.to_dense(x)):
            assert np.array_equal(got, 0.5 * (a + a[..., ::-1, ::-1]))
        plain = _Flat(dims, _Rule(modulus))
        y = rng.standard_normal(plain.n)
        assert plain.flip_average(y) is y


# the rules BP meets: Heisenberg, the TFIM and a charge-breaking complex model
FACTOR_RULES = {"u1-flip": (_Rule(0, flip=True), False), "z2": (_Rule(2), False),
                "one-complex": (_Rule(1), True)}


class TestFactorLogs:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), rule=st.sampled_from(sorted(FACTOR_RULES)),
           side=st.sampled_from("LR"), seed=st.integers(0, 2 ** 32 - 1))
    def test_factor_logs_match_the_dense_marginal(self, n, rule, side, seed):
        # the log of a marginal from the SVD of its eigen-factor against
        # logm_psd of the dense partial trace, on states with every weight at
        # least 1e-3 (where the dense route is accurate too)
        rule, complex_ = FACTOR_RULES[rule]
        dims = (2,) * (n + 1)
        keep = tuple(range(n)) if side == "L" else tuple(range(1, n + 1))
        g = _flip_symmetric_herm(np.random.default_rng(seed), dims, rule.modulus, complex_,
                                 flip=rule.flip)
        g /= np.abs(np.linalg.eigvalsh(g)).max()
        cluster, marg = _Flat([dims], rule), _Flat([(2,) * n], rule)
        eig = cluster.spectrum(cluster.from_dense([g]))
        assert eig.p.min() >= 1e-3 and eig.rho is None
        f = cluster.factor(eig)
        logs = marg.log_gram([f[cols] for cols in cluster.factor_map(0, marg, keep)])
        vals, vecs = np.linalg.eigh(g)
        rho = (vecs * np.exp(vals)) @ vecs.conj().T
        expect = logm_psd(ptrace_mat(rho / np.trace(rho).real, dims, keep))
        got = marg.to_dense(logs)[0]
        assert got.dtype == expect.dtype
        assert np.max(np.abs(got - expect)) <= 1e-12
