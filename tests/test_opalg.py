import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from medbound.opalg import (
    eigh_herm,
    embed_mat,
    entropy_mat,
    logm_psd,
    ptrace_mat,
    sym,
    trace_distance,
)
from medbound.oracle import gibbs_state

LN2 = math.log(2.0)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def heisenberg_bond():
    # J S.S with S = sigma/2, J = 1
    return 0.25 * (np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ))


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def ghz_state():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def random_hermitian(rng, d):
    return sym(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def cmi_three_qubits(rho):
    # I(0;2|1) = S(01) + S(12) - S(1) - S(012)
    dims = (2, 2, 2)
    return (entropy_mat(ptrace_mat(rho, dims, (0, 1))) + entropy_mat(ptrace_mat(rho, dims, (1, 2)))
            - entropy_mat(ptrace_mat(rho, dims, (1,))) - entropy_mat(rho))


class TestEigh:
    def test_pauli_z(self):
        vals, _ = eigh_herm(SZ)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_identity_two_qubits(self):
        vals, _ = eigh_herm(np.eye(4))
        assert np.allclose(vals, np.ones(4))

    def test_heisenberg_bond_spectrum(self):
        # brute-force 4x4 diagonalization: singlet -3/4, triplet +1/4
        vals, _ = eigh_herm(heisenberg_bond())
        assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_reconstruction_residual(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 8)
            vals, vecs = eigh_herm(h)
            rec = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(rec - h) <= 1e-10 * max(1.0, np.linalg.norm(h))


class TestMatrixFunctions:
    # exp is checked through oracle.gibbs_state, exp(-H/T)/Z on the spectrum
    def test_log_identity_is_zero(self):
        assert np.allclose(logm_psd(np.eye(2)), 0.0)

    def test_log_diagonal(self):
        assert np.allclose(logm_psd(np.diag([math.e, math.e**2])), np.diag([1.0, 2.0]))

    def test_exp_zero_is_identity(self):
        assert np.allclose(gibbs_state(np.zeros((4, 4)), 1.0), np.eye(4) / 4)

    def test_exp_diagonal(self):
        h = -np.diag([math.log(2), math.log(3)])
        assert np.allclose(gibbs_state(h, 1.0), np.diag([2.0, 3.0]) / 5)

    def test_exp_log_roundtrip_full_rank(self, random_state):
        for _ in range(20):
            rho = random_state(4)
            back = gibbs_state(-logm_psd(rho), 1.0)
            assert np.linalg.norm(back - rho) / np.linalg.norm(rho) <= 1e-10

    def test_gibbs_against_scipy(self, rng):
        # independent route: scipy.linalg.expm on -H/T
        h = random_hermitian(rng, 4)
        ref = scipy.linalg.expm(-h)
        assert np.linalg.norm(gibbs_state(h, 1.0) - ref / np.trace(ref)) <= 1e-10

    def test_log_against_scipy(self, random_state):
        # independent evaluation through scipy's Schur-based matrix log
        for _ in range(10):
            a = random_state(2) + 0.2 * np.eye(2)
            assert np.linalg.norm(logm_psd(a) - scipy.linalg.logm(a)) <= 1e-10

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            logm_psd(np.diag([1.0, -1.0]))


class TestPartialTrace:
    def test_product_state_factor(self, random_state):
        a = random_state(2)
        b = random_state(4)
        red = ptrace_mat(np.kron(a, b), (2, 2, 2), (0,))
        assert np.linalg.norm(red - a) <= 1e-12

    def test_maximally_mixed_marginal(self):
        for k in (0, 1, 2):
            red = ptrace_mat(np.eye(8) / 8, (2, 2, 2), (k,))
            assert np.allclose(red, np.eye(2) / 2)

    def test_bell_marginal(self):
        red = ptrace_mat(bell_state(), (2, 2), (0,))
        assert np.linalg.norm(red - np.eye(2) / 2) <= 1e-12

    def test_trace_and_positivity_preserved(self, random_state):
        for _ in range(25):
            red = ptrace_mat(random_state(8), (2, 2, 2), (0, 2))
            assert abs(np.trace(red) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(red)[0] >= -1e-10


@st.composite
def _adjoint_case(draw):
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4)))
    keep = tuple(draw(st.permutations(range(len(dims))))[:draw(st.integers(0, len(dims)))])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return dims, keep, seed


class TestEmbed:
    def test_scalar_on_empty_set(self):
        assert np.allclose(embed_mat(np.array([[1.0]]), (2, 2), ()), np.eye(4))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_adjoint_case())
    def test_duality_identity(self, case):
        # embedding is the adjoint of the partial trace:
        # Re Tr(ptrace(A) B) = Re Tr(A embed(B)), for any ordered subset kept
        dims, keep, seed = case
        rng = np.random.default_rng(seed)
        d = int(np.prod(dims))
        dk = int(np.prod([dims[i] for i in keep]))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk))
        lhs = np.trace(ptrace_mat(a, dims, keep) @ b).real
        rhs = np.trace(a @ embed_mat(b, dims, keep)).real
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_embed_then_trace_scales_by_traced_dims(self, rng):
        h = random_hermitian(rng, 2)
        back = ptrace_mat(embed_mat(h, (2, 2, 2), (1,)), (2, 2, 2), (1,))
        assert np.allclose(back, 4.0 * h)


class TestEntropies:
    def test_pure_state_zero(self):
        assert abs(entropy_mat(bell_state())) <= 1e-12

    def test_maximally_mixed(self):
        assert abs(entropy_mat(np.eye(4) / 4) - 2 * LN2) <= 1e-12

    def test_gibbs_two_site_heisenberg(self):
        # closed-form spectrum: Z = e^{3/4} + 3 e^{-1/4} at T = 1
        h = heisenberg_bond()
        w = np.exp(-np.linalg.eigvalsh(h))
        z = w.sum()
        expected = math.log(z) + float((w / z) @ np.linalg.eigvalsh(h))
        assert abs(entropy_mat(scipy.linalg.expm(-h) / z) - expected) <= 1e-10
        assert abs(expected - 1.2683014942100075) <= 1e-12

    def test_entropy_range(self, random_state):
        for d in (2, 4, 8):
            for _ in range(10):
                s = entropy_mat(random_state(d))
                assert -1e-10 <= s <= math.log(d) + 1e-10

    def test_conditional_entropy_product(self, random_state):
        # S(x|y) = S(xy) - S(y) of a product state is S(x)
        a = random_state(2)
        b = random_state(2)
        joint = np.kron(a, b)
        s_x_given_y = entropy_mat(joint) - entropy_mat(ptrace_mat(joint, (2, 2), (1,)))
        assert abs(s_x_given_y - entropy_mat(a)) <= 1e-10

    def test_conditional_entropy_bell(self):
        rho = bell_state()
        s_x_given_y = entropy_mat(rho) - entropy_mat(ptrace_mat(rho, (2, 2), (1,)))
        assert abs(s_x_given_y + LN2) <= 1e-12


class TestCMI:
    def test_product_state_zero(self, random_state):
        mats = [random_state(2) for _ in range(3)]
        joint = np.kron(np.kron(mats[0], mats[1]), mats[2])
        assert abs(cmi_three_qubits(joint)) <= 1e-10

    def test_ghz_value(self):
        assert abs(cmi_three_qubits(ghz_state()) - LN2) <= 1e-10

    def test_classical_ising_chain_markov(self):
        # 3-site classical Gibbs chain is a Markov chain: I(1;3|2) = 0
        beta, J = 1.0, 1.0
        states = np.array([[s0, s1, s2] for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)])
        energies = -J * (states[:, 0] * states[:, 1] + states[:, 1] * states[:, 2])
        p = np.exp(-beta * energies)
        p /= p.sum()
        assert cmi_three_qubits(np.diag(p)) <= 1e-10

    def test_ssa_on_random_states(self, random_state):
        for _ in range(100):
            assert cmi_three_qubits(random_state(8)) >= -1e-10


class TestTraceDistance:
    def test_trace_distance_basic(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) <= 1e-12
