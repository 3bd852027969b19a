import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from medbound.bpdual import (
    _normalized_exp,
    _outgoing_logs,
    BPConfig,
    BPState,
    beliefs_from_messages,
    belief_consistency,
    bp_chain_problem,
    bp_fixed_point,
    bp_free_energy,
    bp_ti_problem,
    bp_update,
)
from medbound.lattice import LatticeSpec, ModelSpec, build_lattice, finite_geometry, total_hamiltonian
from medbound.med import SolverConfig, minimize_finite, minimize_ti
from medbound.opalg import EIG_FLOOR, embed_mat, logm_psd, ptrace_mat, sym, trace_distance
from medbound.oracle import exact_free_energy, gibbs_state, ising_transfer_free_energy

HEIS = ModelSpec("heisenberg")
ISING = ModelSpec("classical_ising")
TFIM = ModelSpec("tfim", J=1.0, g=1.0)
LN2 = math.log(2.0)


def identity_state(problem):
    dim = 2 ** problem.n
    if problem.kind == "ti":
        msgs = {"L": np.eye(dim) / dim, "R": np.eye(dim) / dim}
    else:
        keys = problem.cluster_keys
        msgs = {("R", k): np.eye(dim) / dim for k in keys[:-1]}
        msgs.update({("L", k): np.eye(dim) / dim for k in keys[1:]})
    return BPState(messages=msgs, residual=math.inf, iterations=0, converged=True)


def classical_chain_pair_marginals(n_sites, J, T):
    """Forward-backward pair marginals of the open classical Ising chain."""
    psi = np.exp(np.array([[J, -J], [-J, J]]) / T)
    fwd = [np.ones(2)]
    for _ in range(n_sites - 1):
        fwd.append(fwd[-1] @ psi)
    bwd = [np.ones(2)]
    for _ in range(n_sites - 1):
        bwd.append(psi @ bwd[-1])
    bwd = bwd[::-1]
    pairs = []
    for k in range(n_sites - 1):
        m = np.outer(fwd[k], bwd[k + 1]) * psi
        pairs.append(m / m.sum())
    return pairs


class TestFixedPoint:
    def test_infinite_temperature_one_iteration(self):
        prob = bp_ti_problem(HEIS, 2, 1e9)
        state = bp_fixed_point(prob)
        assert state.converged
        assert state.iterations == 1
        beliefs, _ = beliefs_from_messages(state, prob)
        dim = beliefs["ti"].shape[0]
        assert np.linalg.norm(beliefs["ti"] - np.eye(dim) / dim) <= 1e-9

    def test_classical_ising_ti_free_energy(self):
        for t in (0.5, 1.0, 2.0):
            prob = bp_ti_problem(ISING, 2, t)
            state = bp_fixed_point(prob)
            assert state.converged
            f = bp_free_energy(state, prob)
            assert abs(f - ising_transfer_free_energy(1.0, 0.0, t)) <= 1e-8

    def test_quantum_ti_consistency(self):
        prob = bp_ti_problem(HEIS, 3, 1.0)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-8))
        assert state.converged
        assert belief_consistency(state, prob) <= 1e-7

    def test_damping_half_converges_on_suite_chains(self):
        cfg = BPConfig(damping=0.5)
        for model, n, t in [(HEIS, 2, 0.5), (HEIS, 3, 1.0), (ISING, 1, 1.0), (ISING, 2, 2.0)]:
            state = bp_fixed_point(bp_ti_problem(model, n, t), cfg)
            assert state.converged

    def test_finite_classical_marginals_match_transfer(self):
        n_sites, t = 6, 1.0
        spec = LatticeSpec("chain", n_sites)
        prob = bp_chain_problem(spec, ISING, 1, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-12))
        beliefs, _ = beliefs_from_messages(state, prob)
        pairs = classical_chain_pair_marginals(n_sites, 1.0, t)
        for k, rho in beliefs.items():
            expect = np.diag(pairs[k - 1].reshape(-1))
            assert np.max(np.abs(rho - expect)) <= 1e-10

    def test_finite_quantum_matches_primal(self):
        spec = LatticeSpec("chain", 5)
        t = 1.0
        prob = bp_chain_problem(spec, HEIS, 2, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-10))
        assert state.converged
        f_bp = bp_free_energy(state, prob)
        geo = finite_geometry(spec, HEIS, radius=2)
        res = minimize_finite(geo, t, SolverConfig(tol_gradient=1e-7,
                                                   tol_constraint=1e-8, max_inner=3000))
        assert res.converged
        f_med = res.f_per_site * 5
        assert abs(f_bp - f_med) <= 1e-5

    def test_finite_classical_equals_exact(self):
        # classical chains are Markov, so the bound is tight on finite chains
        spec = LatticeSpec("chain", 6)
        t = 0.8
        prob = bp_chain_problem(spec, ISING, 1, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-12))
        f_bp = bp_free_energy(state, prob)
        terms, sites = build_lattice(spec, ISING)
        exact = exact_free_energy(total_hamiltonian(terms, sites), t)
        assert abs(f_bp - exact.f_total) <= 1e-8

    def test_tfim_n5_low_temperature_converges(self):
        # the smallest message eigenvalues come close to EIG_FLOOR here, and
        # the loop must still reach the residual tolerance
        t = 0.3
        prob = bp_ti_problem(TFIM, 5, t)
        state = bp_fixed_point(prob, BPConfig(max_iters=1000))
        assert state.converged
        f = bp_free_energy(state, prob)
        # free-fermion free energy per site of the critical chain
        integral, _ = quad(lambda k: math.log(2.0 * math.cosh(2.0 * math.sin(k / 2.0) / t)),
                           0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        f_exact = -t * integral / math.pi
        assert -1.2859632 < f < f_exact

    def test_periodic_chain_rejected(self):
        with pytest.raises(ValueError):
            bp_chain_problem(LatticeSpec("chain", 6, boundary="periodic"), HEIS, 2, 1.0)


class TestUpdate:
    def test_identity_fixed_point_at_zero_hamiltonian(self):
        prob = bp_ti_problem(ModelSpec("classical_ising", J=0.0), 2, 1.0)
        state = identity_state(prob)
        out = bp_update("ti", state, prob)
        dim = 2 ** prob.n
        for m in out.values():
            assert np.linalg.norm(m - np.eye(dim) / dim) <= 1e-12

    def test_against_independent_multiplier_form(self, rng):
        # one update on a random window-1 chain, re-derived with scipy matrix
        # functions in the multiplier (log-message) picture
        t = 1.0
        prob = bp_ti_problem(HEIS, 1, t)
        ham = rng.standard_normal((4, 4))
        ham = sym(ham + ham.T)
        prob.log_lambda["ti"] = -ham / t
        wa = rng.standard_normal((2, 2))
        wb = rng.standard_normal((2, 2))
        m_left = scipy.linalg.expm(sym(wa + wa.T))       # incoming from the right
        m_right = scipy.linalg.expm(sym(wb + wb.T))      # incoming from the left
        m_left /= np.trace(m_left).real
        m_right /= np.trace(m_right).real
        state = identity_state(prob)
        state.messages["L"] = m_left
        state.messages["R"] = m_right
        out = bp_update("ti", state, prob)

        a_in = scipy.linalg.logm(m_left)
        b_in = scipy.linalg.logm(m_right)
        rho = scipy.linalg.expm(-ham / t + np.kron(b_in, np.eye(2)) + np.kron(np.eye(2), a_in))
        rho /= np.trace(rho).real
        marg_first = ptrace_mat(rho, (2, 2), (0,))
        marg_last = ptrace_mat(rho, (2, 2), (1,))
        ref_left = scipy.linalg.expm(scipy.linalg.logm(marg_first) - b_in)
        ref_left /= np.trace(ref_left).real
        ref_right = scipy.linalg.expm(scipy.linalg.logm(marg_last) - a_in)
        ref_right /= np.trace(ref_right).real
        assert np.max(np.abs(out["L"] - ref_left)) <= 1e-10
        assert np.max(np.abs(out["R"] - ref_right)) <= 1e-10

    def test_singular_message_rejected(self):
        prob = bp_ti_problem(HEIS, 1, 1.0)
        state = identity_state(prob)
        state.messages["L"] = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            bp_update("ti", state, prob)


def _random_positive(rng, dim):
    w = rng.standard_normal((dim, dim))
    m = scipy.linalg.expm(sym(w + w.T))
    return m / np.trace(m).real


def _unit_exp(log_mat):
    vals, vecs = np.linalg.eigh(sym(log_mat))
    w = np.exp(vals - vals[-1])
    return sym((vecs * (w / w.sum())) @ vecs.T)


def _density_matrix_update(prob, m_right, m_left, retain, damping):
    """One damped step on density-matrix messages: every use of a message
    takes its clamped log, and the damped mix is exponentiated."""
    n = prob.n
    dims = (2,) * (n + 1)
    first, last = tuple(range(n)), tuple(range(1, n + 1))

    def belief(mr, ml):
        log_rho = prob.log_lambda["ti"]
        if mr is not None:
            log_rho = log_rho + embed_mat(logm_psd(mr, EIG_FLOOR), dims, first)
        if ml is not None:
            log_rho = log_rho + embed_mat(logm_psd(ml, EIG_FLOOR), dims, last)
        return _unit_exp(log_rho)

    if retain:
        rho = belief(m_right, m_left)
        new = {"L": _unit_exp(logm_psd(ptrace_mat(rho, dims, first), EIG_FLOOR)
                              - logm_psd(m_right, EIG_FLOOR)),
               "R": _unit_exp(logm_psd(ptrace_mat(rho, dims, last), EIG_FLOOR)
                              - logm_psd(m_left, EIG_FLOOR))}
    else:
        new = {"L": ptrace_mat(belief(None, m_left), dims, first),
               "R": ptrace_mat(belief(m_right, None), dims, last)}
    old = {"L": m_left, "R": m_right}
    damped = {name: _unit_exp((1.0 - damping) * logm_psd(old[name], EIG_FLOOR)
                              + damping * logm_psd(new[name], EIG_FLOOR))
              for name in ("L", "R")}
    return new, damped


class TestLogSpaceStep:
    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1),
           retain=st.booleans(), damping=st.sampled_from([0.5, 1.0]))
    def test_matches_density_matrix_path(self, n, seed, retain, damping):
        rng = np.random.default_rng(seed)
        prob = bp_ti_problem(HEIS, n, 1.0)
        ham = rng.standard_normal((2 ** (n + 1), 2 ** (n + 1)))
        prob.log_lambda["ti"] = -sym(ham + ham.T)
        state = identity_state(prob)
        for name in ("L", "R"):
            state.messages[name] = _random_positive(rng, 2 ** n)
        cfg = BPConfig(damping=damping, retain_inverse=retain)
        new_ref, damped_ref = _density_matrix_update(
            prob, state.messages["R"], state.messages["L"], retain, damping)

        new = bp_update("ti", state, prob, cfg)
        # log-space path: unit-trace logs in, damped mix of logs out
        logs = {name: scipy.linalg.logm(m).real for name, m in state.messages.items()}
        out = _outgoing_logs(prob, "ti", logs["R"], logs["L"], ("L", "R"), retain)
        for name in ("L", "R"):
            assert np.max(np.abs(new[name] - new_ref[name])) <= 1e-10
            mix = (1.0 - damping) * logs[name] + damping * out[name]
            mixed, scale = _normalized_exp(mix)
            assert np.max(np.abs(mixed - damped_ref[name])) <= 1e-10
            # the shifted mix is the unit-trace log carried to the next step
            unit_log = mix - scale * np.eye(2 ** n)
            assert np.max(np.abs(unit_log - scipy.linalg.logm(mixed).real)) <= 1e-8


class TestBeliefs:
    def test_identity_messages_give_bare_gibbs(self):
        t = 0.9
        prob = bp_ti_problem(HEIS, 2, t)
        state = identity_state(prob)
        beliefs, _ = beliefs_from_messages(state, prob)
        ham = -t * prob.log_lambda["ti"]
        ref = gibbs_state(ham, t)
        assert np.max(np.abs(beliefs["ti"] - ref)) <= 1e-10

    def test_underflowed_message_is_clamped(self):
        # at low T a message eigenvalue can underflow to zero in the loop;
        # the beliefs still exist, with its log clamped
        prob = bp_ti_problem(HEIS, 1, 1.0)
        state = identity_state(prob)
        state.messages["L"] = np.diag([1.0, 0.0])
        beliefs, overlaps = beliefs_from_messages(state, prob)
        assert abs(np.trace(beliefs["ti"]) - 1.0) <= 1e-12
        assert np.all(np.isfinite(overlaps["ti"]))

    def test_beliefs_use_the_carried_logs(self):
        # at T = 0.1 the smallest message eigenvalues underflow: logged again
        # with the EIG_FLOOR clamp, the messages give beliefs off by 0.499 in
        # trace distance and f = -1.3448; the carried logs keep them consistent
        prob = bp_ti_problem(TFIM, 4, 0.1)
        state = bp_fixed_point(prob, BPConfig(max_iters=3000))
        assert belief_consistency(state, prob) <= 1e-6
        with pytest.warns(RuntimeWarning):
            f = bp_free_energy(state, prob)
        assert abs(f - (-1.28031)) <= 1e-4

    def test_carried_logs_leave_converged_values(self):
        prob = bp_ti_problem(TFIM, 4, 0.3)
        state = bp_fixed_point(prob)
        assert state.converged
        f_carried = bp_free_energy(state, prob)
        state.logs = None
        assert abs(bp_free_energy(state, prob) - f_carried) <= 1e-12

    def test_product_hamiltonian_product_beliefs(self):
        t = 0.7
        model = ModelSpec("tfim", J=0.0, g=0.9)
        spec = LatticeSpec("chain", 5)
        prob = bp_chain_problem(spec, model, 1, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-12))
        beliefs, _ = beliefs_from_messages(state, prob)
        h1 = -0.9 * np.array([[0.0, 1.0], [1.0, 0.0]])
        g1 = gibbs_state(h1, t)
        for rho in beliefs.values():
            assert np.max(np.abs(rho - np.kron(g1, g1))) <= 1e-9

    def test_classical_beliefs_match_primal_minimizer(self):
        spec = LatticeSpec("chain", 5)
        t = 1.0
        prob = bp_chain_problem(spec, ISING, 1, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-12))
        beliefs, _ = beliefs_from_messages(state, prob)
        geo = finite_geometry(spec, ISING, radius=1)
        res = minimize_finite(geo, t, SolverConfig(tol_gradient=1e-8,
                                                   tol_constraint=1e-9, max_inner=3000))
        for k, rho in beliefs.items():
            assert trace_distance(rho, res.variables.states[k]) <= 1e-8


class TestInverseFactors:
    def test_retained_agrees_cancelled_differs(self):
        # the correction matters on a non-commuting chain: dropping the
        # inverse factors shifts the fixed-point value by more than 1e-3
        t = 0.5
        cfg_med = SolverConfig(tol_gradient=1e-7, tol_constraint=1e-8, max_inner=3000)
        f_med = minimize_ti(HEIS, 3, t, cfg_med).f_per_site
        prob = bp_ti_problem(HEIS, 3, t)
        f_keep = bp_free_energy(bp_fixed_point(prob), prob)
        state_drop = bp_fixed_point(prob, BPConfig(retain_inverse=False))
        f_drop = bp_free_energy(state_drop, prob)
        assert abs(f_keep - f_med) <= 1e-4
        assert abs(f_drop - f_med) > 1e-3

    def test_classical_chain_insensitive(self):
        # diagonal operators commute with the partial trace, so the
        # cancellation is harmless there
        prob = bp_ti_problem(ISING, 2, 1.0)
        f_keep = bp_free_energy(bp_fixed_point(prob), prob)
        f_drop = bp_free_energy(bp_fixed_point(prob, BPConfig(retain_inverse=False)), prob)
        assert abs(f_keep - f_drop) <= 1e-9


class TestFlags:
    def test_nonconverged_state_warns(self):
        prob = bp_ti_problem(HEIS, 2, 0.5)
        state = bp_fixed_point(prob, BPConfig(max_iters=2))
        assert not state.converged
        with pytest.warns(RuntimeWarning):
            bp_free_energy(state, prob)

    def test_consistency_tracks_residual(self):
        prob = bp_ti_problem(HEIS, 2, 1.0)
        for tol in (1e-6, 1e-9):
            state = bp_fixed_point(prob, BPConfig(tol_residual=tol))
            assert belief_consistency(state, prob) <= 10 * tol
