import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from medbound import bpdual, layout, med
from medbound.bpdual import (
    _layout,
    _iterate,
    _Layout,
    BPConfig,
    BPProblem,
    BPState,
    beliefs_from_messages,
    belief_consistency,
    bp_chain_problem,
    bp_fixed_point,
    bp_free_energy,
    bp_point,
    bp_ti_problem,
    bp_update,
)
from medbound.layout import _Rule
from medbound.lattice import (
    PAULI_X,
    LatticeSpec,
    ModelSpec,
    build_lattice,
    finite_geometry,
    model_site_term,
    ti_chain_geometry,
    ti_square_geometry,
    total_hamiltonian,
)
from medbound.med import (
    MedProblem,
    SolverConfig,
    _compiled,
    cluster_states,
    finite_problem,
    markov_free_energy,
    solve,
    ti_problem,
)
from medbound.opalg import EIG_FLOOR, embed_mat, logm_psd, ptrace_mat, sym, trace_distance
from medbound.oracle import exact_free_energy, gibbs_state, ising_transfer_free_energy

HEIS = ModelSpec("heisenberg")
ISING = ModelSpec("classical_ising")
TFIM = ModelSpec("tfim", J=1.0, g=1.0)
LN2 = math.log(2.0)


def tfim_exact_f(t):
    """Free-fermion free energy per site of the critical TFIM chain."""
    integral, _ = quad(lambda k: math.log(2.0 * math.cosh(2.0 * math.sin(k / 2.0) / t)),
                       0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
    return -t * integral / math.pi


def charge_mask(n_sites):
    """True on the entries of a matrix on n_sites qubits inside its S^z sectors."""
    q = np.indices((2,) * n_sites).reshape(n_sites, -1).sum(axis=0)
    return q[:, None] == q[None, :]


def cluster_hams(problem):
    """The cluster Hamiltonians of a BP problem, keyed like its clusters."""
    return {v.key: v.ham for v in problem.problem.variables}


def with_hams(problem, hams):
    """The same chain windows and constraints with other cluster Hamiltonians."""
    med = problem.problem
    variables = tuple(dataclasses.replace(v, ham=hams[v.key]) for v in med.variables)
    return BPProblem(MedProblem(variables, med.constraints, site_norm=med.site_norm),
                     problem.T)


def open_chain_with(edit):
    """The MED problem of a six-site open Heisenberg chain (n = 2), its
    windows and constraints passed through `edit`."""
    med = bp_chain_problem(LatticeSpec("chain", 6), HEIS, 2, 1.0).problem
    variables, constraints = edit(med.variables, med.constraints)
    return MedProblem(variables, constraints, site_norm=med.site_norm)


def with_field_on_top(problem, field):
    """A translation-invariant chain with `field` added on the top site of
    its window."""
    ham = cluster_hams(problem)["ti"]
    return with_hams(problem, {"ti": ham + np.kron(np.eye(len(ham) // len(field)), field)})


def bound_on(prob, rule, state):
    """`bp_free_energy` of a state read on the BP and primal layouts of
    `rule` (`_Layout`, `med._Compiled`) instead of the problem's own."""
    lay, comp = _Layout(prob, rule), med._Compiled(prob.problem, rule)
    rows = np.array([state.logs[name] for name in lay.names])
    point = bpdual._point(lay, lay.store(lay.msg.from_dense([rows])), comp, prob.T)
    return med._total(comp.terms(comp.cl.exp(point["g"]), prob.T).value)


def identity_state(problem):
    """Maximally mixed messages of a translation-invariant chain, as their
    unit-trace logs."""
    dim = problem.problem.variables[0].dim // 2
    logs = {"L": -math.log(dim) * np.eye(dim), "R": -math.log(dim) * np.eye(dim)}
    return BPState(logs=logs, residual=math.inf, iterations=0, converged=True)


def message_logs(messages):
    """The logs of positive messages, by scipy's `logm`."""
    return {name: scipy.linalg.logm(m).real for name, m in messages.items()}


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
        cfg = BPConfig()
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
        res = solve(finite_problem(geo), t, SolverConfig(tol_gradient=1e-7,
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
        # the smallest marginal eigenvalues are far below 1e-12 here; logged
        # from the eigen-factor they stay accurate and the loop converges in
        # 26 rounds (60 with the dense marginal logs)
        t = 0.3
        prob = bp_ti_problem(TFIM, 5, t)
        state = bp_fixed_point(prob, BPConfig(max_iters=200))
        assert state.converged
        f = bp_free_energy(state, prob)
        assert -1.2859632 < f < tfim_exact_f(t)

    @pytest.mark.parametrize("n, t, rounds", [
        (5, 0.2, 80),
        (7, 0.5, 60),
        pytest.param(8, 0.5, 60, marks=pytest.mark.slow),
    ], ids=["n=5 T=0.2", "n=7 T=0.5", "n=8 T=0.5"])
    def test_tfim_low_temperature_round_budget(self, n, t, rounds):
        # the dense marginal logs took 156 rounds at n=7 and had not
        # converged after 1500 at n=5 T=0.2 or 300 at n=8
        prob = bp_ti_problem(TFIM, n, t)
        state = bp_fixed_point(prob, BPConfig(max_iters=rounds))
        assert state.converged and state.status == "tol"
        assert bp_free_energy(state, prob) < tfim_exact_f(t)

    @pytest.mark.parametrize("t", [0.15, 0.1])
    def test_rotated_classical_chain_converges(self, t):
        # -J sum XX is the classical Ising chain, one Hadamard per site: its
        # parity blocks go through the factor logs, and the bound is exact
        # (the dense marginal logs had not converged after 10000 rounds)
        prob = bp_ti_problem(ModelSpec("tfim"), 4, t)
        state = bp_fixed_point(prob, BPConfig(max_iters=30))
        assert state.converged
        assert abs(bp_free_energy(state, prob) - ising_transfer_free_energy(1.0, 0.0, t)) <= 1e-12

    def test_periodic_chain_rejected(self):
        with pytest.raises(ValueError):
            bp_chain_problem(LatticeSpec("chain", 6, boundary="periodic"), HEIS, 2, 1.0)

    @pytest.mark.parametrize("n_sites, n", [(2, 1), (3, 2)])
    def test_single_window_is_exact(self, n_sites, n):
        # one window holds the whole chain: there are no messages, the fixed
        # point is immediate and the bound is the exact free energy
        spec = LatticeSpec("chain", n_sites)
        prob = bp_chain_problem(spec, HEIS, n, 1.0)
        state = bp_fixed_point(prob)
        assert state.converged and state.iterations == 1 and state.residual == 0.0
        assert state.logs == {}
        terms, sites = build_lattice(spec, HEIS)
        exact = exact_free_energy(total_hamiltonian(terms, sites), 1.0).f_total
        assert abs(bp_free_energy(state, prob) - exact) <= 1e-12
        # no constraint: the point has no multipliers, and nothing to tie
        point = bp_point(state, prob)
        assert point["y"].shape == (0,) and belief_consistency(state, prob) == 0.0
        states = cluster_states(prob.problem, point)
        assert abs(markov_free_energy(states, prob.problem, 1.0) - exact) <= 1e-12
        if n_sites == 3:
            assert abs(exact - (-2.288758575298)) <= 1e-12


class TestConfig:
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_tol_residual_must_be_finite(self, value):
        with pytest.raises(ValueError, match="tol_residual"):
            BPConfig(tol_residual=value)

    @pytest.mark.parametrize("value", [2.5, 0, True])
    def test_max_iters_must_be_a_count(self, value):
        with pytest.raises(ValueError, match="max_iters"):
            BPConfig(max_iters=value)


class TestSharedProblem:
    # the primal solver minimises the very problem object BP solves the dual of
    @pytest.mark.parametrize("make", [
        lambda: bp_ti_problem(HEIS, 2, 1.0),
        lambda: bp_ti_problem(TFIM, 2, 0.5),
        lambda: bp_chain_problem(LatticeSpec("chain", 8), HEIS, 2, 0.5),
        lambda: bp_chain_problem(LatticeSpec("chain", 6), TFIM, 1, 0.7),
    ], ids=["ti heis n=2", "ti tfim n=2", "open heis N=8 n=2", "open tfim N=6 n=1"])
    def test_primal_solve_matches_bp(self, make):
        prob = make()
        state = bp_fixed_point(prob)
        assert state.converged
        res = solve(prob.problem, prob.T, SolverConfig(tol_gradient=1e-7, tol_constraint=1e-8,
                                                       max_inner=3000))
        assert res.converged
        # solve reports per site; bp_free_energy totals a finite chain
        f_primal = res.f_per_site * prob.problem.site_norm
        assert abs(f_primal - bp_free_energy(state, prob)) <= 1e-7


class TestProblems:
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_ti_nonfinite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            bp_ti_problem(HEIS, 2, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_chain_nonfinite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            bp_chain_problem(LatticeSpec("chain", 6), HEIS, 2, t)

    @pytest.mark.parametrize("n", [2.7, True, 0])
    def test_ti_window_must_be_a_count(self, n):
        # a window of 2.7 sites must not quietly solve the looser n = 2 bound
        with pytest.raises(ValueError, match="window"):
            bp_ti_problem(HEIS, n, 1.0)

    @pytest.mark.parametrize("n", [1.9, True, 0])
    def test_chain_window_must_be_a_count(self, n):
        with pytest.raises(ValueError, match="window"):
            bp_chain_problem(LatticeSpec("chain", 6), HEIS, n, 1.0)

    @pytest.mark.parametrize("run", [lambda p: solve(p, 1.0),
                                     lambda p: bp_fixed_point(BPProblem(p, 1.0))],
                             ids=["primal", "bp"])
    def test_empty_problem_rejected(self, run):
        # before: both solvers raised IndexError on a problem with no clusters
        with pytest.raises(ValueError, match="at least one cluster variable"):
            run(MedProblem((), ()))

    def test_numpy_integer_windows_accepted(self):
        ti = bp_ti_problem(HEIS, np.int64(2), 1.0)
        chain = bp_chain_problem(LatticeSpec("chain", 6), HEIS, np.int64(2), 1.0)
        assert ti.problem.variables[0].dims == chain.problem.variables[0].dims == (2, 2, 2)

    @pytest.mark.parametrize("build", [
        # two self-constraints (x and y translates)
        lambda: ti_problem(ti_square_geometry(HEIS)),
        # a one-site overlap in a three-site window
        lambda: ti_problem(ti_chain_geometry(HEIS, [-3, -1])),
        # windows of growing size
        lambda: finite_problem(finite_geometry(LatticeSpec("chain", 5), HEIS, radius=2)),
        # the windows of an open chain listed right to left
        lambda: open_chain_with(lambda v, c: (v[::-1], c)),
        # an open chain with its first overlap untied
        lambda: open_chain_with(lambda v, c: (v, c[1:])),
    ], ids=["square", "gapped-shield", "finite-problem", "reversed-chain", "untied-overlap"])
    def test_other_shapes_rejected(self, build):
        with pytest.raises(ValueError, match="chain windows"):
            BPProblem(build(), 1.0)

    @pytest.mark.parametrize("model", [HEIS, TFIM], ids=["heis", "tfim"])
    @pytest.mark.parametrize("n_sites, n", [(6, 1), (6, 2), (7, 3)])
    def test_chain_clusters_follow_the_lattice_rule(self, model, n_sites, n):
        # every window past the first holds exactly the lattice's cluster of
        # its top site, and the windows add up to the chain Hamiltonian
        spec = LatticeSpec("chain", n_sites)
        prob = bp_chain_problem(spec, model, n, 1.0)
        geo = finite_geometry(spec, model, radius=n)
        hams = cluster_hams(prob)
        assert sorted(hams) == list(range(n, n_sites))
        for k in range(n + 1, n_sites):
            assert np.array_equal(hams[k], geo.hams[k])
        # window k holds sites k - n ... k
        total = sum(embed_mat(hams[k], (2,) * n_sites, tuple(range(k - n, k + 1)))
                    for k in hams)
        terms, sites = build_lattice(spec, model)
        assert np.array_equal(total, total_hamiltonian(terms, sites))


class TestUpdate:
    def test_identity_fixed_point_at_zero_hamiltonian(self):
        prob = bp_ti_problem(ModelSpec("classical_ising", J=0.0), 2, 1.0)
        state = identity_state(prob)
        assert state.status is None     # built by hand
        out = bp_update("ti", state, prob)
        dim = 4
        for m in out.values():
            assert np.linalg.norm(m - np.eye(dim) / dim) <= 1e-12

    def test_messages_go_to_neighbours_only(self):
        # before: the ends of an open chain also sent ("L", 2) and ("R", 7),
        # names the problem does not have
        prob = bp_chain_problem(LatticeSpec("chain", 8), HEIS, 2, 0.5)
        state = bp_fixed_point(prob)
        assert set(bp_update(2, state, prob)) == {("R", 2)}
        assert set(bp_update(7, state, prob)) == {("L", 7)}
        assert set(bp_update(4, state, prob)) == {("L", 4), ("R", 4)}
        ti = bp_ti_problem(HEIS, 2, 0.5)
        assert set(bp_update("ti", bp_fixed_point(ti), ti)) == {"L", "R"}
        single = bp_chain_problem(LatticeSpec("chain", 3), HEIS, 2, 0.5)
        assert bp_update(2, bp_fixed_point(single), single) == {}

    @staticmethod
    def multiplier_form(prob, m_left, m_right):
        """One undamped update of a window-1 TI chain, re-derived with scipy
        matrix functions in the multiplier (log-message) picture."""
        a_in = scipy.linalg.logm(m_left)
        b_in = scipy.linalg.logm(m_right)
        rho = scipy.linalg.expm(-cluster_hams(prob)["ti"] / prob.T + np.kron(b_in, np.eye(2))
                                + np.kron(np.eye(2), a_in))
        rho /= np.trace(rho).real
        marg_first = ptrace_mat(rho, (2, 2), (0,))
        marg_last = ptrace_mat(rho, (2, 2), (1,))
        ref_left = scipy.linalg.expm(scipy.linalg.logm(marg_first) - b_in)
        ref_left /= np.trace(ref_left).real
        ref_right = scipy.linalg.expm(scipy.linalg.logm(marg_last) - a_in)
        ref_right /= np.trace(ref_right).real
        return ref_left, ref_right

    def check_against_multiplier_form(self, prob, m_left, m_right, flip=False):
        # "L" arrives from the right, "R" from the left; with `flip`, the
        # logs of flip-invariant messages are averaged with their flip, which
        # moves them by the roundoff of `logm` only
        logs = message_logs({"L": m_left, "R": m_right})
        if flip:
            logs = {name: 0.5 * (m + m[::-1, ::-1]) for name, m in logs.items()}
        state = BPState(logs=logs, residual=math.inf, iterations=0, converged=False)
        out = bp_update("ti", state, prob)
        ref_left, ref_right = self.multiplier_form(prob, m_left, m_right)
        assert np.max(np.abs(out["L"] - ref_left)) <= 1e-10
        assert np.max(np.abs(out["R"] - ref_right)) <= 1e-10

    def test_against_independent_multiplier_form(self, rng):
        # one update on a random window-1 chain
        t = 1.0
        ham = rng.standard_normal((4, 4))
        prob = with_hams(bp_ti_problem(HEIS, 1, t), {"ti": sym(ham + ham.T)})
        self.check_against_multiplier_form(prob, _random_positive(rng, 2),
                                           _random_positive(rng, 2))

    def test_charge_breaking_problem_takes_one_sector(self, rng):
        # a random symmetric Hamiltonian breaks the charge and its parity;
        # the TFIM keeps the parity
        ham = rng.standard_normal((4, 4))
        prob = with_hams(bp_ti_problem(HEIS, 1, 0.7), {"ti": sym(ham + ham.T)})
        assert _layout(prob).msg.n == 4            # one 2 x 2 block
        assert _layout(bp_ti_problem(TFIM, 1, 0.7)).msg.n == 2    # two parity sectors
        self.check_against_multiplier_form(prob, _random_positive(rng, 2),
                                           _random_positive(rng, 2))

    def test_charge_breaking_message_takes_one_sector(self, rng):
        # X on the top site breaks the charge and keeps the flip: one sector,
        # a self-mirror 2 x 2 message block carried whole, which takes
        # flip-invariant messages that break the charge; Heisenberg's two
        # 1 x 1 sectors, a mirror pair carried once, reject them
        heis = bp_ti_problem(HEIS, 1, 0.7)
        prob = with_field_on_top(heis, PAULI_X)
        assert _layout(heis).msg.n == 1 and _layout(prob).msg.n == 4
        assert _layout(prob).msg.m_dst.size
        m_left, m_right = (_random_positive(rng, 2) for _ in range(2))
        m_left, m_right = (0.5 * (m + m[::-1, ::-1]) for m in (m_left, m_right))
        self.check_against_multiplier_form(prob, m_left, m_right, flip=True)
        with pytest.raises(ValueError, match="symmetry"):
            self.check_against_multiplier_form(heis, m_left, m_right, flip=True)


def _random_positive(rng, dim, mask=None):
    """Unit-trace exp of a random symmetric matrix; with `mask`, of its
    entries on the mask only (then the result is 0 off the mask)."""
    w = rng.standard_normal((dim, dim))
    w = sym(w + w.T)
    if mask is not None:
        w = np.where(mask, w, 0.0)
    m = scipy.linalg.expm(w)
    if mask is not None:
        m = np.where(mask, m, 0.0)
    return m / np.trace(m).real


def _unit_exp(log_mat):
    vals, vecs = np.linalg.eigh(sym(log_mat))
    w = np.exp(vals - vals[-1])
    return sym((vecs * (w / w.sum())) @ vecs.T)


def _density_matrix_update(log_lambda, n, m_right, m_left, old, damping):
    """One damped step on density-matrix messages: every use of a message
    takes its clamped log, and the damped mix is exponentiated. `m_right`
    arrives from the left on the first n sites and `m_left` from the right
    on the last n (None beyond an open end); `old` holds the previous value
    of each message sent ("L" to the left, "R" to the right)."""
    dims = (2,) * (n + 1)
    first, last = tuple(range(n)), tuple(range(1, n + 1))

    def belief(mr, ml):
        log_rho = log_lambda
        if mr is not None:
            log_rho = log_rho + embed_mat(logm_psd(mr, EIG_FLOOR), dims, first)
        if ml is not None:
            log_rho = log_rho + embed_mat(logm_psd(ml, EIG_FLOOR), dims, last)
        return _unit_exp(log_rho)

    new = {}
    for side in old:
        keep, inverse = (first, m_right) if side == "L" else (last, m_left)
        log_new = logm_psd(ptrace_mat(belief(m_right, m_left), dims, keep), EIG_FLOOR)
        if inverse is not None:
            log_new = log_new - logm_psd(inverse, EIG_FLOOR)
        new[side] = _unit_exp(log_new)
    damped = {side: _unit_exp((1.0 - damping) * logm_psd(old[side], EIG_FLOOR)
                              + damping * logm_psd(new[side], EIG_FLOOR))
              for side in old}
    return new, damped


class TestLogSpaceStep:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1),
           damping=st.sampled_from([0.5, 1.0]), conserving=st.booleans(),
           chain=st.booleans(), where=st.integers(0, 3))
    def test_matches_density_matrix_path(self, n, seed, damping, conserving, chain, where):
        # a random Hamiltonian and random messages, all charge-conserving (the
        # sector path) or not (one sector per matrix); one step of the
        # translation-invariant pair, or of one open-chain window
        rng = np.random.default_rng(seed)
        cl_mask = charge_mask(n + 1) if conserving else None
        m_mask = charge_mask(n) if conserving else None
        if chain:
            prob = bp_chain_problem(LatticeSpec("chain", n + 3), HEIS, n, 1.0)
            keys = list(cluster_hams(prob))
            # window 0 only sends right, the last window only left
            k, sides = [(keys[0], ("R",)), (keys[1], ("L",)), (keys[1], ("R",)),
                        (keys[2], ("L",))][where]
            names = [("R", j) for j in keys[:-1]] + [("L", j) for j in keys[1:]]
            incoming = (("R", k - 1), ("L", k + 1))
            sent = {side: (side, k) for side in sides}
        else:
            prob = bp_ti_problem(HEIS, n, 1.0)
            k, sides, names = "ti", ("L", "R"), ["L", "R"]
            incoming = ("R", "L")
            sent = {"L": "L", "R": "R"}
        hams = {}
        for key in cluster_hams(prob):
            ham = rng.standard_normal((2 ** (n + 1), 2 ** (n + 1)))
            ham = sym(ham + ham.T)
            hams[key] = ham if cl_mask is None else np.where(cl_mask, ham, 0.0)
        prob = with_hams(prob, hams)
        messages = {name: _random_positive(rng, 2 ** n, m_mask) for name in names}
        m_right, m_left = (messages.get(name) for name in incoming)
        new_ref, damped_ref = _density_matrix_update(
            -hams[k] / prob.T, n, m_right, m_left,
            {side: messages[name] for side, name in sent.items()}, damping)

        logs = message_logs(messages)
        state = BPState(logs=logs, residual=math.inf, iterations=0, converged=False)
        new = bp_update(k, state, prob)
        # log-space path: unit-trace logs in, the damped mix of logs written
        # unnormalized, then one normalization of every message row
        lay, store = bpdual._state_store(state, prob)
        assert (lay.msg.n < 4 ** n) == conserving
        rows = np.array([lay.row[sent[side]] for side in sides])
        out = lay.outgoing(store, lay.keys.index(k), sides)
        lay.mix(store, rows, out, damping)
        unit, msgs = lay.normalize(store[:-1, :-1])
        for side, row in zip(sides, rows):
            assert np.max(np.abs(new[sent[side]] - new_ref[side])) <= 1e-10
            mixed = lay.msg.to_dense(msgs[row])[0]
            assert np.max(np.abs(mixed - damped_ref[side])) <= 1e-10
            # the shifted mix is the unit-trace log carried to the next round
            unit_log = lay.msg.to_dense(unit[row])[0]
            assert np.max(np.abs(unit_log - scipy.linalg.logm(mixed).real)) <= 1e-8
        # the rows no step wrote keep their unit-trace logs
        kept = np.setdiff1d(np.arange(len(lay.names)), rows)
        assert np.max(np.abs(unit[kept] - store[kept, :-1]), initial=0.0) <= 1e-12


class TestSectors:
    def test_iterates_stay_in_sectors(self):
        prob = bp_ti_problem(HEIS, 4, 0.5)
        state = bp_fixed_point(prob)
        assert state.converged
        off_msg, off_cluster = ~charge_mask(4), ~charge_mask(5)
        for name in ("L", "R"):
            assert not np.any(state.logs[name][off_msg])
        beliefs, overlaps = beliefs_from_messages(state, prob)
        assert not np.any(beliefs["ti"][off_cluster])
        assert not np.any(overlaps["ti"][off_msg])

    @pytest.mark.parametrize("make", [lambda: bp_ti_problem(HEIS, 4, 0.5),
                                      lambda: bp_chain_problem(LatticeSpec("chain", 8),
                                                               HEIS, 3, 0.5)],
                             ids=["ti n=4", "open N=8 n=3"])
    def test_sectors_agree_with_one_sector(self, make):
        self.check_agrees_with_one_sector(make())

    @pytest.mark.parametrize("make", [lambda: bp_ti_problem(TFIM, 3, 0.5),
                                      lambda: bp_chain_problem(LatticeSpec("chain", 6),
                                                               TFIM, 2, 0.5)],
                             ids=["ti n=3", "open N=6 n=2"])
    def test_parity_sectors_agree_with_one_sector(self, make):
        prob = make()
        lay = _layout(prob)
        assert [st.shape for st in lay.msg.stacks] == [(2, lay.dim // 2, lay.dim // 2)]
        self.check_agrees_with_one_sector(prob)

    @staticmethod
    def check_agrees_with_one_sector(prob):
        cfg = BPConfig()
        sectors = bp_fixed_point(prob, cfg)
        one = _Layout(prob, _Rule(1))
        assert [st.shape[0] for st in one.msg.stacks] == [1]
        dense = _iterate(one, cfg)
        assert sectors.converged and dense.converged
        assert sectors.iterations == dense.iterations
        for name, log in sectors.logs.items():
            assert np.max(np.abs(log - dense.logs[name])) <= 1e-12
        assert abs(bp_free_energy(sectors, prob) - bound_on(prob, _Rule(1), dense)) <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: bp_ti_problem(HEIS, 4, 0.5),
        lambda: bp_ti_problem(HEIS, 5, 0.5),
        lambda: bp_ti_problem(HEIS, 6, 0.5),
        lambda: bp_chain_problem(LatticeSpec("chain", 8), HEIS, 2, 0.5),
        lambda: bp_chain_problem(LatticeSpec("chain", 8), HEIS, 3, 0.5),
    ], ids=["ti n=4", "ti n=5", "ti n=6", "open N=8 n=2", "open N=8 n=3"])
    def test_flip_agrees_with_u1(self, make):
        # mirror sectors carried once: the same logs, bound and sweeps as
        # the U(1) layout that carries both
        prob = make()
        lay, u1 = _layout(prob), _Layout(prob, _Rule(0))
        assert lay.msg.mult.max() == 2 and lay.msg.mult.sum() == u1.msg.n
        cfg = BPConfig()
        flip, plain = _iterate(lay, cfg), _iterate(u1, cfg)
        assert flip.converged and plain.converged
        assert flip.iterations == plain.iterations
        for name, log in flip.logs.items():
            assert np.max(np.abs(log - plain.logs[name])) <= 1e-12
        assert abs(bp_free_energy(flip, prob) - bound_on(prob, _Rule(0), plain)) <= 1e-12

    def test_flip_breaking_field_turns_the_flip_off(self):
        # Heisenberg plus a staggered field keeps S^z but not the flip, and
        # so neither does the layout; it takes the messages of the field's
        # Gibbs state, which Heisenberg's layout rejects
        t = 0.7
        heis = bp_ti_problem(HEIS, 1, t)
        field = 0.4 * (np.kron(np.diag([1.0, -1.0]), np.eye(2))
                       - np.kron(np.eye(2), np.diag([1.0, -1.0])))
        prob = with_hams(heis, {"ti": cluster_hams(heis)["ti"] + field})
        assert _layout(heis).msg.mult.max() == 2
        assert _layout(prob).msg.mult.max() == 1 and _layout(prob).msg.n == 2
        rho = gibbs_state(cluster_hams(prob)["ti"], t)
        m_left, m_right = ptrace_mat(rho, (2, 2), (0,)), ptrace_mat(rho, (2, 2), (1,))
        TestUpdate().check_against_multiplier_form(prob, m_left, m_right)
        with pytest.raises(ValueError, match="symmetry"):
            TestUpdate().check_against_multiplier_form(heis, m_left, m_right)

    @pytest.mark.parametrize("model", [HEIS, TFIM], ids=["heis", "tfim"])
    def test_rotated_problem_matches_real(self, model):
        # u = diag(1, e^{0.7i}) on every site makes log Lambda complex; it
        # commutes with the charge, so Heisenberg keeps its sectors
        t = 0.5
        prob = bp_ti_problem(model, 2, t)
        f_real = bp_free_energy(bp_fixed_point(prob), prob)
        u1 = np.diag([1.0, np.exp(0.7j)])
        u = np.kron(np.kron(u1, u1), u1)
        prob = with_hams(prob, {"ti": u @ cluster_hams(prob)["ti"] @ u.conj().T})
        state = bp_fixed_point(prob)
        assert state.converged and np.iscomplexobj(state.logs["L"])
        assert abs(bp_free_energy(state, prob) - f_real) <= 1e-10
        assert belief_consistency(state, prob) <= 1e-7


@pytest.fixture(scope="module")
def tfim_n4_cold():
    """TFIM n=4 at T = 0.1 and its BP state, a slow fixed point read twice."""
    prob = bp_ti_problem(TFIM, 4, 0.1)
    return prob, bp_fixed_point(prob, BPConfig(max_iters=3000))


class TestBeliefs:
    def test_identity_messages_give_bare_gibbs(self):
        t = 0.9
        prob = bp_ti_problem(HEIS, 2, t)
        state = identity_state(prob)
        beliefs, _ = beliefs_from_messages(state, prob)
        ref = gibbs_state(cluster_hams(prob)["ti"], t)
        assert np.max(np.abs(beliefs["ti"] - ref)) <= 1e-10

    def test_beliefs_use_the_carried_logs(self, tfim_n4_cold):
        # at T = 0.1 the smallest message eigenvalues underflow in float64,
        # so a state carries logs: the messages, clamped at 1e-12 and logged
        # again, would give beliefs off by 0.17 in trace distance and
        # f = -1.3465. The loop converges here (in 1604 rounds; 2530 with
        # the dense marginal logs), so the free energy is read without a
        # warning
        prob, state = tfim_n4_cold
        assert state.converged
        assert belief_consistency(state, prob) <= 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = bp_free_energy(state, prob)
        assert abs(f - (-1.28031)) <= 1e-4

    def test_factor_logs_match_a_40_digit_marginal(self, tfim_n4_cold):
        # at the BP point the "L" marginal of the belief has its smallest
        # eigenvalue at 2.76e-13; its log from the eigen-factor keeps it to
        # 1e-10 relative, where the dense trace and eigh missed it by 2.5e-5
        prob, state = tfim_n4_cold
        lay, store = bpdual._state_store(state, prob)
        g = lay.cluster_logs(store, slice(0, 1))
        with mpmath.workdps(40):
            w, v = mpmath.eigsy(mpmath.matrix(lay.cluster.to_dense(g)[0][0].tolist()))
            e = [mpmath.exp(x - max(w)) for x in w]
            rho = v * mpmath.diag([x / sum(e) for x in e]) * v.T
            d = rho.rows // 2
            # the first n sites kept: state (r, s) of the cluster is 2 r + s
            marg = mpmath.matrix([[rho[2 * r, 2 * c] + rho[2 * r + 1, 2 * c + 1]
                                   for c in range(d)] for r in range(d)])
            exact = float(min(mpmath.eigsy(marg, eigvals_only=True)))
        assert 2.7e-13 < exact < 2.8e-13
        f = lay.cluster.factor(lay.cluster.spectrum(g))[0]
        logs = lay.msg.log_gram([f[cols] for cols in lay.factors[("L",)]])
        assert abs(np.exp(lay.msg.eigvals(logs)).min() / exact - 1.0) <= 1e-10

    def test_product_hamiltonian_product_beliefs(self):
        t = 0.7
        model = ModelSpec("tfim", J=0.0, g=0.9)
        spec = LatticeSpec("chain", 5)
        prob = bp_chain_problem(spec, model, 1, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-12))
        beliefs, _ = beliefs_from_messages(state, prob)
        g1 = gibbs_state(model_site_term(model), t)
        for rho in beliefs.values():
            assert np.max(np.abs(rho - np.kron(g1, g1))) <= 1e-9

    def test_classical_beliefs_match_primal_minimizer(self):
        spec = LatticeSpec("chain", 5)
        t = 1.0
        prob = bp_chain_problem(spec, ISING, 1, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-12))
        beliefs, _ = beliefs_from_messages(state, prob)
        primal = finite_problem(finite_geometry(spec, ISING, radius=1))
        res = solve(primal, t, SolverConfig(tol_gradient=1e-8, tol_constraint=1e-9,
                                            max_inner=3000))
        states = cluster_states(primal, res.meta["warm"])
        for k, rho in beliefs.items():
            assert trace_distance(rho, states[k]) <= 1e-8


class TestBoundAtTheBPPoint:
    """The bound is the primal objective at the BP point, read on the
    problem's primal layout."""

    @pytest.mark.parametrize("make", [
        lambda: bp_ti_problem(HEIS, 4, 0.5),
        lambda: bp_ti_problem(TFIM, 4, 0.5),
        lambda: bp_chain_problem(LatticeSpec("chain", 8), HEIS, 2, 0.5),
    ], ids=["ti heis n=4", "ti tfim n=4", "open heis N=8 n=2"])
    def test_bound_is_the_dense_objective_at_the_beliefs(self, make):
        prob = make()
        state = bp_fixed_point(prob)
        beliefs, _ = beliefs_from_messages(state, prob)
        ref = markov_free_energy(beliefs, prob.problem, prob.T)
        assert abs(bp_free_energy(state, prob) - ref) <= 1e-12

    def test_flip_breaking_problem_gets_its_own_layout(self):
        # -h Z on the top site keeps S^z and breaks the flip: the problem's
        # one layout has no flip, and its loop state reads on it, its point
        # taken by `cluster_states` and `solve`
        heis = bp_ti_problem(HEIS, 2, 0.5)
        prob = with_field_on_top(heis, np.diag([-0.3, 0.3]))
        assert prob.problem._rule == _Rule(0, flip=False)
        assert _compiled(prob.problem).cl.n > _compiled(heis.problem).cl.n
        state = bp_fixed_point(prob)
        beliefs, _ = beliefs_from_messages(state, prob)
        ref = markov_free_energy(beliefs, prob.problem, prob.T)
        assert abs(bp_free_energy(state, prob) - ref) <= 1e-12
        point = bp_point(state, prob)
        states = cluster_states(prob.problem, point)
        assert trace_distance(states["ti"], beliefs["ti"]) <= 1e-12
        res = solve(prob.problem, prob.T, warm=point)
        assert res.converged and res.iterations == 0

    @pytest.mark.parametrize("make", [
        *(lambda n=n: bp_ti_problem(HEIS, n, 0.5) for n in (2, 3, 4, 5, 6)),
        *(lambda n=n: bp_chain_problem(LatticeSpec("chain", 16), HEIS, n, 0.5)
          for n in (2, 3, 4)),
    ], ids=[f"ti n={n}" for n in (2, 3, 4, 5, 6)] + [f"open N=16 n={n}" for n in (2, 3, 4)])
    def test_states_are_flip_invariant(self, make):
        # the self-mirror blocks drift off flip-invariance by roundoff; the
        # returned logs are symmetrized, so the state lies on the layout its
        # loop ran on, which every reader requires
        prob = make()
        state = bp_fixed_point(prob)
        assert state.converged
        for m in state.logs.values():
            assert np.array_equal(m, m[::-1, ::-1])
        bp_free_energy(state, prob)


# the benchmark's BP cases: 15 translation-invariant chains and three open
# N=16 Heisenberg chains
BP_CHAIN_CASES = (
    [(HEIS, n, t) for n in (4, 5, 6) for t in (0.3, 0.5, 1.0)]
    + [(TFIM, n, t) for n, t in ((4, 0.3), (4, 0.5), (4, 1.0), (5, 0.5), (5, 1.0), (6, 1.0))]
    + [(LatticeSpec("chain", 16), HEIS, n, 0.5) for n in (2, 3, 4)])


def _case_id(case):
    *spec, model, n, t = case
    return f"{'open N=16 ' if spec else 'ti '}{model.name[:4]} n={n} T={t}"


@pytest.fixture(scope="module", params=BP_CHAIN_CASES, ids=_case_id)
def bp_case(request):
    """A benchmark BP problem and its fixed point."""
    *spec, model, n, t = request.param
    prob = bp_chain_problem(*spec, model, n, t) if spec else bp_ti_problem(model, n, t)
    return prob, bp_fixed_point(prob)


class TestBPPoint:
    """A BP fixed point is a primal point: G, and on each constraint -T
    times the unit-trace log of its "L" message (the one its right cluster
    sends its left one), on the primal layout."""

    def test_primal_lagrangian_is_stationary(self, bp_case):
        # measured at most 8.8e-10; the "R" log or the opposite sign gives
        # about 1e-2
        prob, state = bp_case
        assert state.converged
        point = bp_point(state, prob)
        comp = _compiled(prob.problem)
        grad = comp.al_eval(point["g"], prob.T, point["y"], 0.0, True)["grad"]
        assert np.max(np.abs(grad)) <= 1e-8

    def test_states_at_the_point_give_the_bound(self, bp_case):
        # measured at most 2.7e-15
        prob, state = bp_case
        states = cluster_states(prob.problem, bp_point(state, prob))
        f = markov_free_energy(states, prob.problem, prob.T)
        assert abs(f - bp_free_energy(state, prob)) <= 1e-12

    @pytest.mark.parametrize("model", [HEIS, TFIM], ids=["heis", "tfim"])
    def test_primal_solve_from_the_point_takes_no_step(self, model):
        # a cold start takes 94 inner iterations on Heisenberg; on the TFIM
        # it ends unconverged after 17,306
        prob = bp_ti_problem(model, 4, 0.5)
        state = bp_fixed_point(prob)
        res = solve(prob.problem, prob.T, warm=bp_point(state, prob))
        assert res.converged and res.iterations == 0
        assert res.f_per_site == bp_free_energy(state, prob)


class TestInverseFactors:
    def test_retained_agrees_with_primal(self):
        # on a non-commuting chain the inverse factors do not drop out; with
        # them the fixed point is the primal minimizer's
        t = 0.5
        cfg_med = SolverConfig(tol_gradient=1e-7, tol_constraint=1e-8, max_inner=3000)
        f_med = solve(ti_problem(ti_chain_geometry(HEIS, 3)), t, cfg_med).f_per_site
        prob = bp_ti_problem(HEIS, 3, t)
        assert abs(bp_free_energy(bp_fixed_point(prob), prob) - f_med) <= 1e-4


class TestAcceleration:
    # with the mix off, each schedule runs its plain round: damped on the TI
    # pair, the undamped forward-backward sweep on an open chain (the name
    # predates the undamped open round)
    @pytest.mark.parametrize("make, plain", [
        (lambda: bp_ti_problem(HEIS, 4, 0.5), 16),
        (lambda: bp_chain_problem(LatticeSpec("chain", 16), HEIS, 3, 0.5), 6),
    ], ids=["ti heis n=4", "open heis N=16 n=3"])
    def test_history_zero_is_the_plain_damped_iteration(self, make, plain, monkeypatch):
        prob = make()
        fast = bp_fixed_point(prob)
        monkeypatch.setattr(bpdual, "_HISTORY", 0)
        slow = bp_fixed_point(prob)
        assert slow.converged and slow.iterations == plain
        assert fast.converged and fast.iterations <= 20
        assert abs(bp_free_energy(fast, prob) - bp_free_energy(slow, prob)) <= 1e-8

    def test_complex_logs_stay_hermitian(self, rng, monkeypatch):
        # a random complex Hermitian Hamiltonian breaks every charge, so the
        # layout is one dense block per matrix; real mixing coefficients
        # keep every mixed point and the returned logs exactly Hermitian
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        prob = with_hams(bp_ti_problem(HEIS, 2, 1.0), {"ti": 0.5 * (a + a.conj().T)})
        lay = _layout(prob)
        assert [st.shape for st in lay.msg.stacks] == [(1, 4, 4)]
        mixed, step = [], bpdual._Anderson.step

        def spy(self, x, g):
            mixed.append(step(self, x, g))
            return mixed[-1]

        monkeypatch.setattr(bpdual._Anderson, "step", spy)
        # both runs stop well inside the 1e-9 the bounds are compared at
        cfg = BPConfig(tol_residual=1e-10)
        state = bp_fixed_point(prob, cfg)
        assert state.converged
        mats = [m for x in mixed for m in lay.msg.to_dense(x)[0]] + list(state.logs.values())
        assert np.iscomplexobj(mats[0])
        for m in mats:
            assert np.array_equal(m, m.conj().T)
        monkeypatch.setattr(bpdual, "_HISTORY", 0)
        plain = bp_fixed_point(prob, cfg)
        assert plain.converged and plain.iterations > state.iterations
        assert abs(bp_free_energy(state, prob) - bp_free_energy(plain, prob)) <= 1e-9

    def test_rank_deficient_history_is_cleared(self):
        # G moves a fixed x along one direction: the second residual
        # difference repeats the first, so the mix falls back to G(x)
        acc, x, e = bpdual._Anderson(), np.zeros(3), np.eye(3)[0]
        g = 0 * e
        assert acc.step(x, g) is g                      # no history yet
        assert np.array_equal(acc.step(x, e), 0 * e)    # the mix cancels f
        g = 2 * e
        assert acc.step(x, g) is g and not acc.df and not acc.dg

    def test_tfim_n6_low_temperature_converges(self):
        # the plain damped iteration with the dense marginal logs was
        # unconverged after 2000 sweeps here, the mixed one took 654 rounds
        t = 0.3
        prob = bp_ti_problem(TFIM, 6, t)
        state = bp_fixed_point(prob, BPConfig(max_iters=60))
        assert state.converged
        assert bp_free_energy(state, prob) < tfim_exact_f(t)


class TestTreeSchedule:
    # an open chain's clusters form a tree: the forward sweep reads the
    # right-moving messages of the same round and the backward sweep the
    # left-moving ones, so the round runs undamped

    @pytest.mark.parametrize("t", [1.0, 0.3, 0.15])
    @pytest.mark.parametrize("n_sites, n", [(10, 2), (10, 3), (16, 4)])
    def test_classical_chain_is_exact_after_one_round(self, n_sites, n, t):
        # one forward-backward round is exact, the second one checks it
        # (the damped round took 4-16)
        spec = LatticeSpec("chain", n_sites)
        prob = bp_chain_problem(spec, ISING, n, t)
        state = bp_fixed_point(prob, BPConfig(tol_residual=1e-12))
        assert state.converged and state.iterations <= 2
        if n_sites <= 12:
            terms, sites = build_lattice(spec, ISING)
            exact = exact_free_energy(total_hamiltonian(terms, sites), t).f_total
            assert abs(bp_free_energy(state, prob) - exact) <= 1e-12

    def test_default_tolerance_bound_is_accurate(self):
        # a random complex open chain: the residual measures the full step,
        # so the default stop lies close to the fixed point (the damped
        # round's half step left the bound 1.3e-7 off after 38 rounds)
        rng = np.random.default_rng(0)
        prob = bp_chain_problem(LatticeSpec("chain", 8), HEIS, 1, 0.3)
        hams = {}
        for key in cluster_hams(prob):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            hams[key] = 0.5 * (a + a.conj().T)
        prob = with_hams(prob, hams)
        state = bp_fixed_point(prob)
        tight = bp_fixed_point(prob, BPConfig(tol_residual=1e-13))
        assert state.converged and tight.converged
        assert abs(bp_free_energy(state, prob) - bp_free_energy(tight, prob)) <= 2e-8


class TestSweepBudget:
    def test_rounds_over_fixed_tables(self):
        # the benchmark's 15 TI cases (242 rounds; 290 with the dense
        # marginal logs and the TI pair damped at 0.5) and 18 open chains
        # (120; 286 under the damped open round): a change to the round or
        # the mix that costs rounds fails here
        ti = ([(HEIS, n, t) for n in (4, 5, 6) for t in (0.3, 0.5, 1.0)]
              + [(TFIM, n, t) for n, t in ((4, 0.3), (4, 0.5), (4, 1.0),
                                           (5, 0.5), (5, 1.0), (6, 1.0))])
        spec = LatticeSpec("chain", 16)
        open_chains = [(model, n, t) for model in (HEIS, TFIM) for n in (2, 3, 4)
                       for t in (1.0, 0.5, 0.3)]
        states = [bp_fixed_point(bp_ti_problem(*case)) for case in ti]
        assert all(s.converged for s in states)
        assert sum(s.iterations for s in states) <= 242
        states = [bp_fixed_point(bp_chain_problem(spec, *case)) for case in open_chains]
        assert all(s.converged for s in states)
        assert sum(s.iterations for s in states) <= 130


class TestFlags:
    def test_nonconverged_state_warns(self):
        prob = bp_ti_problem(HEIS, 2, 0.5)
        state = bp_fixed_point(prob, BPConfig(max_iters=2))
        assert not state.converged and state.status == "max_iters"
        with pytest.warns(RuntimeWarning):
            bp_free_energy(state, prob)

    @pytest.mark.parametrize("fail_at", ["first", "middle"])
    def test_eigensolver_failure_returns_the_last_round(self, fail_at, monkeypatch):
        # LAPACK's eigh can fail to converge on a block of tightly clustered
        # eigenvalues (it did on open -J sum XX, N=10 n=5 T=0.15, about
        # round 705 of the damped loop); the loop ends there and returns the
        # last completed round, unconverged
        prob = bp_chain_problem(LatticeSpec("chain", 8), HEIS, 2, 0.5)
        # only a cluster belief has blocks of this size: the failure comes
        # inside a sweep, after some of the round's steps were written
        size = max(st.shape[1] for st in _layout(prob).cluster.stacks)
        eigh, calls = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape[-1] == size)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        full = bp_fixed_point(prob)
        assert full.converged and full.iterations >= 3
        fail = 1 if fail_at == "first" else sum(calls) // 2
        calls.clear()

        def failing(a, *args, **kwargs):
            calls.append(a.shape[-1] == size)
            if sum(calls) == fail and calls[-1]:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        state = bp_fixed_point(prob)
        assert not state.converged and state.status == "linalg"
        assert all(np.isfinite(m).all() for m in state.logs.values())
        if fail_at == "first":
            # no round completed: the identity start messages
            assert state.iterations == 0 and state.residual == math.inf
            for m in state.logs.values():
                assert np.array_equal(m, -math.log(4) * np.eye(4))
        else:
            assert 1 <= state.iterations < full.iterations
            capped = bp_fixed_point(prob, BPConfig(max_iters=state.iterations))
            assert state.residual == capped.residual
            for name, m in capped.logs.items():
                assert np.array_equal(state.logs[name], m)
        with pytest.warns(RuntimeWarning):
            assert np.isfinite(bp_free_energy(state, prob))

    def test_svd_failure_stops_the_loop(self, monkeypatch):
        # the message logs come from LAPACK's svd, which can fail too
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        state = bp_fixed_point(bp_ti_problem(HEIS, 2, 0.5))
        assert (state.status, state.converged, state.iterations) == ("linalg", False, 0)

    def test_consistency_tracks_residual(self):
        prob = bp_ti_problem(HEIS, 2, 1.0)
        for tol in (1e-6, 1e-9):
            state = bp_fixed_point(prob, BPConfig(tol_residual=tol))
            assert belief_consistency(state, prob) <= 10 * tol


# every call that reads a BP state of a translation-invariant chain
READERS = [lambda state, prob: bp_update("ti", state, prob), beliefs_from_messages,
           belief_consistency, bp_free_energy, bp_point]
READER_IDS = ["update", "beliefs", "consistency", "free energy", "point"]


class TestStateOfAnotherProblem:
    def test_other_window_rejected(self):
        # before: IndexError from a boolean index of the wrong size
        state = bp_fixed_point(bp_ti_problem(HEIS, 4, 0.5))
        with pytest.raises(ValueError, match="another problem"):
            bp_free_energy(state, bp_ti_problem(HEIS, 2, 0.5))

    def test_missing_message_rejected(self):
        # before: a bare KeyError for the missing name
        prob = bp_ti_problem(HEIS, 2, 0.5)
        state = bp_fixed_point(prob)
        del state.logs["R"]
        with pytest.raises(ValueError, match="another problem"):
            beliefs_from_messages(state, prob)

    def test_point_of_another_problem_rejected(self):
        state = bp_fixed_point(bp_ti_problem(HEIS, 4, 0.5))
        with pytest.raises(ValueError, match="another problem"):
            bp_point(state, bp_ti_problem(HEIS, 2, 0.5))
        prob = bp_ti_problem(HEIS, 2, 0.5)
        point = bp_point(bp_fixed_point(prob), prob)
        with pytest.raises(ValueError, match="another problem"):
            solve(bp_ti_problem(HEIS, 3, 0.5).problem, 0.5, warm=point)

    def test_open_chain_names_checked(self):
        prob = bp_chain_problem(LatticeSpec("chain", 5), HEIS, 2, 0.5)
        state = bp_fixed_point(prob)
        with pytest.raises(ValueError, match="another problem"):
            belief_consistency(state, bp_chain_problem(LatticeSpec("chain", 6), HEIS, 2, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("read", READERS, ids=READER_IDS)
    def test_nonfinite_logs_rejected(self, read, bad):
        # before: a NaN log raised LinAlgError "Eigenvalues did not
        # converge" from LAPACK, and an infinite one gave a bound of nan
        prob = bp_ti_problem(HEIS, 2, 0.5)
        state = bp_fixed_point(prob)
        state.logs["L"][1, 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            read(state, prob)
        # and the rejected logs leave no primal layout behind
        assert "_layout" not in vars(prob.problem)


class TestOneLayoutPerProblem:
    """Every public call reads the one layout cached on the problem, under
    its Hamiltonians' rule, built once."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The layouts built, in order: (class name, rule) of each `_Layout`
        (BP) and `med._Compiled` (primal)."""
        built = []
        for cls in (_Layout, med._Compiled):
            def counting(self, problem, rule, init=cls.__init__, name=cls.__name__):
                built.append((name, rule))
                init(self, problem, rule)
            monkeypatch.setattr(cls, "__init__", counting)
        return built

    def test_every_entry_point_reads_one_layout(self, built):
        # before: at least one layout per call, five here
        prob = bp_ti_problem(HEIS, 4, 0.5)
        state = bp_fixed_point(prob)
        bp_update("ti", state, prob)
        beliefs_from_messages(state, prob)
        belief_consistency(state, prob)
        bp_free_energy(state, prob)
        point = bp_point(state, prob)
        solve(prob.problem, prob.T, warm=point)
        solve(prob.problem, 1.0)
        assert built == [("_Layout", _Rule(0, flip=True)), ("_Compiled", _Rule(0, flip=True))]

    def test_hamiltonians_rule_is_read_once_per_problem(self, monkeypatch):
        # before: once per BP call, twice per state read and once per solve,
        # seven here
        prob = bp_ti_problem(HEIS, 3, 0.5)
        hams = [v.ham for v in prob.problem.variables]
        reads, sector_rule = [], layout._sector_rule

        def counting(pairs):
            pairs = list(pairs)
            if any(m is h for m, _ in pairs for h in hams):
                reads.append(1)
            return sector_rule(pairs)

        monkeypatch.setattr(med, "_sector_rule", counting)
        state = bp_fixed_point(prob)
        bp_free_energy(state, prob)
        beliefs_from_messages(state, prob)
        solve(prob.problem, 0.5)
        solve(prob.problem, 1.0)
        assert len(reads) == 1

    @pytest.mark.parametrize("make", [
        lambda: bp_ti_problem(HEIS, 4, 0.5),
        lambda: bp_chain_problem(LatticeSpec("chain", 16), HEIS, 3, 0.5),
    ], ids=["ti heis n=4", "open heis N=16 n=3"])
    def test_second_run_builds_no_index_map(self, make, monkeypatch):
        # the index maps are built with the cached layouts: no step of the
        # loop, nor the bound, builds one
        calls, embed, trace_map = [], layout.embed_mat, layout._Flat.trace_map

        def counting_embed(*args):
            calls.append("embed_mat")
            return embed(*args)

        def counting_trace_map(self, *args):
            calls.append("trace_map")
            return trace_map(self, *args)

        monkeypatch.setattr(layout, "embed_mat", counting_embed)
        monkeypatch.setattr(layout._Flat, "trace_map", counting_trace_map)
        prob = make()
        bp_free_energy(bp_fixed_point(prob), prob)
        assert "embed_mat" in calls and "trace_map" in calls
        calls.clear()
        state = bp_fixed_point(prob)
        bp_free_energy(state, prob)
        assert state.converged and calls == []

    @pytest.mark.parametrize("read", READERS, ids=READER_IDS)
    @pytest.mark.parametrize("shift", [
        # S^z = 0 and 1 mixed: off the sectors
        1e-3 * (np.eye(4, k=1) + np.eye(4, k=-1)),
        # the mirror blocks of |00> and |11> differ
        np.diag([0.3, 0.0, 0.0, 0.0]),
        # the self-mirror S^z = 1 block, carried whole, is not flip-invariant
        np.diag([0.0, 0.3, -0.3, 0.0]),
    ], ids=["charge", "pair", "self-mirror"])
    def test_broken_state_adds_no_layout(self, built, read, shift):
        # before: the state's own rule compiled a second BP and primal layout
        prob = bp_ti_problem(HEIS, 2, 0.5)
        state = bp_fixed_point(prob)
        broken = BPState(logs={k: m + shift for k, m in state.logs.items()},
                         residual=math.inf, iterations=0, converged=True)
        with pytest.raises(ValueError, match="symmetry"):
            read(broken, prob)
        assert built == [("_Layout", _Rule(0, flip=True))]

    @pytest.mark.parametrize("make", [
        lambda: bp_ti_problem(HEIS, 4, 0.5),
        lambda: bp_ti_problem(TFIM, 4, 0.3),
        lambda: bp_chain_problem(LatticeSpec("chain", 16), HEIS, 3, 0.5),
    ], ids=["ti heis n=4", "ti tfim n=4", "open heis N=16 n=3"])
    def test_cached_layout_carries_no_loop_state(self, make):
        # a second fixed point on one problem, and one on a fresh problem,
        # repeat the first bit for bit
        prob = make()
        runs = [(prob, bp_fixed_point(prob)), (prob, bp_fixed_point(prob))]
        fresh = make()
        runs.append((fresh, bp_fixed_point(fresh)))
        first = runs[0][1]
        f_first = bp_free_energy(first, prob)
        for p, state in runs[1:]:
            assert (state.residual, state.iterations, state.converged) == (
                first.residual, first.iterations, first.converged)
            assert all(np.array_equal(log, state.logs[name]) for name, log in first.logs.items())
            assert bp_free_energy(state, p) == f_first


class TestFrozenProblems:
    # layouts are cached on the problem: reassigning what they were built
    # from would leave them stale
    @pytest.mark.parametrize("target, attr, value", [
        (lambda prob: prob, "T", 1.0),
        (lambda prob: prob, "problem", bp_ti_problem(HEIS, 3, 0.5).problem),
        (lambda prob: prob.problem, "variables",
         bp_ti_problem(ModelSpec("heisenberg", J=2.0), 2, 0.5).problem.variables),
    ], ids=["T", "problem", "variables"])
    def test_reassignment_raises(self, target, attr, value):
        prob = bp_ti_problem(HEIS, 2, 0.5)
        bp_free_energy(bp_fixed_point(prob), prob)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target(prob), attr, value)
