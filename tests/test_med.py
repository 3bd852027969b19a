import math

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

import medbound.med as med
from medbound.lattice import (
    PAULI_X,
    LatticeSpec,
    ModelSpec,
    ti_chain_geometry,
    ti_square_geometry,
    finite_geometry,
    total_hamiltonian,
)
from medbound.med import (
    ClusterVariables,
    MedProblem,
    SolverConfig,
    _compiled,
    _Frame,
    exponential_value_and_grad,
    finite_problem,
    free_energy_gradient,
    ground_energy_lower_bound,
    markov_free_energy,
    minimize_finite,
    minimize_ti,
    multi_patch_minimize,
    multi_patch_problem,
    solve,
    temperature_sweep,
    ti_problem,
)
from medbound.opalg import (
    embed_mat,
    entropy_mat,
    ptrace_mat,
    trace_product,
)
from medbound.oracle import exact_free_energy, gibbs_state, ising_transfer_free_energy

LN2 = math.log(2.0)
HEIS = ModelSpec("heisenberg")
ISING = ModelSpec("classical_ising")
TFIM = ModelSpec("tfim", J=1.0, g=1.0)
SQUARE_TEMPLATE_6 = ((-1, 0), (-2, 0), (-3, 0), (-1, 1), (0, 1), (1, 1))

TIGHT = SolverConfig(tol_gradient=1e-7, tol_constraint=1e-8, max_inner=3000)


def ti_vars(problem, mat):
    return ClusterVariables(states={problem.variables[0].key: mat},
                            constraints=problem.constraints)


def site_axes(geo, labels):
    return tuple(geo.sites.index(s) for s in labels)


def gibbs_chain_marginals(n, model, T, geo):
    h = total_hamiltonian(geo.terms, geo.sites)
    rho = gibbs_state(h, T)
    dims = (2,) * len(geo.sites)
    states = {k: ptrace_mat(rho, dims, site_axes(geo, geo.cluster_labels(k)))
              for k in geo.sites}
    return rho, states


class TestMarkovFreeEnergy:
    def test_maximally_mixed_ti_cluster(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        mixed = ti_vars(prob, np.eye(8) / 8)
        for t in (0.3, 1.0, 4.0):
            assert abs(markov_free_energy(mixed, prob, t) + t * LN2) <= 1e-12

    def test_t_zero_is_cluster_energy(self, random_state):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        rho = random_state(prob.variables[0].dim)
        v = ti_vars(prob, rho)
        e = trace_product(rho, prob.variables[0].ham)
        assert abs(markov_free_energy(v, prob, 0.0) - e) <= 1e-12

    def test_global_gibbs_cross_check(self):
        # shield-local value from cluster marginals equals E - T * sum of
        # conditional entropies computed directly from the global state
        t = 0.9
        geo = finite_geometry(LatticeSpec("chain", 6), HEIS, radius=2)
        prob = finite_problem(geo)
        rho, states = gibbs_chain_marginals(6, HEIS, t, geo)
        variables = ClusterVariables(states=states, constraints=prob.constraints)
        val = markov_free_energy(variables, prob, t)

        h = total_hamiltonian(geo.terms, geo.sites)
        e = trace_product(rho, h)
        s_m = 0.0
        dims = (2,) * len(geo.sites)
        for k in geo.sites:
            cluster = geo.cluster_labels(k)
            shield = cluster[:-1]
            s_c = entropy_mat(ptrace_mat(rho, dims, site_axes(geo, cluster)))
            s_sh = entropy_mat(ptrace_mat(rho, dims, site_axes(geo, shield))) if shield else 0.0
            s_m += s_c - s_sh
        assert abs(val - (e - t * s_m)) <= 1e-10


class TestGradient:
    def test_finite_differences(self, rng):
        geo = ti_chain_geometry(HEIS, 1)
        prob = ti_problem(geo)
        d = prob.variables[0].dim
        key = prob.variables[0].key
        for _ in range(5):
            g = rng.standard_normal((d, d))
            g = 0.5 * (g + g.T)
            value, grads = exponential_value_and_grad({key: g}, prob, 0.8)
            direction = rng.standard_normal((d, d))
            direction = 0.5 * (direction + direction.T)
            eps = 1e-5
            fp, _ = exponential_value_and_grad({key: g + eps * direction}, prob, 0.8)
            fm, _ = exponential_value_and_grad({key: g - eps * direction}, prob, 0.8)
            numeric = (fp - fm) / (2 * eps)
            analytic = trace_product(grads[key], direction)
            assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(numeric))

    def test_vanishes_at_gibbs_single_cluster(self):
        # one cluster, no consistency constraints: the exact optimum is the
        # Gibbs state of the cluster Hamiltonian
        geo = ti_chain_geometry(HEIS, 1)
        t = 0.7
        from medbound.med import MedProblem, VarSpec
        var = VarSpec(key="c", labels=geo.labels, dims=geo.dims, ham=geo.ham,
                      shield_axes=())
        prob = MedProblem(variables=(var,), constraints=())
        _, grads = exponential_value_and_grad({"c": -geo.ham / t}, prob, t)
        assert np.max(np.abs(grads["c"])) <= 1e-10

    def test_t_zero_euclidean_gradient_is_hamiltonian(self, random_state):
        prob = ti_problem(ti_chain_geometry(HEIS, 1))
        rho = random_state(prob.variables[0].dim)
        grads = free_energy_gradient(ti_vars(prob, rho), prob, 0.0)
        key = prob.variables[0].key
        assert np.allclose(grads[key], prob.variables[0].ham)


class TestMinimizeTI:
    def test_classical_ising_exact(self):
        for t in (0.5, 1.0, 2.0):
            res = minimize_ti(ISING, 1, t, TIGHT)
            assert res.converged
            assert abs(res.f_per_site - ising_transfer_free_energy(1.0, 0.0, t)) <= 1e-6

    def test_heisenberg_high_temperature(self):
        # the mixed state is feasible, so F sits at most -T ln 2, and the
        # optimal correction is O(1/T)
        t = 500.0
        res = minimize_ti(HEIS, 2, t, TIGHT)
        assert res.converged
        assert res.f_per_site <= -t * LN2 + 1e-9
        assert abs(res.f_per_site + t * LN2) <= 1e-3
        assert abs(res.s_m_per_site - LN2) <= 1e-5

    def test_f_equals_e_minus_ts(self):
        res = minimize_ti(HEIS, 2, 1.0, TIGHT)
        assert abs(res.f_per_site - (res.e_per_site - 1.0 * res.s_m_per_site)) <= 1e-10

    def test_disconnected_shield_accepted(self):
        res = minimize_ti(HEIS, (-4, -1), 1.0, SolverConfig(max_inner=2000))
        assert res.converged
        # weaker than the contiguous 2-site shield at the same cluster size is
        # not guaranteed, but it must stay a bound below the exact chain value
        assert res.f_per_site <= -0.77

    def test_cluster_dim_guard(self):
        with pytest.raises(ValueError):
            minimize_ti(HEIS, 13, 1.0)


class TestMinimizeFinite:
    def test_two_sites_exact(self):
        geo = finite_geometry(LatticeSpec("chain", 2), HEIS, radius=1)
        for t in (0.5, 1.0):
            res = minimize_finite(geo, t, TIGHT)
            expected = -t * math.log(math.exp(0.75 / t) + 3 * math.exp(-0.25 / t)) / 2
            assert res.converged
            assert abs(res.f_per_site - expected) <= 1e-7

    def test_product_hamiltonian_exact(self):
        # no bonds: independent sites, the bound is the exact free energy
        model = ModelSpec("tfim", J=0.0, g=0.7)
        geo = finite_geometry(LatticeSpec("chain", 4), model, radius=1)
        t = 0.8
        res = minimize_finite(geo, t, TIGHT)
        h1 = -0.7 * np.array([[0.0, 1.0], [1.0, 0.0]])
        single = exact_free_energy(h1, t, n_sites=1)
        assert res.converged
        assert abs(res.f_per_site - single.f_total) <= 1e-7

    def test_lower_bound_on_ring(self):
        geo = finite_geometry(LatticeSpec("chain", 6, boundary="periodic"), HEIS, radius=2)
        h = total_hamiltonian(geo.terms, geo.sites)
        t = 1.0
        res = minimize_finite(geo, t, SolverConfig(tol_gradient=1e-5, max_inner=3000))
        exact = exact_free_energy(h, t)
        assert res.converged
        assert res.residual <= 1e-6
        assert res.f_per_site <= exact.f_per_site + 1e-6


class TestSweep:
    def test_classical_ising_grid(self):
        prob = ti_problem(ti_chain_geometry(ISING, 1))
        grid = [0.5, 1.0, 2.0, 4.0]
        sweep = temperature_sweep(prob, grid, TIGHT)
        for row in sweep.rows:
            assert row.converged
            assert abs(row.f_per_site - ising_transfer_free_energy(1.0, 0.0, row.T)) <= 1e-6

    def test_high_t_entropy(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        sweep = temperature_sweep(prob, [30.0], TIGHT)
        assert abs(sweep.rows[0].s_m_per_site - LN2) <= 1e-3

    def test_rows_ascending_and_concave(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        grid = [0.4, 0.7, 1.0, 1.5, 2.5]
        sweep = temperature_sweep(prob, grid, SolverConfig())
        ts = [r.T for r in sweep.rows]
        assert ts == sorted(ts)
        fs = [r.f_per_site for r in sweep.rows]
        slopes = np.diff(fs) / np.diff(ts)
        assert np.all(np.diff(slopes) <= 1e-6)

    def test_specific_heat_positive_midgrid(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        sweep = temperature_sweep(prob, [0.6, 0.8, 1.0, 1.3], SolverConfig())
        mid = sweep.rows[1:-1]
        assert all(r.specific_heat > 0 for r in mid)
        assert math.isnan(sweep.rows[0].specific_heat)

    def test_bad_grid_rejected(self):
        prob = ti_problem(ti_chain_geometry(ISING, 1))
        with pytest.raises(ValueError):
            temperature_sweep(prob, [1.0, 0.5], SolverConfig())

    def test_repeated_temperature_rejected_before_any_solve(self, monkeypatch):
        # a repeated temperature would be solved and then divide by zero in
        # the specific heat's divided differences
        calls = []
        monkeypatch.setattr(med, "solve", lambda *args, **kwargs: calls.append(args))
        prob = ti_problem(ti_chain_geometry(HEIS, 1))
        with pytest.raises(ValueError, match="strictly ascending"):
            temperature_sweep(prob, [0.5, 1.0, 1.0, 2.0])
        assert not calls


class TestStalledInnerSolve:
    @staticmethod
    def stub_minimizer(monkeypatch, jac_value):
        # an inner solve that stays at its start point with a fixed gradient
        calls = []

        def minimize(fun, x0, **kwargs):
            calls.append(1)
            return OptimizeResult(x=np.array(x0), nit=0, jac=np.full(len(x0), jac_value))
        monkeypatch.setattr(med, "_scipy_minimize", minimize)
        return calls

    def test_stall_ends_the_outer_loop(self, monkeypatch):
        calls = self.stub_minimizer(monkeypatch, 1.0)
        res = solve(ti_problem(ti_chain_geometry(HEIS, 2)), 1.0, SolverConfig(max_outer=7))
        assert len(calls) == 1
        assert not res.converged

    def test_zero_steps_on_target_are_not_a_stall(self, monkeypatch):
        # the maximally mixed start is feasible for a TI chain, so an inner
        # solve that meets its gradient target without a step is legitimate;
        # the outer loop tightens the target until it reaches tol_gradient
        calls = self.stub_minimizer(monkeypatch, 0.0)
        res = solve(ti_problem(ti_chain_geometry(HEIS, 2)), 1.0)
        assert len(calls) > 1
        assert res.converged


class TestGroundEnergyBound:
    def test_single_system_bound_reaches_e0(self):
        # cluster = whole system: no relaxation, F(T) climbs to E0 as T drops;
        # the entropy never goes negative so the crossing is not bracketed
        geo = finite_geometry(LatticeSpec("chain", 2), HEIS, radius=1)
        prob = finite_problem(geo)
        res = ground_energy_lower_bound(prob, [0.1, 0.3, 0.6, 1.0], TIGHT)
        assert not res.bracketed
        assert "crossing not bracketed" in res.note
        assert res.bound <= -0.75 / 2 + 1e-9
        assert abs(res.bound + 0.75 / 2) <= 1e-3

    def test_ti_chain_crossing(self):
        # 3-site cluster bound against the 6-site ring oracle
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        cfg = SolverConfig(tol_gradient=1e-6, tol_constraint=1e-7, max_inner=4000)
        from medbound.lattice import build_lattice
        terms, sites = build_lattice(LatticeSpec("chain", 6, boundary="periodic"), HEIS)
        from medbound.oracle import ground_energy
        e0_site = ground_energy(total_hamiltonian(terms, sites)) / 6
        res = ground_energy_lower_bound(prob, [0.15, 0.25, 0.4, 0.7, 1.0], cfg)
        assert res.bracketed
        assert res.bound <= e0_site + 1e-6
        assert abs(res.bound - e0_site) <= 0.02


class TestMultiPatch:
    def test_identical_patches_match_single(self):
        geo = ti_chain_geometry(ISING, 1)
        single = solve(ti_problem(geo), 1.0, TIGHT)
        double = multi_patch_minimize(multi_patch_problem([geo, geo]), 1.0, TIGHT)
        assert double.converged
        assert abs(double.f_per_site - single.f_per_site) <= 1e-8

    def test_classical_ising_still_exact(self):
        geos = [ti_chain_geometry(ISING, 1), ti_chain_geometry(ISING, 2)]
        res = multi_patch_minimize(multi_patch_problem(geos), 1.0, TIGHT)
        assert res.converged
        assert abs(res.f_per_site - ising_transfer_free_energy(1.0, 0.0, 1.0)) <= 1e-6

    def test_dominates_both_single_patches(self):
        # short-range window plus a disconnected long-range shield
        t = 0.6
        cfg = SolverConfig(tol_gradient=1e-6, tol_constraint=1e-7, max_inner=3000)
        geo_a = ti_chain_geometry(HEIS, 2)
        geo_b = ti_chain_geometry(HEIS, (-4, -1))
        f_a = solve(ti_problem(geo_a), t, cfg).f_per_site
        f_b = solve(ti_problem(geo_b), t, cfg).f_per_site
        res = multi_patch_minimize(multi_patch_problem([geo_a, geo_b]), t, cfg)
        assert res.converged
        assert res.f_per_site >= max(f_a, f_b) - 1e-6

    @pytest.mark.parametrize("t", [1.0, 0.5])
    def test_finite_patches(self, t):
        spec = LatticeSpec("chain", 5)
        g1 = finite_geometry(spec, HEIS, radius=1)
        g2 = finite_geometry(spec, HEIS, radius=2)
        f1 = solve(finite_problem(g1), t).f_per_site
        f2 = solve(finite_problem(g2), t).f_per_site
        double = solve(multi_patch_problem([g1, g1]), t)
        assert double.converged
        assert abs(double.f_per_site - f1) <= 1e-8
        mixed = solve(multi_patch_problem([g1, g2]), t)
        assert mixed.converged
        assert mixed.f_per_site >= max(f1, f2) - 1e-6

    def test_mixed_or_mismatched_patches_rejected(self):
        g5 = finite_geometry(LatticeSpec("chain", 5), HEIS, radius=1)
        g4 = finite_geometry(LatticeSpec("chain", 4), HEIS, radius=1)
        with pytest.raises(ValueError, match="all translation-invariant or all finite"):
            multi_patch_problem([ti_chain_geometry(HEIS, 1), g5])
        with pytest.raises(ValueError, match="same lattice"):
            multi_patch_problem([g5, g4])


class TestInvariants:
    def test_inner_loop_monotone(self):
        cfg = SolverConfig(track_inner=True, max_inner=2000)
        res = minimize_ti(HEIS, 2, 1.0, cfg)
        for trace in res.meta["inner_trace"]:
            arr = np.asarray(trace)
            if len(arr) > 1:
                assert np.all(np.diff(arr) <= 1e-10 * np.maximum(1.0, np.abs(arr[:-1])))

    def test_shield_monotonicity(self):
        # enlarging the shield tightens (raises) the bound, never lowers it
        cfg = SolverConfig(tol_gradient=1e-7, tol_constraint=1e-8, max_inner=3000)
        f = [minimize_ti(HEIS, n, 1.0, cfg).f_per_site for n in (1, 2, 3)]
        assert f[0] <= f[1] + 1e-6
        assert f[1] <= f[2] + 1e-6
        f_ising = [minimize_ti(ISING, n, 1.0, cfg).f_per_site for n in (1, 2)]
        assert abs(f_ising[0] - f_ising[1]) <= 1e-6

    def test_convexity_spot_check(self, rng):
        geo = finite_geometry(LatticeSpec("chain", 4), HEIS, radius=1)
        prob = finite_problem(geo)
        t = 0.8
        _, states1 = gibbs_chain_marginals(4, HEIS, 0.6, geo)
        _, states2 = gibbs_chain_marginals(4, HEIS, 1.7, geo)
        f1 = markov_free_energy(ClusterVariables(states1, prob.constraints), prob, t)
        f2 = markov_free_energy(ClusterVariables(states2, prob.constraints), prob, t)
        for lam in (0.25, 0.5, 0.75):
            mix = {k: lam * states1[k] + (1 - lam) * states2[k] for k in states1}
            fmix = markov_free_energy(ClusterVariables(mix, prob.constraints), prob, t)
            assert fmix <= lam * f1 + (1 - lam) * f2 + 1e-10


def charges(n_sites):
    """Number of up spins (basis index 1) of each basis state."""
    return np.indices((2,) * n_sites).reshape(n_sites, -1).sum(axis=0)


def sector_sizes(blocks):
    """Sizes of the charge sectors, in charge order."""
    return tuple(int(c) for c in np.unique(blocks.charge, return_counts=True)[1])


def off_sector(n_sites):
    q = charges(n_sites)
    return q[:, None] != q[None, :]


class TestSectors:
    def test_heisenberg_chain_sizes(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        cluster, shield = _compiled(prob).sectors[prob.variables[0].key]
        assert sector_sizes(cluster) == (1, 3, 3, 1)
        assert sector_sizes(shield) == (1, 2, 1)
        assert [s.shape for s in cluster.stacks] == [(2, 1), (2, 3)]

    def test_square6_packs_in_sector_entries_only(self):
        prob = ti_problem(ti_square_geometry(HEIS, SQUARE_TEMPLATE_6))
        comp = _compiled(prob)
        cluster, shield = comp.sectors[prob.variables[0].key]
        assert [s.shape for s in cluster.stacks] == [(2, 1), (2, 7), (2, 21), (2, 35)]
        assert sector_sizes(shield) == (1, 6, 15, 20, 15, 6, 1)
        assert comp.n == 1780
        # every block of one size is one stack: four cluster and four shield sizes
        assert [st.shape for st in comp.stacks] == [(2, 1, 1), (2, 7, 7), (2, 21, 21),
                                                     (2, 35, 35)]
        assert [st.shape[0] for st in comp.sh_stacks] == [2, 2, 2, 1]
        assert _compiled(prob, one_sector=True).n == 128 * 129 // 2
        assert _compiled(prob) is comp

    def test_tfim_has_one_sector(self):
        prob = ti_problem(ti_chain_geometry(TFIM, 2))
        cluster, shield = _compiled(prob).sectors[prob.variables[0].key]
        assert sector_sizes(cluster) == (8,)
        assert sector_sizes(shield) == (4,)

    def test_one_breaking_cluster_gives_one_sector_everywhere(self):
        multi = multi_patch_problem([ti_chain_geometry(HEIS, 2), ti_chain_geometry(TFIM, 1)])
        geo = finite_geometry(LatticeSpec("chain", 4), HEIS, radius=1)
        fin = finite_problem(geo)
        # a transverse field on the top site of one cluster breaks the charge
        first = fin.variables[0]
        field_on_top = np.kron(np.eye(first.dim // 2), PAULI_X)
        broken = dataclasses.replace(first, ham=first.ham + field_on_top)
        fin = MedProblem(variables=(broken,) + fin.variables[1:],
                         constraints=fin.constraints, site_norm=fin.site_norm)
        for prob in (multi, fin):
            for v in prob.variables:
                cluster, shield = _compiled(prob).sectors[v.key]
                assert sector_sizes(cluster) == (v.dim,)
                if v.shield_axes:
                    assert len(sector_sizes(shield)) == 1
        # without the broken cluster the same lattice has sectors
        plain = finite_problem(geo)
        sectors = _compiled(plain).sectors
        assert all(len(sector_sizes(sectors[v.key][0])) > 1 for v in plain.variables)

    def test_iterates_stay_in_sectors(self):
        # dense iterates drift off the sectors by roundoff (3.1e-5 here);
        # sector iterates keep exact zeros there and reach the same bound
        res = minimize_ti(HEIS, 4, 0.5)
        assert res.converged
        g = res.meta["warm"]["g"]["ti"]
        assert np.all(g[off_sector(5)] == 0.0)
        assert abs(res.f_per_site - (-0.5385956078726468)) <= 1e-6


def _ptrace(rho, dims, keep):
    n = len(dims)
    order = list(keep) + [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    dd = rho.shape[0] // dk
    t = rho.reshape(dims + dims).transpose(order + [n + i for i in order])
    return np.einsum("ajbj->ab", t.reshape(dk, dd, dk, dd))


def _embed(mat, dims, axes):
    n = len(dims)
    order = list(axes) + [i for i in range(n) if i not in axes]
    d = int(np.prod(dims))
    big = np.kron(mat, np.eye(d // mat.shape[0])).reshape([dims[i] for i in order] * 2)
    back = [order.index(i) for i in range(n)]
    return big.transpose(back + [b + n for b in back]).reshape(d, d)


def _re_tr(a, b):
    """Re Tr(a b) for Hermitian a, b."""
    return float(np.real(np.sum(a.conj() * b)))


def _dense_al_reference(problem, T, gmats, mults, pen, t=None, ineq=None):
    """The augmented Lagrangian and its gradients in G (and t), on full
    matrices, one cluster and one constraint at a time."""
    eig, Ms = {}, {}
    patch_f = np.zeros(problem.n_patches)
    for v in problem.variables:
        w, U = np.linalg.eigh(gmats[v.key])
        p = np.exp(w - w.max())
        p /= p.sum()
        rho = (U * p) @ U.conj().T
        eig[v.key] = (w, U, p, rho)
        value = _re_tr(v.ham, rho) + T * np.sum(p * np.log(p))
        M = v.ham + T * (U * np.log(p)) @ U.conj().T
        if v.shield_axes:
            pm, Um = np.linalg.eigh(_ptrace(rho, v.dims, v.shield_axes))
            value -= T * np.sum(pm * np.log(pm))
            M = M - T * _embed((Um * np.log(pm)) @ Um.conj().T, v.dims, v.shield_axes)
        patch_f[v.patch] += value
        Ms[v.key] = M
    if problem.n_patches == 1:
        value, mu, grad_t = patch_f[0], np.ones(1), None
    else:
        mu = np.maximum(0.0, ineq + pen * (patch_f - t))
        value = t + np.sum(mu ** 2 - ineq ** 2) / (2.0 * pen)
        grad_t = 1.0 - mu.sum()
    for v in problem.variables:
        Ms[v.key] = mu[v.patch] * Ms[v.key]
    for c, y in zip(problem.constraints, mults):
        va, vb = problem.var(c.left_key), problem.var(c.right_key)
        R = (_ptrace(eig[c.left_key][3], va.dims, c.left_axes)
             - _ptrace(eig[c.right_key][3], vb.dims, c.right_axes))
        value += _re_tr(y, R) + 0.5 * pen * _re_tr(R, R)
        Ms[c.left_key] = Ms[c.left_key] + _embed(y + pen * R, va.dims, c.left_axes)
        Ms[c.right_key] = Ms[c.right_key] - _embed(y + pen * R, vb.dims, c.right_axes)
    grads = {}
    for key, (w, U, p, rho) in eig.items():
        # d rho / d G through divided differences of exp on the eigenbasis
        a, b = w[:, None] - w.max(), w[None, :] - w.max()
        gap = a - b
        close = np.abs(gap) < 1e-9
        K = np.where(close, np.exp(a), (np.exp(a) - np.exp(b)) / np.where(close, 1.0, gap))
        K /= np.exp(w - w.max()).sum()
        Mt = U.conj().T @ Ms[key] @ U
        grads[key] = U @ (K * Mt) @ U.conj().T - _re_tr(Ms[key], rho) * rho
    return value, grads, grad_t


def _conserves(problem):
    return all(not np.any(v.ham[off_sector(len(v.dims))]) for v in problem.variables)


def _pack_reference(problem, mats, t=None):
    """Per cluster: the diagonal, then the in-sector upper triangle sector by
    sector (times sqrt 2), then its imaginary parts for complex problems."""
    by_charge = _conserves(problem)
    complex_ = any(np.iscomplexobj(v.ham) for v in problem.variables)
    parts = [] if t is None else [np.array([t])]
    for v in problem.variables:
        m = mats[v.key]
        q = charges(len(v.dims)) if by_charge else np.zeros(v.dim, int)
        i, j = np.triu_indices(v.dim, 1)
        keep = q[i] == q[j]
        order = np.argsort(q[i][keep], kind="stable")
        i, j = i[keep][order], j[keep][order]
        parts += [np.real(np.diagonal(m)), math.sqrt(2.0) * np.real(m[i, j])]
        if complex_:
            parts.append(math.sqrt(2.0) * np.imag(m[i, j]))
    return np.concatenate(parts)


def _rotated(geo, phase=math.pi / 4):
    """The same cluster with every site rotated by diag(1, e^{i phase})."""
    n = len(geo.dims)
    u = np.diag([1.0, np.exp(1j * phase)])
    full = u
    for _ in range(n - 1):
        full = np.kron(full, u)
    return dataclasses.replace(geo, ham=full @ geo.ham @ full.conj().T)


def _random_herm(rng, d, scale, mask, complex_):
    a = scale * rng.standard_normal((d, d))
    if complex_:
        a = a + 1j * scale * rng.standard_normal((d, d))
    return np.where(mask, 0.5 * (a + a.conj().T), 0.0)


class TestSectorEvaluation:
    PROBLEMS = {
        "ti n=1": lambda: ti_problem(ti_chain_geometry(HEIS, 1)),
        "ti n=2": lambda: ti_problem(ti_chain_geometry(HEIS, 2)),
        "open N=4 r=2": lambda: finite_problem(
            finite_geometry(LatticeSpec("chain", 4), HEIS, radius=2)),
        # 6 clusters of 5 sizes (d = 2 ... 32), 14 constraints
        "ring N=6 r=2": lambda: finite_problem(
            finite_geometry(LatticeSpec("chain", 6, boundary="periodic"), HEIS, radius=2)),
        # two patches: the epigraph variable t and the patch weights mu
        "two patches": lambda: multi_patch_problem(
            [ti_chain_geometry(HEIS, 1), ti_chain_geometry(HEIS, 2)]),
        # complex Hamiltonians, one sector (TFIM) and charge sectors (Heisenberg)
        "complex tfim n=2": lambda: ti_problem(_rotated(ti_chain_geometry(TFIM, 2))),
        "complex heis n=2": lambda: ti_problem(_rotated(ti_chain_geometry(HEIS, 2))),
    }

    def _point(self, prob, rng, scale):
        by_charge = _conserves(prob)
        complex_ = any(np.iscomplexobj(v.ham) for v in prob.variables)

        def mask(n):
            return ~off_sector(n) if by_charge else np.ones((2 ** n, 2 ** n), bool)
        gmats = {v.key: _random_herm(rng, v.dim, scale, mask(len(v.dims)), complex_)
                 for v in prob.variables}
        mults = [_random_herm(rng, 2 ** len(c.left_axes), scale, mask(len(c.left_axes)),
                              complex_) for c in prob.constraints]
        t = ineq = None
        if prob.n_patches > 1:
            t = float(rng.standard_normal())
            ineq = rng.uniform(0.0, 1.0, prob.n_patches)
        return gmats, mults, t, ineq

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2 ** 32 - 1),
           T=st.sampled_from([0.3, 1.0]), pen=st.floats(0.5, 20.0),
           scale=st.sampled_from([0.3, 1.5]))
    def test_al_eval_matches_dense_reference(self, name, seed, T, pen, scale):
        prob = self.PROBLEMS[name]()
        rng = np.random.default_rng(seed)
        gmats, mults, t, ineq = self._point(prob, rng, scale)
        comp = _compiled(prob)
        if _conserves(prob):
            assert all(len(sector_sizes(s[0])) > 1 for s in comp.sectors.values())
        out = comp.al_eval(_pack_reference(prob, gmats, t), T, comp.mults_from_dense(mults),
                           ineq, pen, want_grad=True)
        value, grads, grad_t = _dense_al_reference(prob, T, gmats, mults, pen, t, ineq)
        assert abs(out["al"] - value) <= 1e-12 * max(1.0, abs(value))
        expect = _pack_reference(prob, grads, grad_t)
        assert np.max(np.abs(out["grad"] - expect)) <= 1e-12

    @pytest.mark.parametrize("name", ["ring N=6 r=2", "two patches", "complex heis n=2"])
    def test_frame_is_a_linear_change_of_variables(self, name, rng):
        # the frame's gradient is the adjoint of its map applied to grad_G,
        # and central differences of the framed objective match it
        prob = self.PROBLEMS[name]()
        comp = _compiled(prob)
        gmats, mults, t, ineq = self._point(prob, rng, 1.5)
        frame = _Frame(comp, _pack_reference(prob, gmats, t))
        step = 0.1 * rng.standard_normal(comp.n)
        gamma = comp.from_dense({k: rng.standard_normal(g.shape) for k, g in gmats.items()},
                                frame.g0.dtype)
        gamma = comp.from_dense({k: g + g.conj().T for k, g in comp.to_dense(gamma).items()},
                                gamma.dtype)
        lhs = float(np.dot(comp.pack(frame.grad(gamma), 0.0), step))
        rhs = float(np.real(np.vdot(gamma, frame.g(step) - frame.g0)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        y = comp.mults_from_dense(mults)
        x0 = np.zeros(comp.n)
        if t is not None:
            x0[0] = t
        out = comp.al_eval(x0, 0.7, y, ineq, 3.0, want_grad=True, frame=frame)
        d = rng.standard_normal(comp.n)
        eps = 1e-6
        fp = comp.al_eval(x0 + eps * d, 0.7, y, ineq, 3.0, want_grad=False, frame=frame)["al"]
        fm = comp.al_eval(x0 - eps * d, 0.7, y, ineq, 3.0, want_grad=False, frame=frame)["al"]
        assert abs((fp - fm) / (2 * eps) - out["grad"] @ d) <= 1e-6 * max(1.0, abs(fp))


class TestComplexMode:
    def test_rotated_tfim_matches_real_bound(self):
        # u = diag(1, e^{i pi/4}) on every site maps the consistency
        # constraints to themselves, so the bound cannot change; the rotated
        # Hamiltonian has imaginary parts of 0.71 and runs in complex mode
        geo = ti_chain_geometry(TFIM, 2)
        rot = _rotated(geo)
        assert abs(np.max(np.abs(rot.ham.imag)) - math.sqrt(0.5)) <= 1e-12
        real = solve(ti_problem(geo), 1.0, TIGHT)
        cplx = solve(ti_problem(rot), 1.0, TIGHT)
        assert real.converged and cplx.converged
        assert np.iscomplexobj(cplx.meta["warm"]["g"]["ti"])
        assert abs(cplx.f_per_site - real.f_per_site) <= 2e-7
