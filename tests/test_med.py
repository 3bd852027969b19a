import math

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _al_eval,
    _Packer,
    _problem_sectors,
    _State,
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
    DensityMatrix,
    SiteSpace,
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
    key = problem.variables[0].key
    space = SiteSpace(problem.variables[0].labels, problem.variables[0].dims)
    return ClusterVariables(states={key: DensityMatrix(space, mat)},
                            constraints=problem.constraints)


def gibbs_chain_marginals(n, model, T, geo):
    h = total_hamiltonian(geo.terms, geo.sites)
    rho = gibbs_state(h, T)
    states = {}
    for k in geo.sites:
        labels = geo.cluster_labels(k)
        red = ptrace_mat(rho.mat, rho.space.dims, rho.space.axes(labels))
        states[k] = DensityMatrix(SiteSpace(labels), red)
    return rho, states


class TestMarkovFreeEnergy:
    def test_maximally_mixed_ti_cluster(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        mixed = ti_vars(prob, np.eye(8) / 8)
        for t in (0.3, 1.0, 4.0):
            assert abs(markov_free_energy(mixed, prob, t) + t * LN2) <= 1e-12

    def test_t_zero_is_cluster_energy(self, rng):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        from medbound.opalg import random_density
        rho = random_density(SiteSpace(prob.variables[0].labels), rng)
        v = ti_vars(prob, rho.mat)
        e = trace_product(rho.mat, prob.variables[0].ham)
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
        e = trace_product(rho.mat, h)
        s_m = 0.0
        dims = rho.space.dims
        for k in geo.sites:
            cluster = geo.cluster_labels(k)
            shield = cluster[:-1]
            s_c = entropy_mat(ptrace_mat(rho.mat, dims, rho.space.axes(cluster)))
            s_sh = entropy_mat(ptrace_mat(rho.mat, dims, rho.space.axes(shield))) if shield else 0.0
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

    def test_t_zero_euclidean_gradient_is_hamiltonian(self, rng):
        prob = ti_problem(ti_chain_geometry(HEIS, 1))
        from medbound.opalg import random_density
        rho = random_density(SiteSpace(prob.variables[0].labels), rng)
        grads = free_energy_gradient(ti_vars(prob, rho.mat), prob, 0.0)
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
        h_rand = total_hamiltonian(geo.terms, geo.sites)
        import medbound.oracle as oracle
        rho2 = oracle.gibbs_state(h_rand, 1.7)
        states2 = {}
        for k in geo.sites:
            labels = geo.cluster_labels(k)
            red = ptrace_mat(rho2.mat, rho2.space.dims, rho2.space.axes(labels))
            states2[k] = DensityMatrix(SiteSpace(labels), red)
        f1 = markov_free_energy(ClusterVariables(states1, prob.constraints), prob, t)
        f2 = markov_free_energy(ClusterVariables(states2, prob.constraints), prob, t)
        for lam in (0.25, 0.5, 0.75):
            mix = {k: DensityMatrix(states1[k].space,
                                    lam * states1[k].mat + (1 - lam) * states2[k].mat)
                   for k in states1}
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
        cluster, shield = _problem_sectors(prob)[prob.variables[0].key]
        assert sector_sizes(cluster) == (1, 3, 3, 1)
        assert sector_sizes(shield) == (1, 2, 1)
        assert [s.shape for s in cluster.stacks] == [(2, 1), (2, 3)]

    def test_square6_packs_in_sector_entries_only(self):
        prob = ti_problem(ti_square_geometry(HEIS, SQUARE_TEMPLATE_6))
        sectors = _problem_sectors(prob)
        cluster, shield = sectors[prob.variables[0].key]
        assert [s.shape for s in cluster.stacks] == [(2, 1), (2, 7), (2, 21), (2, 35)]
        assert sector_sizes(shield) == (1, 6, 15, 20, 15, 6, 1)
        assert _Packer(prob, True, False, sectors).n == 1780
        dense = _problem_sectors(prob, one_sector=True)
        assert _Packer(prob, True, False, dense).n == 128 * 129 // 2

    def test_tfim_has_one_sector(self):
        prob = ti_problem(ti_chain_geometry(TFIM, 2))
        cluster, shield = _problem_sectors(prob)[prob.variables[0].key]
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
                cluster, shield = _problem_sectors(prob)[v.key]
                assert sector_sizes(cluster) == (v.dim,)
                if v.shield_axes:
                    assert len(sector_sizes(shield)) == 1
        # without the broken cluster the same lattice has sectors
        plain = finite_problem(geo)
        sectors = _problem_sectors(plain)
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


def _dense_al_reference(problem, T, gmats, mults, pen):
    """The augmented Lagrangian and its gradient in G, on full matrices."""
    value = 0.0
    eig, Ms = {}, {}
    for v in problem.variables:
        w, U = np.linalg.eigh(gmats[v.key])
        p = np.exp(w - w.max())
        p /= p.sum()
        rho = (U * p) @ U.T
        eig[v.key] = (w, U, p, rho)
        value += np.sum(v.ham * rho) + T * np.sum(p * np.log(p))
        M = v.ham + T * (U * np.log(p)) @ U.T
        if v.shield_axes:
            pm, Um = np.linalg.eigh(_ptrace(rho, v.dims, v.shield_axes))
            value -= T * np.sum(pm * np.log(pm))
            M = M - T * _embed((Um * np.log(pm)) @ Um.T, v.dims, v.shield_axes)
        Ms[v.key] = M
    for c, y in zip(problem.constraints, mults):
        va, vb = problem.var(c.left_key), problem.var(c.right_key)
        R = (_ptrace(eig[c.left_key][3], va.dims, c.left_axes)
             - _ptrace(eig[c.right_key][3], vb.dims, c.right_axes))
        value += np.sum(y * R) + 0.5 * pen * np.sum(R * R)
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
        Mt = U.T @ Ms[key] @ U
        grads[key] = U @ (K * Mt) @ U.T - np.sum(Ms[key] * rho) * rho
    return value, grads


def _random_conserving(rng, n_sites, scale):
    d = 2 ** n_sites
    a = scale * rng.standard_normal((d, d))
    return np.where(off_sector(n_sites), 0.0, 0.5 * (a + a.T))


class TestSectorEvaluation:
    PROBLEMS = {
        "ti n=1": lambda: ti_problem(ti_chain_geometry(HEIS, 1)),
        "ti n=2": lambda: ti_problem(ti_chain_geometry(HEIS, 2)),
        "open N=4 r=2": lambda: finite_problem(
            finite_geometry(LatticeSpec("chain", 4), HEIS, radius=2)),
    }

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2 ** 32 - 1),
           T=st.sampled_from([0.3, 1.0]), pen=st.floats(0.5, 20.0),
           scale=st.sampled_from([0.3, 1.5]))
    def test_al_eval_matches_dense_reference(self, name, seed, T, pen, scale):
        prob = self.PROBLEMS[name]()
        rng = np.random.default_rng(seed)
        gmats = {v.key: _random_conserving(rng, len(v.dims), scale) for v in prob.variables}
        mults = [_random_conserving(rng, len(c.left_axes), scale) for c in prob.constraints]
        sectors = _problem_sectors(prob)
        assert all(len(sector_sizes(s[0])) > 1 for s in sectors.values())
        states = {k: _State.from_g(g, sectors[k][0]) for k, g in gmats.items()}
        out = _al_eval(prob, T, states, None, mults, None, pen, want_grad=True,
                       sectors=sectors)
        value, grads = _dense_al_reference(prob, T, gmats, mults, pen)
        assert abs(out["al"] - value) <= 1e-12 * max(1.0, abs(value))
        for key, grad in grads.items():
            assert np.max(np.abs(out["grads"][key] - grad)) <= 1e-12
            assert np.all(out["grads"][key][off_sector(len(prob.var(key).dims))] == 0.0)
