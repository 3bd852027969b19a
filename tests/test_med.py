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
    MedProblem,
    SolverConfig,
    _compiled,
    _Frame,
    cluster_states,
    finite_problem,
    ground_energy_lower_bound,
    markov_free_energy,
    minimize_ti,
    solve,
    temperature_sweep,
    ti_problem,
)
from medbound.layout import _charge_modulus, _Flat
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
    return {problem.variables[0].key: mat}


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
        val = markov_free_energy(states, prob, t)

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
        # the objective without constraint terms, in the packed coordinates
        # of G the solver runs in
        comp = _compiled(ti_problem(ti_chain_geometry(HEIS, 1)))
        y = np.zeros(comp.n_con)
        for _ in range(5):
            x = rng.standard_normal(comp.n)
            grad = comp.al_eval(x, 0.8, y, 0.0, want_grad=True)["grad"]
            direction = rng.standard_normal(comp.n)
            eps = 1e-5
            fp = comp.al_eval(x + eps * direction, 0.8, y, 0.0, want_grad=False)["al"]
            fm = comp.al_eval(x - eps * direction, 0.8, y, 0.0, want_grad=False)["al"]
            numeric = (fp - fm) / (2 * eps)
            analytic = float(grad @ direction)
            assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(numeric))

    def test_vanishes_at_gibbs_single_cluster(self):
        # one cluster, no consistency constraints: the exact optimum is the
        # Gibbs state of the cluster Hamiltonian
        geo = ti_chain_geometry(HEIS, 1)
        t = 0.7
        from medbound.med import MedProblem, VarSpec
        var = VarSpec(key="c", dims=geo.dims, ham=geo.ham, shield_axes=())
        prob = MedProblem(variables=(var,), constraints=())
        comp = _compiled(prob)
        x = comp.pack(comp.cl.from_dense([-geo.ham / t]))
        grad = comp.al_eval(x, t, np.zeros(comp.n_con), 0.0, want_grad=True)["grad"]
        assert np.max(np.abs(grad)) <= 1e-10


class TestSolveTemperature:
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="temperature"):
            solve(ti_problem(ti_chain_geometry(HEIS, 1)), t)

    def test_zero_temperature_accepted(self):
        # T = 0 is the ground-energy problem: the bound is the cluster energy
        res = solve(ti_problem(ti_chain_geometry(ISING, 1)), 0.0,
                    SolverConfig(max_outer=2, max_inner=20))
        assert res.T == 0.0 and math.isfinite(res.f_per_site)


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["tol_gradient", "tol_constraint"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_outer", "max_inner"])
    @pytest.mark.parametrize("value", [2.5, 0, True])
    def test_iteration_limit_must_be_a_count(self, field, value):
        with pytest.raises(ValueError, match="integers"):
            SolverConfig(**{field: value})

    def test_integer_limits_accepted(self):
        cfg = SolverConfig(max_outer=np.int64(3), max_inner=4000)
        assert cfg.max_outer == 3


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
            res = solve(finite_problem(geo), t, TIGHT)
            expected = -t * math.log(math.exp(0.75 / t) + 3 * math.exp(-0.25 / t)) / 2
            assert res.converged
            assert abs(res.f_per_site - expected) <= 1e-7

    def test_product_hamiltonian_exact(self):
        # no bonds: independent sites, the bound is the exact free energy
        model = ModelSpec("tfim", J=0.0, g=0.7)
        geo = finite_geometry(LatticeSpec("chain", 4), model, radius=1)
        t = 0.8
        res = solve(finite_problem(geo), t, TIGHT)
        h1 = -0.7 * np.array([[0.0, 1.0], [1.0, 0.0]])
        single = exact_free_energy(h1, t, n_sites=1)
        assert res.converged
        assert abs(res.f_per_site - single.f_total) <= 1e-7

    def test_lower_bound_on_ring(self):
        geo = finite_geometry(LatticeSpec("chain", 6, boundary="periodic"), HEIS, radius=2)
        h = total_hamiltonian(geo.terms, geo.sites)
        t = 1.0
        res = solve(finite_problem(geo), t, SolverConfig(tol_gradient=1e-5, max_inner=3000))
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

    def test_bad_grid_rejected(self):
        prob = ti_problem(ti_chain_geometry(ISING, 1))
        with pytest.raises(ValueError):
            temperature_sweep(prob, [1.0, 0.5], SolverConfig())

    def test_repeated_temperature_rejected_before_any_solve(self, monkeypatch):
        # a repeated temperature would be solved twice and give two rows for
        # one T, one of them warm started from the other
        calls = []
        monkeypatch.setattr(med, "solve", lambda *args, **kwargs: calls.append(args))
        prob = ti_problem(ti_chain_geometry(HEIS, 1))
        with pytest.raises(ValueError, match="strictly ascending"):
            temperature_sweep(prob, [0.5, 1.0, 1.0, 2.0])
        assert not calls

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_temperature_rejected_before_any_solve(self, monkeypatch, t):
        # NaN passes every comparison, so it would scramble the descending
        # order and fail only when its own solve is reached
        calls = []
        monkeypatch.setattr(med, "solve", lambda *args, **kwargs: calls.append(args))
        prob = ti_problem(ti_chain_geometry(HEIS, 1))
        with pytest.raises(ValueError, match="finite"):
            temperature_sweep(prob, [0.5, t])
        assert not calls


class TestWarmStart:
    def test_other_problems_warm_start_rejected(self):
        # before: IndexError deep in the dense conversion
        warm = minimize_ti(HEIS, 2, 1.0).meta["warm"]
        with pytest.raises(ValueError, match="warm start"):
            solve(ti_problem(ti_chain_geometry(HEIS, 3)), 1.0, warm=warm)

    def test_restart_from_own_point_takes_no_step(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        first = solve(prob, 0.5)
        again = solve(prob, 0.5, warm=first.meta["warm"])
        assert first.converged and again.converged
        assert again.iterations == 0
        assert again.f_per_site == first.f_per_site

    def test_restart_from_a_sweep_row_takes_no_step(self):
        # a sweep row is the solve's own result, warm start included
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        for row in temperature_sweep(prob, [0.5, 1.0]).rows:
            again = solve(prob, row.T, warm=row.meta["warm"])
            assert row.converged and again.converged
            assert again.iterations == 0
            assert again.f_per_site == row.f_per_site


class TestClusterStates:
    def test_states_give_the_result_value(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        res = solve(prob, 0.7)
        states = cluster_states(prob, res)
        assert set(states) == {"ti"} and states["ti"].shape == (8, 8)
        assert abs(markov_free_energy(states, prob, 0.7) - res.f_per_site) <= 1e-12

    def test_other_problems_result_rejected(self):
        res = minimize_ti(HEIS, 2, 1.0)
        with pytest.raises(ValueError, match="another problem"):
            cluster_states(ti_problem(ti_chain_geometry(HEIS, 3)), res)

    def test_result_holds_only_the_packed_point(self):
        prob = finite_problem(finite_geometry(LatticeSpec("chain", 4), HEIS, radius=1))
        res = solve(prob, 1.0)
        comp = _compiled(prob)
        arrays = [k for k, v in vars(res).items() if isinstance(v, np.ndarray)]
        assert not arrays
        assert res.meta["warm"]["x"].shape == (comp.n,)
        assert res.meta["warm"]["y"].shape == (comp.n_con,)


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

    def test_ground_bound_without_converged_rows_is_nan(self, monkeypatch):
        # no unconverged value may enter the maximum, so none is left
        self.stub_minimizer(monkeypatch, 1.0)
        res = ground_energy_lower_bound(ti_problem(ti_chain_geometry(HEIS, 2)), [0.5, 1.0])
        assert all(not r.converged for r in res.sweep.rows)
        assert math.isnan(res.bound) and not res.bracketed
        assert res.refined == []


class TestEvaluationReuse:
    def test_no_g_is_exponentiated_twice_in_a_row(self, monkeypatch):
        # an outer iteration's feasibility check, the next frame and that
        # frame's origin all read one G: it must be exponentiated once
        seen = []
        flat_exp = _Flat.exp

        def exp(self, log):
            seen.append(np.array(log))
            return flat_exp(self, log)
        monkeypatch.setattr(_Flat, "exp", exp)
        res = minimize_ti(HEIS, 3, 0.5)
        assert res.converged and len(seen) > 10
        assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))


class TestGroundEnergyBound:
    def test_single_system_bound_reaches_e0(self):
        # cluster = whole system: no relaxation, F(T) climbs to E0 as T drops;
        # the entropy never goes negative so the crossing is not bracketed
        geo = finite_geometry(LatticeSpec("chain", 2), HEIS, radius=1)
        prob = finite_problem(geo)
        res = ground_energy_lower_bound(prob, [0.1, 0.3, 0.6, 1.0], TIGHT)
        assert not res.bracketed
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


class TestInvariants:
    def test_inner_loop_monotone(self, monkeypatch):
        # record the objective at every iterate L-BFGS accepts, per inner solve
        traces = []
        scipy_minimize = med._scipy_minimize

        def minimize(fun, x0, **kwargs):
            trace = []
            traces.append(trace)
            return scipy_minimize(fun, x0, callback=lambda xk: trace.append(fun(xk)[0]),
                                  **kwargs)
        monkeypatch.setattr(med, "_scipy_minimize", minimize)
        minimize_ti(HEIS, 2, 1.0, SolverConfig(max_inner=2000))
        assert any(len(trace) > 1 for trace in traces)
        for trace in traces:
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
        f1 = markov_free_energy(states1, prob, t)
        f2 = markov_free_energy(states2, prob, t)
        for lam in (0.25, 0.5, 0.75):
            mix = {k: lam * states1[k] + (1 - lam) * states2[k] for k in states1}
            fmix = markov_free_energy(mix, prob, t)
            assert fmix <= lam * f1 + (1 - lam) * f2 + 1e-10


def charges(n_sites, m=0):
    """Number of up spins (basis index 1) of each basis state, mod m (m = 0:
    the plain count)."""
    q = np.indices((2,) * n_sites).reshape(n_sites, -1).sum(axis=0)
    return q % m if m else q


def sector_sizes(blocks):
    """Sizes of the charge sectors, in charge order."""
    return tuple(int(c) for c in np.unique(blocks.charge, return_counts=True)[1])


def sectors(comp):
    """Per cluster key: the sector blocks of its state and of its shield."""
    return dict(zip(comp.keys, zip(comp.cl.blocks, comp.sh.blocks)))


def off_sector(n_sites, m=0):
    q = charges(n_sites, m)
    return q[:, None] != q[None, :]


class TestSectors:
    def test_heisenberg_chain_sizes(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        cluster, shield = sectors(_compiled(prob))[prob.variables[0].key]
        assert sector_sizes(cluster) == (1, 3, 3, 1)
        assert sector_sizes(shield) == (1, 2, 1)
        assert [s.shape for s in cluster.stacks] == [(2, 1), (2, 3)]

    def test_square6_packs_in_sector_entries_only(self):
        prob = ti_problem(ti_square_geometry(HEIS, SQUARE_TEMPLATE_6))
        comp = _compiled(prob)
        cluster, shield = sectors(comp)[prob.variables[0].key]
        assert [s.shape for s in cluster.stacks] == [(2, 1), (2, 7), (2, 21), (2, 35)]
        assert sector_sizes(shield) == (1, 6, 15, 20, 15, 6, 1)
        assert comp.n == 1780
        # every block of one size is one stack: four cluster and four shield sizes
        assert [st.shape for st in comp.cl.stacks] == [(2, 1, 1), (2, 7, 7), (2, 21, 21),
                                                     (2, 35, 35)]
        assert [st.shape[0] for st in comp.sh.stacks] == [2, 2, 2, 1]
        assert med._Compiled(prob, 1).n == 128 * 129 // 2
        assert _compiled(prob) is comp

    def test_tfim_has_parity_sectors(self):
        prob = ti_problem(ti_chain_geometry(TFIM, 2))
        comp = _compiled(prob)
        cluster, shield = sectors(comp)[prob.variables[0].key]
        assert sector_sizes(cluster) == (4, 4)
        assert sector_sizes(shield) == (2, 2)
        assert comp.n == 20

    def test_charge_modulus_picks_u1_then_parity_then_one(self, rng):
        def modulus(model):
            geo = ti_chain_geometry(model, 2)
            return _charge_modulus([(geo.ham, geo.dims)])
        assert modulus(HEIS) == 0
        assert modulus(TFIM) == 2
        assert modulus(ISING) == 0
        a = rng.standard_normal((8, 8))
        assert _charge_modulus([(a + a.T, (2, 2, 2))]) == 1
        geo = ti_chain_geometry(HEIS, 2)
        field_on_top = np.kron(np.eye(4), PAULI_X)
        assert _charge_modulus([(geo.ham + field_on_top, geo.dims)]) == 1

    def test_one_breaking_cluster_gives_one_sector_everywhere(self):
        geo = finite_geometry(LatticeSpec("chain", 4), HEIS, radius=1)
        fin = finite_problem(geo)
        # a transverse field on the top site of one cluster breaks the charge
        first = fin.variables[0]
        field_on_top = np.kron(np.eye(first.dim // 2), PAULI_X)
        broken = dataclasses.replace(first, ham=first.ham + field_on_top)
        fin = MedProblem(variables=(broken,) + fin.variables[1:],
                         constraints=fin.constraints, site_norm=fin.site_norm)
        for v in fin.variables:
            cluster, shield = sectors(_compiled(fin))[v.key]
            assert sector_sizes(cluster) == (v.dim,)
            if v.shield_axes:
                assert len(sector_sizes(shield)) == 1
        # without the broken cluster the same lattice has sectors
        plain = finite_problem(geo)
        blocks = sectors(_compiled(plain))
        assert all(len(sector_sizes(blocks[v.key][0])) > 1 for v in plain.variables)

    def test_iterates_stay_in_sectors(self):
        # dense iterates drift off the sectors by roundoff (3.1e-5 here);
        # sector iterates keep exact zeros there and reach the same bound
        prob = ti_problem(ti_chain_geometry(HEIS, 4))
        res = solve(prob, 0.5)
        assert res.converged
        assert np.all(cluster_states(prob, res)["ti"][off_sector(5)] == 0.0)
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


def _dense_al_reference(problem, T, gmats, mults, pen):
    """The augmented Lagrangian and its gradients in G, on full matrices,
    one cluster and one constraint at a time."""
    eig, Ms = {}, {}
    value = 0.0
    for v in problem.variables:
        w, U = np.linalg.eigh(gmats[v.key])
        p = np.exp(w - w.max())
        p /= p.sum()
        rho = (U * p) @ U.conj().T
        eig[v.key] = (w, U, p, rho)
        value += _re_tr(v.ham, rho) + T * np.sum(p * np.log(p))
        M = v.ham + T * (U * np.log(p)) @ U.conj().T
        if v.shield_axes:
            pm, Um = np.linalg.eigh(_ptrace(rho, v.dims, v.shield_axes))
            value -= T * np.sum(pm * np.log(pm))
            M = M - T * _embed((Um * np.log(pm)) @ Um.conj().T, v.dims, v.shield_axes)
        Ms[v.key] = M
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
    return value, grads


def _modulus(problem):
    """The first charge modulus of U(1) (0), Z2 (2) and one sector (1) whose
    sectors hold every cluster Hamiltonian."""
    for m in (0, 2):
        if all(not np.any(v.ham[off_sector(len(v.dims), m)]) for v in problem.variables):
            return m
    return 1


def _pack_reference(problem, mats):
    """Per cluster: the diagonal, then the in-sector upper triangle sector by
    sector (times sqrt 2), then its imaginary parts for complex problems."""
    modulus = _modulus(problem)
    complex_ = any(np.iscomplexobj(v.ham) for v in problem.variables)
    parts = []
    for v in problem.variables:
        m = mats[v.key]
        q = charges(len(v.dims), modulus)
        i, j = np.triu_indices(v.dim, 1)
        keep = q[i] == q[j]
        order = np.argsort(q[i][keep], kind="stable")
        i, j = i[keep][order], j[keep][order]
        parts += [np.real(np.diagonal(m)), math.sqrt(2.0) * np.real(m[i, j])]
        if complex_:
            parts.append(math.sqrt(2.0) * np.imag(m[i, j]))
    return np.concatenate(parts)


def _flat_mults(problem, mults):
    """Dense multipliers as the solver's flat vector: per constraint, its
    in-sector entries in row-major order."""
    modulus = _modulus(problem)
    complex_ = any(np.iscomplexobj(v.ham) for v in problem.variables)
    parts = [y[~off_sector(len(c.left_axes), modulus)]
             for c, y in zip(problem.constraints, mults)]
    return np.concatenate(parts).astype(complex if complex_ else float)


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
        # complex Hamiltonians, parity sectors (TFIM) and charge sectors (Heisenberg)
        "complex tfim n=2": lambda: ti_problem(_rotated(ti_chain_geometry(TFIM, 2))),
        "complex heis n=2": lambda: ti_problem(_rotated(ti_chain_geometry(HEIS, 2))),
    }

    def _point(self, prob, rng, scale):
        modulus = _modulus(prob)
        complex_ = any(np.iscomplexobj(v.ham) for v in prob.variables)

        def mask(n):
            return ~off_sector(n, modulus)
        gmats = {v.key: _random_herm(rng, v.dim, scale, mask(len(v.dims)), complex_)
                 for v in prob.variables}
        mults = [_random_herm(rng, 2 ** len(c.left_axes), scale, mask(len(c.left_axes)),
                              complex_) for c in prob.constraints]
        return gmats, mults

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2 ** 32 - 1),
           T=st.sampled_from([0.3, 1.0]), pen=st.floats(0.5, 20.0),
           scale=st.sampled_from([0.3, 1.5]))
    def test_al_eval_matches_dense_reference(self, name, seed, T, pen, scale):
        prob = self.PROBLEMS[name]()
        rng = np.random.default_rng(seed)
        gmats, mults = self._point(prob, rng, scale)
        comp = _compiled(prob)
        if _modulus(prob) != 1:
            assert all(len(sector_sizes(s[0])) > 1 for s in sectors(comp).values())
        out = comp.al_eval(_pack_reference(prob, gmats), T, _flat_mults(prob, mults),
                           pen, want_grad=True)
        value, grads = _dense_al_reference(prob, T, gmats, mults, pen)
        assert abs(out["al"] - value) <= 1e-12 * max(1.0, abs(value))
        expect = _pack_reference(prob, grads)
        assert np.max(np.abs(out["grad"] - expect)) <= 1e-12

    @pytest.mark.parametrize("name", ["ring N=6 r=2", "complex heis n=2"])
    def test_frame_is_a_linear_change_of_variables(self, name, rng):
        # the frame's gradient is the adjoint of its map applied to grad_G,
        # and central differences of the framed objective match it
        prob = self.PROBLEMS[name]()
        comp = _compiled(prob)
        gmats, mults = self._point(prob, rng, 1.5)
        frame = _Frame(comp, _pack_reference(prob, gmats))
        step = 0.1 * rng.standard_normal(comp.n)
        gamma = comp.cl.from_dense([rng.standard_normal(g.shape) for g in gmats.values()],
                                   frame.g0.dtype)
        gamma = comp.cl.from_dense([g + g.conj().T for g in comp.cl.to_dense(gamma)],
                                   gamma.dtype)
        lhs = float(np.dot(comp.pack(frame.grad(gamma)), step))
        rhs = float(np.real(np.vdot(gamma, frame.g(step) - frame.g0)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        y = _flat_mults(prob, mults)
        x0 = np.zeros(comp.n)
        out = comp.al_eval(x0, 0.7, y, 3.0, want_grad=True, frame=frame)
        d = rng.standard_normal(comp.n)
        eps = 1e-6
        fp = comp.al_eval(x0 + eps * d, 0.7, y, 3.0, want_grad=False, frame=frame)["al"]
        fm = comp.al_eval(x0 - eps * d, 0.7, y, 3.0, want_grad=False, frame=frame)["al"]
        assert abs((fp - fm) / (2 * eps) - out["grad"] @ d) <= 1e-6 * max(1.0, abs(fp))


class TestComplexMode:
    def test_rotated_tfim_matches_real_bound(self):
        # u = diag(1, e^{i pi/4}) on every site maps the consistency
        # constraints to themselves, so the bound cannot change; the rotated
        # Hamiltonian has imaginary parts of 1 (on XX) and runs in complex mode
        geo = ti_chain_geometry(TFIM, 2)
        rot = _rotated(geo)
        assert abs(np.max(np.abs(rot.ham.imag)) - 1.0) <= 1e-12
        real = solve(ti_problem(geo), 1.0, TIGHT)
        rot_prob = ti_problem(rot)
        cplx = solve(rot_prob, 1.0, TIGHT)
        assert real.converged and cplx.converged
        assert np.iscomplexobj(cluster_states(rot_prob, cplx)["ti"])
        assert np.iscomplexobj(cplx.meta["warm"]["y"])
        assert abs(cplx.f_per_site - real.f_per_site) <= 2e-7
