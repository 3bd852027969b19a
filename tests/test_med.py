import math

import dataclasses
import json

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
    Constraint,
    MedProblem,
    SolverConfig,
    VarSpec,
    _compiled,
    _Frame,
    cluster_states,
    finite_problem,
    ground_energy_lower_bound,
    markov_free_energy,
    solve,
    temperature_sweep,
    ti_problem,
)
from medbound.layout import _Eig, _Flat, _Rule, _sector_rule
from medbound.opalg import (
    embed_mat,
    entropy_mat,
    ptrace_mat,
    trace_product,
)
from medbound.oracle import (
    exact_free_energy,
    gibbs_state,
    ising_transfer_free_energy,
    onsager_free_energy,
)

LN2 = math.log(2.0)
HEIS = ModelSpec("heisenberg")
ISING = ModelSpec("classical_ising")
TFIM = ModelSpec("tfim", J=1.0, g=1.0)
SQUARE_TEMPLATE_6 = ((-1, 0), (-2, 0), (-3, 0), (-1, 1), (0, 1), (1, 1))

TIGHT = SolverConfig(tol_gradient=1e-7, tol_constraint=1e-8, max_inner=3000)
# the benchmark's ground-bound case
GROUND_GRID = (0.15, 0.25, 0.4, 0.7, 1.0)
GROUND_CONFIG = SolverConfig(tol_gradient=1e-6, tol_constraint=1e-7, max_inner=4000)


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


def random_g(comp, rng, scale=1.0):
    """A random Hermitian G on the problem's layout, in its sectors and
    flip-invariant: random frame coordinates read as blocks, averaged over
    the flip."""
    return comp.cl.flip_average(comp.unpack_blocks(scale * rng.standard_normal(comp.n)))


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

    def test_state_of_another_dimension_rejected(self):
        # before: a bare IndexError from the sector rule's mask
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        with pytest.raises(ValueError, match="another problem"):
            markov_free_energy(ti_vars(prob, np.eye(4) / 4), prob, 1.0)

    def test_missing_state_rejected(self):
        # before: a bare KeyError
        geo = finite_geometry(LatticeSpec("chain", 4), HEIS, radius=1)
        prob = finite_problem(geo)
        _, states = gibbs_chain_marginals(4, HEIS, 1.0, geo)
        del states[prob.variables[-1].key]
        with pytest.raises(ValueError, match="another problem"):
            markov_free_energy(states, prob, 1.0)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_bad_temperature_rejected(self, t):
        # before: T = -1 gave 0.693 and T = nan gave nan
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        with pytest.raises(ValueError, match="temperature"):
            markov_free_energy(ti_vars(prob, np.eye(8) / 8), prob, t)


class TestGradient:
    def test_finite_differences(self, rng):
        # the objective without constraint terms against its gradient in G,
        # paired as the dense matrices are: each carried entry counts as
        # often as it occurs
        comp = _compiled(ti_problem(ti_chain_geometry(HEIS, 1)))
        y = np.zeros(comp.con.n)
        for _ in range(5):
            g = random_g(comp, rng)
            grad = comp.al_eval(g, 0.8, y, 0.0, want_grad=True)["grad"]
            direction = random_g(comp, rng)
            eps = 1e-5
            fp = comp.al_eval(g + eps * direction, 0.8, y, 0.0, want_grad=False)["al"]
            fm = comp.al_eval(g - eps * direction, 0.8, y, 0.0, want_grad=False)["al"]
            numeric = (fp - fm) / (2 * eps)
            analytic = float(np.real(np.vdot(comp.cl.mult * grad, direction)))
            assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(numeric))

    def test_vanishes_at_gibbs_single_cluster(self):
        # one cluster, no consistency constraints: the exact optimum is the
        # Gibbs state of the cluster Hamiltonian
        geo = ti_chain_geometry(HEIS, 1)
        t = 0.7
        var = VarSpec(key="c", dims=geo.dims, ham=geo.ham, shield_axes=())
        prob = MedProblem(variables=(var,), constraints=())
        comp = _compiled(prob)
        g = comp.cl.from_dense([-geo.ham / t])
        grad = comp.al_eval(g, t, np.zeros(comp.con.n), 0.0, want_grad=True)["grad"]
        assert np.max(np.abs(grad)) <= 1e-10

    def test_log_rho_is_read_off_g(self, rng):
        # weights down to e^-40, far below the 1e-12 a clamped log of the
        # weights would stop at: without shields or constraints the
        # derivative wrt rho is H + T log rho, and log rho is G - ln Tr e^G,
        # cluster by cluster
        t = 0.6
        variables = tuple(VarSpec(key=n, dims=geo.dims, ham=geo.ham)
                          for n, geo in ((1, ti_chain_geometry(HEIS, 1)),
                                         (2, ti_chain_geometry(HEIS, 2))))
        comp = _compiled(MedProblem(variables=variables, constraints=()))
        spread = [np.ptp(np.linalg.eigvalsh(v.ham)) for v in variables]
        g = (comp.cl.from_dense([-50.0 * v.ham / w for v, w in zip(variables, spread)])
             + random_g(comp, rng, 0.1))
        eig, tm = comp.evaluate(g, t)
        assert eig.p.min() <= math.exp(-40.0)
        own = comp.euclid(g, eig, tm, t, np.zeros(comp.con.n)) - comp.ham
        for got, gm in zip(comp.cl.to_dense(own), comp.cl.to_dense(g)):
            w = np.linalg.eigvalsh(gm)
            log_z = w.max() + math.log(np.sum(np.exp(w - w.max())))
            assert np.max(np.abs(got - t * (gm - log_z * np.eye(len(gm))))) <= 1e-12


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


class TestProblemValidation:
    """A malformed problem is rejected when it is built, not at its first
    solve with an IndexError from the layout."""

    VAR = VarSpec("a", (2, 2, 2), np.zeros((8, 8)), shield_axes=(0, 1))

    def problem(self, var=VAR, constraints=(), site_norm=1.0):
        other = VarSpec("b", (2, 3), np.zeros((6, 6)))
        return MedProblem((var, other), tuple(constraints), site_norm)

    def test_valid_problem_accepted(self):
        self.problem(constraints=[Constraint("a", (1, 2), "a", (0, 1)),
                                  Constraint("a", (2,), "b", (0,))])

    @pytest.mark.parametrize("shape", [(4, 4), (8,), (8, 4)])
    def test_hamiltonian_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="not 8 x 8"):
            self.problem(dataclasses.replace(self.VAR, ham=np.zeros(shape)))

    @pytest.mark.parametrize("dims", [(2, 0), (2, 2.5)])
    def test_bad_dims_rejected(self, dims):
        # before: both were accepted, and (2, 0) failed inside `solve` with
        # an IndexError from `maximum.reduceat`
        with pytest.raises(ValueError, match="dims of 'a' are not integers"):
            self.problem(VarSpec("a", dims))

    @pytest.mark.parametrize("axes", [(0, 3), (-1,), (1, 1), (1.5,)])
    def test_bad_shield_axes_rejected(self, axes):
        # before: 1.5 raised TypeError from `dims[a]`
        with pytest.raises(ValueError, match="out of range or repeated"):
            self.problem(dataclasses.replace(self.VAR, shield_axes=axes))

    @pytest.mark.parametrize("left, right", [((1, 3), (0, 1)), ((1, 2), (0, 0)),
                                             ((1, 2), (0, 1.0))])
    def test_bad_constraint_axes_rejected(self, left, right):
        with pytest.raises(ValueError, match="out of range or repeated"):
            self.problem(constraints=[Constraint("a", left, "a", right)])

    @pytest.mark.parametrize("con", [Constraint("a", (1, 2), "a", (0,)),
                                     Constraint("a", (0,), "b", (1,))],
                             ids=["length", "local dims"])
    def test_unequal_constraint_sides_rejected(self, con):
        with pytest.raises(ValueError, match="differ in length or local dims"):
            self.problem(constraints=[con])

    @pytest.mark.parametrize("con", [Constraint("c", (0,), "a", (0,)),
                                     Constraint("a", (0,), "c", (0,))])
    def test_unknown_constraint_keys_rejected(self, con):
        with pytest.raises(ValueError, match="unknown cluster variable"):
            self.problem(constraints=[con])

    @pytest.mark.parametrize("norm", [0.0, -1.0, math.inf, math.nan])
    def test_bad_site_norm_rejected(self, norm):
        with pytest.raises(ValueError, match="site_norm"):
            self.problem(site_norm=norm)


class TestMinimizeTI:
    """Solves of translation-invariant chains, `ti_problem(ti_chain_geometry(...))`."""

    def test_classical_ising_exact(self):
        for t in (0.5, 1.0, 2.0):
            res = solve(ti_problem(ti_chain_geometry(ISING, 1)), t, TIGHT)
            assert res.converged
            assert abs(res.f_per_site - ising_transfer_free_energy(1.0, 0.0, t)) <= 1e-6

    def test_heisenberg_high_temperature(self):
        # the mixed state is feasible, so F sits at most -T ln 2, and the
        # optimal correction is O(1/T)
        t = 500.0
        res = solve(ti_problem(ti_chain_geometry(HEIS, 2)), t, TIGHT)
        assert res.converged
        assert res.f_per_site <= -t * LN2 + 1e-9
        assert abs(res.f_per_site + t * LN2) <= 1e-3
        assert abs(res.s_m_per_site - LN2) <= 1e-5

    def test_f_equals_e_minus_ts(self):
        res = solve(ti_problem(ti_chain_geometry(HEIS, 2)), 1.0, TIGHT)
        assert abs(res.f_per_site - (res.e_per_site - 1.0 * res.s_m_per_site)) <= 1e-10

    def test_disconnected_shield_accepted(self):
        res = solve(ti_problem(ti_chain_geometry(HEIS, (-4, -1))), 1.0,
                    SolverConfig(max_inner=2000))
        assert res.converged
        # weaker than the contiguous 2-site shield at the same cluster size is
        # not guaranteed, but it must stay a bound below the exact chain value
        assert res.f_per_site <= -0.77

    def test_cluster_dim_guard(self):
        with pytest.raises(ValueError):
            solve(ti_problem(ti_chain_geometry(HEIS, 13)), 1.0)


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
        warm = solve(ti_problem(ti_chain_geometry(HEIS, 2)), 1.0).meta["warm"]
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
            assert all(r["status"] == "gtol" for r in again.meta["outer"])


class TestClusterStates:
    def test_states_give_the_result_value(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        res = solve(prob, 0.7)
        states = cluster_states(prob, res.meta["warm"])
        assert set(states) == {"ti"} and states["ti"].shape == (8, 8)
        assert abs(markov_free_energy(states, prob, 0.7) - res.f_per_site) <= 1e-12

    def test_p_min_is_the_smallest_eigenvalue_of_each_state(self):
        prob = ti_problem(ti_chain_geometry(HEIS, 2))
        res = solve(prob, 1.0)
        p_min = np.linalg.eigvalsh(cluster_states(prob, res.meta["warm"])["ti"]).min()
        assert res.meta["p_min"] == pytest.approx([p_min], rel=1e-12, abs=0.0)
        assert json.loads(json.dumps(res.meta["p_min"])) == res.meta["p_min"]

    def test_other_problems_result_rejected(self):
        res = solve(ti_problem(ti_chain_geometry(HEIS, 2)), 1.0)
        with pytest.raises(ValueError, match="another problem"):
            cluster_states(ti_problem(ti_chain_geometry(HEIS, 3)), res.meta["warm"])

    def test_result_holds_only_g_and_the_multipliers(self):
        prob = finite_problem(finite_geometry(LatticeSpec("chain", 4), HEIS, radius=1))
        res = solve(prob, 1.0)
        comp = _compiled(prob)
        arrays = [k for k, v in vars(res).items() if isinstance(v, np.ndarray)]
        assert not arrays
        assert res.meta["warm"]["g"].shape == (comp.cl.n,)
        assert res.meta["warm"]["y"].shape == (comp.con.n,)


class TestOuterReport:
    def test_rows_survive_json_and_sum_to_the_iterations(self):
        res = solve(ti_problem(ti_chain_geometry(HEIS, 2)), 1.0)
        rows = res.meta["outer"]
        assert len(rows) > 1
        assert json.loads(json.dumps(rows)) == rows
        assert all(set(r) == {"penalty", "gtol", "nit", "nfev", "pairs", "res_inf",
                              "inner_ok", "status"} for r in rows)
        # the inner solve's stop reason (`lbfgs.MinimizeResult.status`)
        assert all(r["status"] in ("gtol", "ftol", "maxiter", "line search") for r in rows)
        assert sum(r["nit"] for r in rows) == res.iterations
        assert all(r["nfev"] >= r["nit"] + 1 for r in rows)
        assert rows[-1]["inner_ok"] and rows[-1]["res_inf"] == res.residual

    def test_pairs_are_carried_while_the_penalty_holds(self):
        # the first inner solve has no pairs to start from, and a penalty
        # increase drops them; a multiplier update carries them
        rows = solve(ti_problem(ti_chain_geometry(HEIS, 3)), 0.5).meta["outer"]
        assert rows[0]["pairs"] == 0
        grown = [b for a, b in zip(rows, rows[1:]) if b["penalty"] > a["penalty"]]
        held = [b for a, b in zip(rows, rows[1:]) if b["penalty"] == a["penalty"]]
        assert grown and held
        assert all(r["pairs"] == 0 for r in grown)
        assert any(r["pairs"] > 0 for r in held)

    def test_every_row_of_a_ground_bound_reports_its_iterations(self):
        res = ground_energy_lower_bound(ti_problem(ti_chain_geometry(HEIS, 1)), [0.1, 0.3, 1.0])
        assert res.refined
        for row in res.sweep.rows + res.refined:
            assert sum(r["nit"] for r in row.meta["outer"]) == row.iterations


class TestStalledInnerSolve:
    @staticmethod
    def stub_minimizer(monkeypatch, jac_value):
        # an inner solve that stays at its start point with a fixed gradient
        calls = []

        def minimize(fun, x0, **kwargs):
            calls.append(1)
            return OptimizeResult(x=np.array(x0), nit=0, nfev=1, jac=np.full(len(x0), jac_value),
                                  status="gtol" if jac_value == 0.0 else "line search",
                                  pairs=np.zeros((0, 2, len(x0))))
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
        res = solve(ti_problem(ti_chain_geometry(HEIS, 3)), 0.5)
        assert res.converged and len(seen) > 10
        assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))

    def test_each_distinct_g_is_exponentiated_once(self, monkeypatch):
        # each inner solve starts at its frame's origin, the G the last one
        # ended at, which the feasibility check read from the cache: only
        # its other evaluations are new Gs, so a solve from G = 0 makes at
        # most 1 + sum(nfev - 1) exponentials (57 here; rounding the outer
        # point through the packed coordinates adds one per outer iteration)
        calls = []
        flat_exp = _Flat.exp

        def exp(self, log):
            calls.append(1)
            return flat_exp(self, log)
        monkeypatch.setattr(_Flat, "exp", exp)
        res = solve(ti_problem(ti_chain_geometry(HEIS, 3)), 0.5)
        rows = res.meta["outer"]
        assert res.converged and len(rows) > 1
        assert len(calls) <= 1 + sum(r["nfev"] - 1 for r in rows)


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
        from medbound.lattice import build_lattice
        terms, sites = build_lattice(LatticeSpec("chain", 6, boundary="periodic"), HEIS)
        from medbound.oracle import ground_energy
        e0_site = ground_energy(total_hamiltonian(terms, sites)) / 6
        res = ground_energy_lower_bound(prob, GROUND_GRID, GROUND_CONFIG)
        assert res.bracketed
        assert res.bound <= e0_site + 1e-6
        assert abs(res.bound - e0_site) <= 0.02
        # the slope rule: golden section to a 2e-3 bracket took 11
        # refinements; the bound stays below Hulthen's infinite chain and
        # within 1e-9 of the maximum of f over T as a tight solve resolves
        # it: -0.4786010892 at T = 0.20125 under SolverConfig(tol_gradient=
        # 1e-10, tol_constraint=1e-10, max_inner=4000), residual 1.4e-11,
        # with the solves at T = 0.2010 and 0.2015 lower
        assert len(res.refined) <= 3 and all(r.converged for r in res.refined)
        assert -0.4786010892 - 1e-9 <= res.bound <= 0.25 - LN2

    @staticmethod
    def analytic_rows(monkeypatch, f, s, unconverged=()):
        """`med.solve` replaced by the row of f(T) with entropy s(T) = -f'(T);
        the solves numbered in `unconverged` (from 1) fail and read 10."""
        calls = []

        def fake(problem, T, config=None, warm=None):
            calls.append(T)
            ok = len(calls) not in unconverged
            value = f(T) if ok else 10.0
            return med.MedResult(f_per_site=value, e_per_site=value + T * s(T),
                                 s_m_per_site=s(T), residual=0.0, iterations=1,
                                 converged=ok, T=T, meta={"warm": None})
        monkeypatch.setattr(med, "solve", fake)
        return calls

    def test_linear_entropy_takes_one_refinement(self, monkeypatch):
        # regula falsi is exact on a linear S_M, and the tangent at the root
        # is flat: one refinement, then the tangent test stops
        self.analytic_rows(monkeypatch, lambda t: -1.0 - (t - 0.33) ** 2,
                           lambda t: 2.0 * (t - 0.33))
        res = ground_energy_lower_bound(None, [0.1, 0.2, 0.5, 0.8])
        assert res.bracketed and len(res.refined) == 1
        assert abs(res.bound + 1.0) <= 1e-12

    def test_convex_entropy_converges_from_a_wide_bracket(self, monkeypatch):
        # S_M = sinh(T - 0.33) is convex on the bracket, so plain regula
        # falsi keeps its left end and crawls; the Illinois halving does not
        self.analytic_rows(monkeypatch, lambda t: -math.cosh(t - 0.33),
                           lambda t: math.sinh(t - 0.33))
        res = ground_energy_lower_bound(None, [0.01, 2.0])
        assert res.bracketed and len(res.refined) <= 6
        assert abs(res.bound + 1.0) <= 1e-9

    def test_unconverged_refinement_ends_the_search(self, monkeypatch):
        grid = [0.1, 0.2, 0.5, 0.8]
        calls = self.analytic_rows(monkeypatch, lambda t: -math.cosh(t - 0.33),
                                   lambda t: math.sinh(t - 0.33), unconverged=(len(grid) + 1,))
        res = ground_energy_lower_bound(None, grid)
        assert len(calls) == len(grid) + 1
        assert [r.converged for r in res.refined] == [False]
        assert res.bound == -math.cosh(0.2 - 0.33) and res.t_at == 0.2

    @pytest.mark.parametrize("t", [0.2, 0.5, 1.0])
    def test_slope_is_minus_the_entropy_and_curvature_negative(self, t):
        # the two facts the slope rule rests on: f'(T) = -S_M(T) (Danskin)
        # and f concave, by central differences from warm started solves
        prob, h = ti_problem(ti_chain_geometry(HEIS, 2)), 1e-3
        mid = solve(prob, t, GROUND_CONFIG)
        lo, hi = (solve(prob, t + d, GROUND_CONFIG, warm=mid.meta["warm"]) for d in (-h, h))
        assert mid.converged and lo.converged and hi.converged
        assert abs((hi.f_per_site - lo.f_per_site) / (2 * h) + mid.s_m_per_site) <= 1e-4
        assert hi.f_per_site - 2 * mid.f_per_site + lo.f_per_site < 0.0


class TestClassicalIsingSquare:
    """Square6 classical Ising against Onsager's exact infinite-lattice f: a
    solve marked converged must not return a value above it. The returned
    states collapse onto the boundary of the state space, with smallest
    eigenvalues down to 0, and L-BFGS can stop on a small gradient far from
    the minimum: whether the value lands below Onsager's is up to rounding."""

    # Both pass by chance. T = 2.0 returns -2.092870 marked converged, below
    # Onsager's -2.051586 but 0.044 above -2.136861, which a solve started
    # at penalty 100 with cold inner solves returned, also marked converged.
    # T = 4.0 returns -3.095235 marked converged, below Onsager's -3.036426,
    # with smallest eigenvalue 0: the states still reach the boundary
    @pytest.mark.parametrize("t", [4.0, 2.0])
    def test_converged_solve_lies_below_onsager(self, t):
        res = solve(ti_problem(ti_square_geometry(ISING, SQUARE_TEMPLATE_6)), t)
        assert not res.converged or res.f_per_site <= onsager_free_energy(t)


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
        solve(ti_problem(ti_chain_geometry(HEIS, 2)), 1.0, SolverConfig(max_inner=2000))
        assert any(len(trace) > 1 for trace in traces)
        for trace in traces:
            arr = np.asarray(trace)
            if len(arr) > 1:
                assert np.all(np.diff(arr) <= 1e-10 * np.maximum(1.0, np.abs(arr[:-1])))

    def test_shield_monotonicity(self):
        # enlarging the shield tightens (raises) the bound, never lowers it
        cfg = SolverConfig(tol_gradient=1e-7, tol_constraint=1e-8, max_inner=3000)
        f = [solve(ti_problem(ti_chain_geometry(HEIS, n)), 1.0, cfg).f_per_site
             for n in (1, 2, 3)]
        assert f[0] <= f[1] + 1e-6
        assert f[1] <= f[2] + 1e-6
        f_ising = [solve(ti_problem(ti_chain_geometry(ISING, n)), 1.0, cfg).f_per_site
                   for n in (1, 2)]
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
        # the flip carries one block of each mirror pair
        assert [s.shape for s in cluster.stacks] == [(1, 1), (1, 3)]
        assert [list(m) for m in cluster.mults] == [[2], [2]]
        assert [list(m) for m in shield.mults] == [[2], [1]]

    def test_square6_packs_in_sector_entries_only(self):
        prob = ti_problem(ti_square_geometry(HEIS, SQUARE_TEMPLATE_6))
        comp = _compiled(prob)
        cluster, shield = sectors(comp)[prob.variables[0].key]
        assert [s.shape for s in cluster.stacks] == [(1, 1), (1, 7), (1, 21), (1, 35)]
        assert sector_sizes(shield) == (1, 6, 15, 20, 15, 6, 1)
        # the packed point keeps both members of every flip pair
        assert comp.n == 1780
        # every block of one size is one stack: four cluster and four shield
        # sizes, one block of each mirror pair and the self-mirror 20
        assert [st.shape for st in comp.cl.stacks] == [(1, 1, 1), (1, 7, 7), (1, 21, 21),
                                                     (1, 35, 35)]
        assert [st.shape[0] for st in comp.sh.stacks] == [1, 1, 1, 1]
        assert med._Compiled(prob, _Rule(1)).n == 128 * 129 // 2
        assert _compiled(prob) is comp

    def test_tfim_has_parity_sectors(self):
        prob = ti_problem(ti_chain_geometry(TFIM, 2))
        comp = _compiled(prob)
        cluster, shield = sectors(comp)[prob.variables[0].key]
        assert sector_sizes(cluster) == (4, 4)
        assert sector_sizes(shield) == (2, 2)
        assert comp.n == 20

    def test_charge_modulus_picks_u1_then_parity_then_one(self, rng):
        def rule(model):
            geo = ti_chain_geometry(model, 2)
            return _sector_rule([(geo.ham, geo.dims)])
        assert rule(HEIS) == _Rule(0, flip=True)
        assert rule(TFIM) == _Rule(2, flip=False)
        assert rule(ISING) == _Rule(0, flip=True)
        a = rng.standard_normal((8, 8))
        assert _sector_rule([(a + a.T, (2, 2, 2))]) == _Rule(1, flip=False)
        geo = ti_chain_geometry(HEIS, 2)
        # X on the top site breaks the charge but commutes with the flip
        field_on_top = np.kron(np.eye(4), PAULI_X)
        assert _sector_rule([(geo.ham + field_on_top, geo.dims)]) == _Rule(1, flip=True)
        # -h Z on the top site keeps the charge and breaks the flip
        z_on_top = np.kron(np.eye(4), np.diag([-0.3, 0.3]))
        assert _sector_rule([(geo.ham + z_on_top, geo.dims)]) == _Rule(0, flip=False)

    def test_base_rule_joins_like_one_read(self, rng):
        # the rule of two groups of matrices, read one after the other, is
        # the rule of all of them: the later modulus, the flip of both
        a = rng.standard_normal((8, 8))
        geo = ti_chain_geometry(HEIS, 2)
        groups = {
            "heis": geo.ham,
            "tfim": ti_chain_geometry(TFIM, 2).ham,
            "z on top": geo.ham + np.kron(np.eye(4), np.diag([-0.3, 0.3])),
            "x on top": geo.ham + np.kron(np.eye(4), PAULI_X),
            "random": a + a.T,
            "none": None,
        }
        for first in groups.values():
            for second in groups.values():
                pairs = [(first, geo.dims)], [(second, geo.dims)]
                assert (_sector_rule(pairs[1], _sector_rule(pairs[0]))
                        == _sector_rule(pairs[0] + pairs[1]))

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

    def test_flip_breaking_states_turn_the_flip_off(self):
        # Gibbs marginals of Heisenberg plus a staggered field break the flip
        # (and, by the roundoff of the dense Gibbs state, the charge): the
        # rule read off them drops it, and the layout of that rule, cached
        # next to the flip one, evaluates them
        t = 0.8
        geo = finite_geometry(LatticeSpec("chain", 5), HEIS, radius=2)
        prob = finite_problem(geo)
        assert _compiled(prob).cl.mult.max() == 2
        h = total_hamiltonian(geo.terms, geo.sites)
        dims = (2,) * len(geo.sites)
        for i in range(len(geo.sites)):
            h = h + 0.4 * (-1) ** i * embed_mat(np.diag([1.0, -1.0]), dims, (i,))
        rho = gibbs_state(h, t)
        states = {k: ptrace_mat(rho, dims, site_axes(geo, geo.cluster_labels(k)))
                  for k in geo.sites}
        rule = _sector_rule([(m, v.dims) for v in prob.variables for m in (v.ham, states[v.key])])
        assert not rule.flip
        comp = _compiled(prob, rule)
        assert comp.cl.mult.max() == 1 and len(comp.cl.stacks) > 1
        assert set(prob._layouts) == {_Rule(0, flip=True), rule}
        ref = 0.0
        for v in prob.variables:
            ref += trace_product(v.ham, states[v.key]) - t * entropy_mat(states[v.key])
            if v.shield_axes:
                ref += t * entropy_mat(ptrace_mat(states[v.key], v.dims, v.shield_axes))
        flat = comp.cl.from_dense([states[k] for k in comp.keys])
        vals, vecs = comp.cl.eigh(flat)
        value = med._total(comp.terms(_Eig(vecs, np.maximum(vals, 0.0), flat), t).value)
        assert abs(value - ref) <= 1e-12
        assert abs(markov_free_energy(states, prob, t) - ref) <= 1e-12

    FLIP_PROBLEMS = {
        # a 4-site cluster: its S^z = 0 sector is its own mirror
        "ti n=3": lambda: ti_problem(ti_chain_geometry(HEIS, 3)),
        "ti n=4": lambda: ti_problem(ti_chain_geometry(HEIS, 4)),
        "ring N=6 r=2": lambda: finite_problem(
            finite_geometry(LatticeSpec("chain", 6, boundary="periodic"), HEIS, radius=2)),
        "square6": lambda: ti_problem(ti_square_geometry(HEIS, SQUARE_TEMPLATE_6)),
    }

    @pytest.mark.parametrize("name", sorted(FLIP_PROBLEMS))
    def test_flip_layout_matches_u1_layout(self, name, rng):
        # at flip-symmetric G and multipliers the flip layout gives the U(1)
        # layout's values and gradients in G, read as dense matrices; both
        # G and the residuals carry each mirror pair once
        prob = self.FLIP_PROBLEMS[name]()
        flip, u1 = _compiled(prob), med._Compiled(prob, _Rule(0))
        assert flip.n == u1.n
        assert flip.cl.mult.max() == 2 and flip.cl.mult.sum() == u1.cl.n
        assert flip.con.mult.max() == 2 and flip.con.mult.sum() == u1.con.n

        def point():
            return [_flip_symmetric(m) for m in u1.cl.to_dense(random_g(u1, rng, 0.5))]
        for _ in range(3):
            g = point()
            R = u1.al_eval(u1.cl.from_dense(point()), 1.0, np.zeros(u1.con.n), 0.0,
                           want_grad=False)["eq_R"]
            y = [_flip_symmetric(m) for m in u1.con.to_dense(R)]
            a = flip.al_eval(flip.cl.from_dense(g), 0.7, flip.con.from_dense(y), 3.0,
                             want_grad=True)
            b = u1.al_eval(u1.cl.from_dense(g), 0.7, u1.con.from_dense(y), 3.0, want_grad=True)
            assert abs(a["al"] - b["al"]) <= 1e-12 * max(1.0, abs(b["al"]))
            for ga, gb in zip(flip.cl.to_dense(a["grad"]), u1.cl.to_dense(b["grad"])):
                assert np.max(np.abs(ga - gb)) <= 1e-12

    @pytest.mark.parametrize("name, flip_n, u1_n", [("square6", 131, 258), ("ti n=4", 53, 70),
                                                    ("ring N=6 r=2", 51, 74)])
    def test_residuals_carry_each_mirror_pair_once(self, name, flip_n, u1_n):
        # the constraint residuals and multipliers are a flip layout too
        prob = self.FLIP_PROBLEMS[name]()
        assert _compiled(prob).con.n == flip_n
        assert med._Compiled(prob, _Rule(0)).con.n == u1_n

    def test_solve_keeps_flip_pairs_equal(self):
        # a mirror pair of blocks is carried once, and every step of G is
        # averaged over the flip (`_Flat.flip_average`), the self-mirror
        # S^z = 0 block of the 4-site cluster included: the solver's G equals
        # its flip exactly
        prob = ti_problem(ti_chain_geometry(HEIS, 3))
        res = solve(prob, 0.5)
        comp = _compiled(prob)
        assert res.converged and comp.cl.mult.max() == 2 and comp.cl.m_dst.size
        (g,) = comp.cl.to_dense(res.meta["warm"]["g"])
        assert np.array_equal(g, g[::-1, ::-1])

    def test_iterates_stay_in_sectors(self):
        # dense iterates drift off the sectors by roundoff (3.1e-5 here);
        # sector iterates keep exact zeros there and reach the same bound
        prob = ti_problem(ti_chain_geometry(HEIS, 4))
        res = solve(prob, 0.5)
        assert res.converged
        assert np.all(cluster_states(prob, res.meta["warm"])["ti"][off_sector(5)] == 0.0)
        assert abs(res.f_per_site - (-0.5385956078726468)) <= 1e-6


class TestDenseReference:
    # every rule the layout can run a problem under: U(1) with and without
    # the flip, Z2 and one sector (the TFIM keeps Z2, not U(1) or the flip)
    HEIS_RULES = (_Rule(0, flip=True), _Rule(0), _Rule(2), _Rule(1))
    CASES = [pytest.param(name, rule, id=f"{name} m={rule.modulus}{' flip' * rule.flip}")
             for name, rules in (("heis n=3", HEIS_RULES), ("heis n=4", HEIS_RULES),
                                 ("tfim n=2", (_Rule(2), _Rule(1))),
                                 ("ring N=6 r=2", HEIS_RULES))
             for rule in rules]
    PROBLEMS = {
        "heis n=3": lambda: ti_problem(ti_chain_geometry(HEIS, 3)),
        "heis n=4": lambda: ti_problem(ti_chain_geometry(HEIS, 4)),
        "tfim n=2": lambda: ti_problem(ti_chain_geometry(TFIM, 2)),
        "ring N=6 r=2": lambda: finite_problem(
            finite_geometry(LatticeSpec("chain", 6, boundary="periodic"), HEIS, radius=2)),
    }

    @pytest.mark.parametrize("name, rule", CASES)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), T=st.sampled_from([0.0, 0.3, 1.0]),
           scale=st.sampled_from([0.3, 1.5]))
    def test_evaluate_matches_markov_free_energy(self, name, rule, seed, T, scale):
        # the compiled objective at a random G against the dense objective
        # of the same states; under the flip a self-mirror block is carried
        # whole and the shield marginals average an entry and its mirror, so
        # the layout is exact at flip-invariant points only, which `random_g`
        # draws
        prob = self.PROBLEMS[name]()
        comp = _compiled(prob, rule)
        g = random_g(comp, np.random.default_rng(seed), scale)
        eig, tm = comp.evaluate(g, T)
        value = med._total(tm.value)
        states = dict(zip(comp.keys, comp.cl.to_dense(eig.rho)))
        assert abs(markov_free_energy(states, prob, T) - value) <= 1e-12 * max(1.0, abs(value))

    def test_self_mirror_block_is_averaged_with_its_mirror(self):
        # the S^z = 0 sector of the 4-site cluster is its own mirror and is
        # carried whole: `flip_average` averages each of its entries with
        # its mirror entry, so any G it returns is flip-invariant and the
        # compiled objective is the dense one there
        prob = self.PROBLEMS["heis n=3"]()
        comp = _compiled(prob)
        assert comp.cl.mult.min() == 1 and comp.cl.m_dst.size
        a = comp.unpack_blocks(0.3 * np.random.default_rng(0).standard_normal(comp.n))
        g = comp.cl.flip_average(a)
        eig, tm = comp.evaluate(g, 0.3)
        value = med._total(tm.value)
        states = dict(zip(comp.keys, comp.cl.to_dense(eig.rho)))
        assert abs(markov_free_energy(states, prob, 0.3) - value) <= 1e-12 * max(1.0, abs(value))
        # the average is its own adjoint in the inner product that counts
        # multiplicity, and keeps every vector it returns
        b = comp.unpack_blocks(np.random.default_rng(1).standard_normal(comp.n))
        lhs = float(np.real(np.vdot(comp.cl.mult * g, b)))
        assert abs(lhs - float(np.real(np.vdot(comp.cl.mult * a,
                                                comp.cl.flip_average(b))))) <= 1e-12
        assert np.array_equal(comp.cl.flip_average(g), g)


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


def _flips(problem):
    """Whether every cluster Hamiltonian is invariant under the global flip
    of the basis index, i -> d - 1 - i."""
    return all(np.array_equal(v.ham, v.ham[::-1, ::-1]) for v in problem.variables)


def _flip_symmetric(mat):
    return 0.5 * (mat + mat[::-1, ::-1])


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
        if _flips(prob):
            # the layout carries flip-symmetric points only
            gmats = {k: _flip_symmetric(g) for k, g in gmats.items()}
            mults = [_flip_symmetric(y) for y in mults]
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
        out = comp.al_eval(comp.cl.from_dense([gmats[k] for k in comp.keys]), T,
                           comp.con.from_dense(mults), pen, want_grad=True)
        value, grads = _dense_al_reference(prob, T, gmats, mults, pen)
        assert abs(out["al"] - value) <= 1e-12 * max(1.0, abs(value))
        expect = comp.cl.from_dense([grads[k] for k in comp.keys])
        assert np.max(np.abs(out["grad"] - expect)) <= 1e-12

    @pytest.mark.parametrize("name", ["ring N=6 r=2", "complex heis n=2"])
    def test_frame_is_a_linear_change_of_variables(self, name, rng):
        # the frame's gradient is the adjoint of its map applied to grad_G,
        # and central differences of the framed objective match it
        prob = self.PROBLEMS[name]()
        comp = _compiled(prob)
        gmats, mults = self._point(prob, rng, 1.5)
        frame = _Frame(comp, comp.cl.from_dense([gmats[k] for k in comp.keys]))
        step = 0.1 * rng.standard_normal(comp.n)
        gamma = comp.cl.from_dense([rng.standard_normal(g.shape) for g in gmats.values()],
                                   frame.g0.dtype)
        gamma = comp.cl.from_dense([g + g.conj().T for g in comp.cl.to_dense(gamma)],
                                   gamma.dtype)
        lhs = float(np.dot(frame.grad(gamma), step))
        # the inner product of dense matrices: each carried entry counts
        # as often as it occurs
        rhs = float(np.real(np.vdot(comp.cl.mult * gamma, frame.g(step) - frame.g0)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        y = comp.con.from_dense(mults)

        def al(x, want_grad=False):
            return comp.al_eval(frame.g(x), 0.7, y, 3.0, want_grad)
        x0 = np.zeros(comp.n)
        grad = frame.grad(al(x0, want_grad=True)["grad"])
        d = rng.standard_normal(comp.n)
        eps = 1e-6
        fp, fm = al(x0 + eps * d)["al"], al(x0 - eps * d)["al"]
        assert abs((fp - fm) / (2 * eps) - grad @ d) <= 1e-6 * max(1.0, abs(fp))


class TestCarriedPairs:
    """`_Frame.carry`: L-BFGS pairs read in a new frame."""

    LAYOUTS = {
        # U(1) with the flip: mirror pairs and a self-mirror block
        "heis n=3 u1 flip": lambda: _compiled(ti_problem(ti_chain_geometry(HEIS, 3))),
        "tfim n=2 z2": lambda: _compiled(ti_problem(ti_chain_geometry(TFIM, 2))),
        "complex heis n=2 one sector": lambda: med._Compiled(
            ti_problem(_rotated(ti_chain_geometry(HEIS, 2))), _Rule(1)),
    }

    @staticmethod
    def frames_and_pairs(comp, seed, k):
        """Two frames at random points and k pairs of the first, with both
        members of a flip pair of parameters equal and y = s + noise, so
        s^T y > 0 is of the order of |s| |y|, as on a convex objective."""
        rng = np.random.default_rng(seed)
        a, b = (_Frame(comp, random_g(comp, rng)) for _ in range(2))
        pairs = rng.standard_normal((k, 2, comp.n))
        pairs[:, 1] = pairs[:, 0] + 0.5 * pairs[:, 1]
        pairs = comp.pack_blocks(comp.unpack_blocks(pairs))
        pairs[:, 1] *= np.sign(np.einsum("ij,ij->i", pairs[:, 0], pairs[:, 1]))[:, None]
        return a, b, pairs

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6))
    def test_map_keeps_curvature_and_inverts(self, name, seed, k):
        comp = self.LAYOUTS[name]()
        a, b, pairs = self.frames_and_pairs(comp, seed, k)
        sy = np.einsum("ij,ij->i", pairs[:, 0], pairs[:, 1])
        mapped = b.carry(pairs, a)
        assert mapped.shape == pairs.shape
        # s^T y is the same pairing of a step of G with a change of gradient
        assert np.all(np.abs(np.einsum("ij,ij->i", mapped[:, 0], mapped[:, 1]) - sy)
                      <= 1e-12 * np.abs(sy))
        scale = np.max(np.abs(pairs))
        assert np.max(np.abs(a.carry(pairs, a) - pairs)) <= 1e-12 * scale
        assert np.max(np.abs(a.carry(mapped, b) - pairs)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_mapped_pair_is_the_same_step_and_gradient_change(self, name):
        # against each frame's own maps: s moves G by the same step in both
        # frames, and y is the new frame's reading of the same change of
        # the gradient in G
        comp = self.LAYOUTS[name]()
        a, b, _ = self.frames_and_pairs(comp, 5, 1)
        rng = np.random.default_rng(6)
        changes = [random_g(comp, rng) for _ in range(3)]
        y = np.array([a.grad(c) for c in changes])
        mapped = b.carry(np.stack([y, y], axis=1), a)
        assert len(mapped) == len(changes)
        for s, (s_new, y_new), c in zip(y, mapped, changes):
            step = a.g(s) - a.g0
            assert np.max(np.abs(step - (b.g(s_new) - b.g0))) <= 1e-12 * np.max(np.abs(step))
            assert np.max(np.abs(y_new - b.grad(c))) <= 1e-12 * np.max(np.abs(y_new))

    def test_pairs_without_positive_curvature_are_dropped(self):
        comp = self.LAYOUTS["tfim n=2 z2"]()
        a, b, pairs = self.frames_and_pairs(comp, 7, 4)
        pairs[1, 1] *= -1.0
        kept = b.carry(pairs, a)
        assert len(kept) == 3
        assert np.max(np.abs(kept - b.carry(pairs[[0, 2, 3]], a))) == 0.0


class TestCoordinates:
    """The inner coordinates of a `_Frame`: per cluster the diagonal and the
    in-sector upper triangle of a Hermitian G, mirror sectors included, the
    off-diagonal entries' real and imaginary parts scaled by sqrt 2."""

    # (problem, rule; None: the problem's own)
    LAYOUTS = {
        # U(1) with the flip: mirror pairs and a self-mirror block
        "heis n=3 u1 flip": (lambda: ti_problem(ti_chain_geometry(HEIS, 3)), None),
        "tfim n=2 z2": (lambda: ti_problem(ti_chain_geometry(TFIM, 2)), None),
        "square6": (lambda: ti_problem(ti_square_geometry(HEIS, SQUARE_TEMPLATE_6)), None),
        "complex heis n=2 one sector": (
            lambda: ti_problem(_rotated(ti_chain_geometry(HEIS, 2))), _Rule(1)),
    }

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_coordinates_are_the_dense_upper_triangle(self, name, seed):
        build, rule = self.LAYOUTS[name]
        prob = build()
        comp = _compiled(prob, rule)
        rng = np.random.default_rng(seed)
        g = random_g(comp, rng)
        x = comp.pack_blocks(g)
        assert np.max(np.abs(comp.unpack_blocks(x) - g)) <= 1e-14 * np.max(np.abs(g))
        # pack is the adjoint of unpack in the inner product that counts
        # every carried entry as often as it occurs
        z, h = rng.standard_normal(comp.n), random_g(comp, rng)
        lhs = float(z @ comp.pack_blocks(h))
        rhs = float(np.real(np.vdot(comp.cl.mult * comp.unpack_blocks(z), h)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        # up to order and sign, the orthonormal coefficients of the dense G
        # over the in-sector entries of the rule without the flip
        modulus = (rule or prob._rule).modulus
        coefs = []
        for v, mat in zip(prob.variables, comp.cl.to_dense(g)):
            q = charges(len(v.dims), modulus)
            i, j = np.triu_indices(v.dim, 1)
            i, j = i[q[i] == q[j]], j[q[i] == q[j]]
            coefs += [np.abs(np.diag(mat)), math.sqrt(2.0) * np.abs(mat[i, j].real),
                      math.sqrt(2.0) * np.abs(mat[i, j].imag)]
        expect, got = (np.sort(a[a > 0]) for a in (np.concatenate(coefs), np.abs(x)))
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(expect)


class TestSolveBudget:
    def test_iterations_over_a_fixed_table(self):
        # the benchmark's 10 solves on chains and the ring: 879 inner
        # iterations with the L-BFGS pairs carried across multiplier
        # updates, 1242 with every inner solve started from -g: a change
        # that costs iterations fails here
        ring = LatticeSpec("chain", 6, boundary="periodic")
        cases = ([(ti_problem(ti_chain_geometry(HEIS, n)), t) for n in (2, 3, 4)
                  for t in (0.5, 1.0)]
                 + [(ti_problem(ti_chain_geometry(TFIM, 2)), t) for t in (0.3, 0.5, 1.0)]
                 + [(finite_problem(finite_geometry(ring, HEIS, radius=2)), 1.0)])
        results = [solve(prob, t) for prob, t in cases]
        assert all(r.converged for r in results)
        assert sum(r.iterations for r in results) <= 1100

    def test_square6_iterations(self):
        # the benchmark's square-lattice solve takes 351 inner iterations;
        # the count is chaotic, 353-376 over 12 seeds of 1e-15 relative
        # noise on each gradient, and the bound leaves room for that
        res = solve(ti_problem(ti_square_geometry(HEIS, SQUARE_TEMPLATE_6)), 1.0)
        assert res.converged
        assert res.iterations <= 420


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
        assert np.iscomplexobj(cluster_states(rot_prob, cplx.meta["warm"])["ti"])
        assert np.iscomplexobj(cplx.meta["warm"]["y"])
        assert abs(cplx.f_per_site - real.f_per_site) <= 2e-7
