"""The benchmark's workloads: which bounds are computed and how each is checked.

A case is one operation: one ``med.solve``, one ``med.ground_energy_lower_bound``
or one ``bpdual.bp_fixed_point`` with its ``bpdual.bp_free_energy``. Problems
are built once, in set-up; the timed passes only run the operations. Every
call goes through a module attribute (``med.solve``, not an imported name), so
the traced run's wrappers see it.

Reference values were recorded with one BLAS thread (numpy 2.4.6, scipy
1.17.1, OpenBLAS 0.3.31). A bound is looser than its reference, and fails,
when it lies below it by more than the case's ``below`` tolerance. The
tolerance is a few times what another path to the same optimum moves a
bound: at most 3.3e-9 for BP under damping 0.4 or 0.7, and at most 2.2e-7
for the primal solver under another penalty schedule or tighter tolerances.
With it a solve that returned a smaller cluster's bound fails on every
cluster pair of the workloads but one: BP Heisenberg n = 5 and n = 6 at
T = 1.0 are 8e-9 apart (the same pair at T = 0.5 is 4.5e-6 apart). A bound
may lie up to ``REF_ABOVE`` above its reference, which leaves room for a
tighter solve; where an exact value is known, the bound must also stay
below it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from medbound import bpdual, lattice, med, oracle

BP_BELOW = 1e-8     # a BP bound may lie this far below its reference
PRIMAL_BELOW = 1e-6 # the same for med.solve and the ground bound
REF_ABOVE = 1e-5    # any bound may lie this far above its reference
AGREE_TOL = 1e-6    # |primal - BP| on the shared Heisenberg n = 4 cases
UPPER_TOL = 1e-7    # a lower bound may exceed an exact value by this much

HEIS = lattice.ModelSpec("heisenberg")
TFIM = lattice.ModelSpec("tfim", J=1.0, g=1.0)
SQUARE_TEMPLATE_6 = ((-1, 0), (-2, 0), (-3, 0), (-1, 1), (0, 1), (1, 1))
GROUND_GRID = (0.15, 0.25, 0.4, 0.7, 1.0)
GROUND_CONFIG = med.SolverConfig(tol_gradient=1e-6, tol_constraint=1e-7, max_inner=4000)
HULTHEN_E0 = 0.25 - math.log(2.0)

# recorded bounds: per site, except the open chains (total)
REF = {
    "bp heis n=4 T=0.3": -0.476028092485,
    "bp heis n=4 T=0.5": -0.538595565226,
    "bp heis n=4 T=1.0": -0.795388426630,
    "bp heis n=5 T=0.3": -0.475635299463,
    "bp heis n=5 T=0.5": -0.538562936215,
    "bp heis n=5 T=1.0": -0.795388230834,
    "bp heis n=6 T=0.3": -0.475532324409,
    "bp heis n=6 T=0.5": -0.538558408760,
    "bp heis n=6 T=1.0": -0.795388222468,
    "bp tfim n=4 T=0.3": -1.285963208559,
    "bp tfim n=4 T=0.5": -1.306793477842,
    "bp tfim n=4 T=1.0": -1.415208183639,
    "bp tfim n=5 T=0.5": -1.306704029340,
    "bp tfim n=5 T=1.0": -1.415207667211,
    "bp tfim n=6 T=1.0": -1.415207641255,
    "bp open-heis N=16 n=2 T=0.5": -8.489045152071,
    "bp open-heis N=16 n=3 T=0.5": -8.458118816577,
    "bp open-heis N=16 n=4 T=0.5": -8.454909473963,
    "solve heis n=2 T=0.5": -0.541160640299,
    "solve heis n=2 T=1.0": -0.795538170579,
    "solve heis n=3 T=0.5": -0.538852746001,
    "solve heis n=3 T=1.0": -0.795393386603,
    "solve heis n=4 T=0.5": -0.538595607873,
    "solve heis n=4 T=1.0": -0.795388348383,
    "solve tfim n=2 T=0.3": -1.295189199132,
    "solve tfim n=2 T=0.5": -1.310304485964,
    "solve tfim n=2 T=1.0": -1.415466128411,
    "solve ring N=6 r=2 T=1.0": -0.796462382316,
    "ground heis n=2": -0.478601092770,
    "solve square6 T=1.0": -0.902156946733,
    "bp heis n=2 T=1.0": -0.795538141201,
    "solve heis n=1 T=1.0": -0.800521200069,
}


@dataclass(frozen=True)
class Outcome:
    value: float        # the bound
    iterations: int     # L-BFGS inner iterations or BP sweeps
    converged: bool


@dataclass(frozen=True)
class Case:
    """One operation plus what its bound is checked against."""

    name: str
    build: Callable[[], object]                 # set-up: geometry and problem
    run: Callable[[object], Outcome]            # the timed operation
    ref: float | None = None                    # recorded value
    below: float = PRIMAL_BELOW                 # how far under `ref` the bound may lie
    upper: Callable[[], float] | None = None    # exact value the bound must not exceed
    agree: float | None = None                  # other solver's value, within AGREE_TOL


def check(case: Case, out: Outcome) -> list[str]:
    """Messages for every check the bound fails; empty when it passes."""
    v = out.value
    if not math.isfinite(v):
        return [f"{case.name}: bound is {v}"]
    errors = []
    if case.ref is not None and v < case.ref - case.below:
        errors.append(f"{case.name}: {v:.12f} is looser than reference {case.ref:.12f}")
    if case.ref is not None and v > case.ref + REF_ABOVE:
        errors.append(f"{case.name}: {v:.12f} is far above reference {case.ref:.12f}")
    if case.agree is not None and abs(v - case.agree) > AGREE_TOL:
        errors.append(f"{case.name}: {v:.10f} disagrees with the other solver's "
                      f"{case.agree:.10f}")
    if case.upper is not None:
        exact = case.upper()
        if v > exact + UPPER_TOL:
            errors.append(f"{case.name}: bound {v:.10f} exceeds exact {exact:.10f}")
    return errors


# ---------------------------------------------------------------------------
# exact values the bounds must stay below (computed in the check phase)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tfim_exact_f(T: float) -> float:
    """Free-fermion free energy per site of the critical TFIM (J = g = 1)."""
    from scipy.integrate import quad
    val, _ = quad(lambda k: math.log(2.0 * math.cosh(2.0 * math.sin(k / 2.0) / T)),
                  0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
    return -T * val / math.pi


@lru_cache(maxsize=None)
def ring_exact_f(n_sites: int, T: float) -> float:
    terms, sites = lattice.build_lattice(
        lattice.LatticeSpec("chain", n_sites, boundary="periodic"), HEIS)
    return oracle.exact_free_energy(lattice.total_hamiltonian(terms, sites), T).f_per_site


# ---------------------------------------------------------------------------
# the three kinds of operation
# ---------------------------------------------------------------------------

def solve_op(T: float, config=None):
    def run(problem):
        res = med.solve(problem, T, config)
        return Outcome(res.f_per_site, res.iterations, res.converged)
    return run


def bp_op(config=None):
    def run(problem):
        state = bpdual.bp_fixed_point(problem, config)
        with warnings.catch_warnings():
            # an unconverged state still has a value; the operation counts as failed
            warnings.simplefilter("ignore", RuntimeWarning)
            value = bpdual.bp_free_energy(state, problem)
        return Outcome(value, state.iterations, state.converged)
    return run


def ground_op(grid, config):
    def run(problem):
        res = med.ground_energy_lower_bound(problem, grid, config)
        rows = list(res.sweep.rows) + list(res.refined)
        converged = res.bracketed and all(r.converged for r in rows)
        return Outcome(res.bound, sum(r.iterations for r in rows), converged)
    return run


def _ti_chain(model, n):
    return lambda: med.ti_problem(lattice.ti_chain_geometry(model, n))


def _bp_ti(model, n, T):
    return lambda: bpdual.bp_ti_problem(model, n, T)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _bp_chain() -> list[Case]:
    cases = []
    for n in (4, 5, 6):
        for T in (0.3, 0.5, 1.0):
            name = f"bp heis n={n} T={T}"
            agree = REF.get(f"solve heis n={n} T={T}") if n == 4 else None
            cases.append(Case(name, _bp_ti(HEIS, n, T), bp_op(), ref=REF[name],
                              below=BP_BELOW, agree=agree))
    for n, T in ((4, 0.3), (4, 0.5), (4, 1.0), (5, 0.5), (5, 1.0), (6, 1.0)):
        name = f"bp tfim n={n} T={T}"
        cases.append(Case(name, _bp_ti(TFIM, n, T), bp_op(), ref=REF[name],
                          below=BP_BELOW, upper=lambda T=T: tfim_exact_f(T)))
    spec = lattice.LatticeSpec("chain", 16)
    for n in (2, 3, 4):
        name = f"bp open-heis N=16 n={n} T=0.5"
        cases.append(Case(name, lambda n=n: bpdual.bp_chain_problem(spec, HEIS, n, 0.5),
                          bp_op(), ref=REF[name], below=BP_BELOW))
    return cases


def _primal_chain() -> list[Case]:
    cases = []
    for n in (2, 3, 4):
        for T in (0.5, 1.0):
            name = f"solve heis n={n} T={T}"
            agree = REF.get(f"bp heis n={n} T={T}") if n == 4 else None
            cases.append(Case(name, _ti_chain(HEIS, n), solve_op(T), ref=REF[name],
                              agree=agree))
    for T in (0.3, 0.5, 1.0):
        name = f"solve tfim n=2 T={T}"
        cases.append(Case(name, _ti_chain(TFIM, 2), solve_op(T), ref=REF[name],
                          upper=lambda T=T: tfim_exact_f(T)))
    ring = lattice.LatticeSpec("chain", 6, boundary="periodic")
    name = "solve ring N=6 r=2 T=1.0"
    cases.append(Case(name,
                      lambda: med.finite_problem(lattice.finite_geometry(ring, HEIS, radius=2)),
                      solve_op(1.0), ref=REF[name], upper=lambda: ring_exact_f(6, 1.0)))
    cases.append(Case("ground heis n=2", _ti_chain(HEIS, 2), ground_op(GROUND_GRID, GROUND_CONFIG),
                      ref=REF["ground heis n=2"], upper=lambda: HULTHEN_E0))
    return cases


def _primal_2d() -> list[Case]:
    name = "solve square6 T=1.0"
    return [Case(name,
                 lambda: med.ti_problem(lattice.ti_square_geometry(HEIS, SQUARE_TEMPLATE_6)),
                 solve_op(1.0), ref=REF[name])]


def _smoke() -> list[Case]:
    """Two sub-second operations, for the benchmark's own tests."""
    return [Case("bp heis n=2 T=1.0", _bp_ti(HEIS, 2, 1.0), bp_op(),
                 ref=REF["bp heis n=2 T=1.0"], below=BP_BELOW),
            Case("solve heis n=1 T=1.0", _ti_chain(HEIS, 1), solve_op(1.0),
                 ref=REF["solve heis n=1 T=1.0"])]


# name -> () -> cases
WORKLOADS = {
    "bp-chain": _bp_chain,
    "primal-chain": _primal_chain,
    "primal-2d": _primal_2d,
    "smoke": _smoke,
}
