"""Primal minimization of the shield-local free energy.

The objective is the cluster energy minus T times the sum of per-site
conditional entropies S(site | shield), evaluated on a family of cluster
states that must agree on overlapping regions. Minimizing it over that
locally consistent family gives a certified lower bound on the true free
energy, and the maximum of the bound over temperature is a lower bound on
the ground energy.

Solver design: each cluster state is parametrized as rho = exp(G)/Tr exp(G)
over a Hermitian G, which builds positivity and normalization into the
coordinates. Consistency constraints are handled by an augmented Lagrangian
with geometric penalty growth; the smooth inner problems go to scipy's
limited-memory quasi-Newton with an analytic gradient. The chain rule
through the exponential map uses the divided-difference kernel of exp on
the eigenbasis of G. When every cluster Hamiltonian is real the whole
iteration stays in real symmetric matrices, which roughly halves the
parameter count and speeds up the eigensolver.

When every cluster Hamiltonian conserves the charge q (the sum of the local
basis indices of a basis state, the S^z count for spins), G is restricted
to its charge sectors: only the in-sector entries are parameters, and each
G and each shield marginal is diagonalized one sector at a time. This is
exact. The objective is convex and invariant under u^{(x)n} with
u = exp(i theta n), n the local basis index, and the consistency
constraints map to themselves under it, so averaging a minimizer over theta
gives a minimizer that commutes with the charge. The dense iteration would
stay in that subspace too in exact arithmetic (it starts at G = 0 and its
gradients are invariant); in floating point it drifts out of it. States,
marginals, multipliers and the gradient pullback stay dense matrices, with
exact zeros off the sectors. A problem in which some cluster Hamiltonian
breaks the charge keeps one sector per matrix, which is the plain dense
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from medbound.lattice import (
    CLUSTER_DIM_GUARD,
    FiniteGeometry,
    ModelSpec,
    TIGeometry,
    finite_geometry,
    ti_chain_geometry,
    ti_square_geometry,
)
from medbound.opalg import (
    DensityMatrix,
    SiteSpace,
    embed_mat,
    entropy_from_probs,
    ptrace_mat,
    sym,
    trace_product,
)

__all__ = [
    "SolverConfig",
    "VarSpec",
    "Constraint",
    "MedProblem",
    "ClusterVariables",
    "MedResult",
    "SweepRow",
    "SweepResult",
    "BoundResult",
    "ti_problem",
    "finite_problem",
    "multi_patch_problem",
    "markov_free_energy",
    "free_energy_gradient",
    "exponential_value_and_grad",
    "solve",
    "minimize_ti",
    "minimize_finite",
    "multi_patch_minimize",
    "temperature_sweep",
    "ground_energy_lower_bound",
]

LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    tol_gradient: float = 1e-6
    tol_constraint: float = 1e-6
    max_outer: int = 50
    max_inner: int = 500
    penalty_init: float = 1.0
    penalty_growth: float = 2.0
    seed: int = 0
    track_inner: bool = False

    def __post_init__(self):
        if min(self.tol_gradient, self.tol_constraint, self.penalty_init) <= 0:
            raise ValueError("tolerances and penalty must be positive")
        if self.penalty_growth <= 1:
            raise ValueError("penalty_growth must exceed 1")


@dataclass(frozen=True)
class VarSpec:
    """One cluster variable: labels in ordering position (top site last)."""

    key: object
    labels: tuple
    dims: tuple
    ham: np.ndarray | None = field(repr=False, default=None)
    shield_axes: tuple = ()
    patch: int = 0

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


@dataclass(frozen=True)
class Constraint:
    """Marginal of `left_key` on `left_axes` equals marginal of `right_key`
    on `right_axes` (axis lists are matched elementwise)."""

    left_key: object
    left_axes: tuple
    right_key: object
    right_axes: tuple


@dataclass(eq=False)
class MedProblem:
    variables: tuple
    constraints: tuple
    n_patches: int = 1
    site_norm: float = 1.0      # divide totals by this for per-site numbers
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._vmap = {v.key: v for v in self.variables}
        if len(self._vmap) != len(self.variables):
            raise ValueError("duplicate cluster variable keys")

    def var(self, key) -> VarSpec:
        try:
            return self._vmap[key]
        except KeyError:
            raise KeyError(f"no cluster variable {key!r}") from None


@dataclass(eq=False)
class ClusterVariables:
    """Optimized cluster states keyed like the problem's variables, plus the
    consistency constraints they were solved under."""

    states: dict
    constraints: tuple


@dataclass(eq=False)
class MedResult:
    f_per_site: float
    e_per_site: float
    s_m_per_site: float
    variables: ClusterVariables
    residual: float
    iterations: int
    converged: bool
    T: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepRow:
    T: float
    f_per_site: float
    e_per_site: float
    s_m_per_site: float
    residual: float
    iterations: int
    converged: bool
    specific_heat: float = math.nan


@dataclass(eq=False)
class SweepResult:
    rows: list
    meta: dict = field(default_factory=dict)


@dataclass(eq=False)
class BoundResult:
    bound: float
    t_at: float
    bracketed: bool
    note: str
    sweep: SweepResult
    refined: list


# ---------------------------------------------------------------------------
# problem constructors
# ---------------------------------------------------------------------------

def ti_problem(geo: TIGeometry, patch: int = 0, key: object = "ti") -> MedProblem:
    if geo.dim > CLUSTER_DIM_GUARD:
        raise ValueError(f"cluster dimension {geo.dim} exceeds guard {CLUSTER_DIM_GUARD}")
    var = VarSpec(key=key, labels=geo.labels, dims=geo.dims, ham=geo.ham,
                  shield_axes=geo.shield_axes, patch=patch)
    cons = tuple(Constraint(key, left, key, right) for left, right in geo.constraints)
    return MedProblem(variables=(var,), constraints=cons, n_patches=1,
                      site_norm=1.0, meta=dict(geo.meta))


def finite_problem(geo: FiniteGeometry, patch: int = 0) -> MedProblem:
    variables = []
    for k in geo.sites:
        labels = geo.cluster_labels(k)
        dims = (2,) * len(labels)
        if int(np.prod(dims)) > CLUSTER_DIM_GUARD:
            raise ValueError("cluster dimension exceeds guard")
        variables.append(VarSpec(key=k, labels=labels, dims=dims, ham=geo.hams[k],
                                 shield_axes=tuple(range(len(labels) - 1)),
                                 patch=patch))
    cons = tuple(Constraint(a, ax_a, b, ax_b) for a, ax_a, b, ax_b in geo.constraints)
    return MedProblem(variables=tuple(variables), constraints=cons, n_patches=1,
                      site_norm=float(geo.n_sites), meta=dict(geo.meta))


def multi_patch_problem(geos) -> MedProblem:
    """Several shield choices over shared degrees of freedom: each patch keeps
    its own cluster variables and translation constraints, and patches are
    tied together on the regions their clusters share."""
    geos = list(geos)
    if not geos:
        raise ValueError("need at least one patch")
    if all(isinstance(g, TIGeometry) for g in geos):
        variables = []
        constraints = []
        for p, geo in enumerate(geos):
            key = ("patch", p)
            sub = ti_problem(geo, patch=p, key=key)
            variables.extend(sub.variables)
            constraints.extend(sub.constraints)
        # cross-patch agreement on shared offsets
        for p in range(len(geos)):
            for q in range(p + 1, len(geos)):
                a, b = geos[p], geos[q]
                shared = [lab for lab in a.labels if lab in set(b.labels)]
                if not shared:
                    continue
                idx_a = {lab: i for i, lab in enumerate(a.labels)}
                idx_b = {lab: i for i, lab in enumerate(b.labels)}
                constraints.append(Constraint(("patch", p), tuple(idx_a[s] for s in shared),
                                              ("patch", q), tuple(idx_b[s] for s in shared)))
        meta = {"kind": "multi_patch", "patches": [dict(g.meta) for g in geos]}
        return MedProblem(variables=tuple(variables), constraints=tuple(constraints),
                          n_patches=len(geos), site_norm=1.0, meta=meta)
    if all(isinstance(g, FiniteGeometry) for g in geos):
        if len({g.sites for g in geos}) != 1:
            raise ValueError("finite patches must share the same lattice")
        variables = []
        constraints = []
        for p, geo in enumerate(geos):
            for k in geo.sites:
                labels = geo.cluster_labels(k)
                variables.append(VarSpec(key=("patch", p, k), labels=labels,
                                         dims=(2,) * len(labels), ham=geo.hams[k],
                                         shield_axes=tuple(range(len(labels) - 1)),
                                         patch=p))
            for a, ax_a, b, ax_b in geo.constraints:
                constraints.append(Constraint(("patch", p, a), ax_a, ("patch", p, b), ax_b))
        pos = {s: i for i, s in enumerate(geos[0].sites)}
        for p in range(len(geos)):
            for q in range(p + 1, len(geos)):
                for ka in geos[p].sites:
                    ca = geos[p].cluster_labels(ka)
                    idx_a = {lab: i for i, lab in enumerate(ca)}
                    for kb in geos[q].sites:
                        cb = geos[q].cluster_labels(kb)
                        shared = sorted(set(ca) & set(cb), key=pos.get)
                        if not shared:
                            continue
                        idx_b = {lab: i for i, lab in enumerate(cb)}
                        constraints.append(Constraint(
                            ("patch", p, ka), tuple(idx_a[s] for s in shared),
                            ("patch", q, kb), tuple(idx_b[s] for s in shared)))
        meta = {"kind": "multi_patch_finite", "patches": [dict(g.meta) for g in geos]}
        return MedProblem(variables=tuple(variables), constraints=tuple(constraints),
                          n_patches=len(geos), site_norm=float(geos[0].n_sites), meta=meta)
    raise ValueError("patches must be all translation-invariant or all finite")


# ---------------------------------------------------------------------------
# charge sectors
# ---------------------------------------------------------------------------

class _Blocks:
    """Basis indices of one matrix grouped by charge and stacked by sector
    size: `stacks` holds one (k, b) index array per sector size b."""

    __slots__ = ("charge", "stacks", "_plan")

    def __init__(self, charge: np.ndarray):
        self.charge = charge
        by_size: dict = {}
        for c in np.unique(charge):
            idx = np.flatnonzero(charge == c)
            by_size.setdefault(idx.size, []).append(idx)
        self.stacks = tuple(np.array(by_size[b]) for b in sorted(by_size))
        # gather indices of each stack and the columns its eigenvectors fill
        plan = []
        pos = 0
        for idx in self.stacks:
            k, b = idx.shape
            cols = np.arange(pos, pos + k * b).reshape(k, b)
            plan.append((idx[:, :, None], idx[:, None, :], cols, cols[:, None, :]))
            pos += k * b
        self._plan = tuple(plan)

    def eigh(self, A: np.ndarray):
        """Eigenpairs of a matrix that vanishes off the sectors: one batched
        eigh per sector size, the eigenvectors placed in a dense
        block-diagonal U (eigenvalues in sector order, not sorted)."""
        vals = np.empty(A.shape[0])
        U = np.zeros_like(A)
        for rows, cols, pos, pos_cols in self._plan:
            w, v = np.linalg.eigh(A[rows, cols])
            vals[pos] = w
            U[rows, pos_cols] = v
        return vals, U


def _charges(dims) -> np.ndarray:
    """Charge of every basis state: the sum of its local basis indices."""
    return np.indices(tuple(dims)).reshape(len(dims), -1).sum(axis=0)


def _conserves_charge(var: VarSpec) -> bool:
    if var.ham is None:
        return True
    q = _charges(var.dims)
    return not np.any(var.ham[q[:, None] != q[None, :]])


def _problem_sectors(problem: MedProblem, one_sector: bool = False) -> dict:
    """Per variable key: (cluster blocks, shield-marginal blocks or None).

    Charge sectors when every cluster Hamiltonian conserves the charge,
    otherwise (or with `one_sector`, for states not built by the solver) one
    sector per matrix."""
    by_charge = not one_sector and all(_conserves_charge(v) for v in problem.variables)

    def blocks(dims):
        return _Blocks(_charges(dims) if by_charge else np.zeros(int(np.prod(dims)), int))

    return {v.key: (blocks(v.dims),
                    blocks([v.dims[a] for a in v.shield_axes]) if v.shield_axes else None)
            for v in problem.variables}


# ---------------------------------------------------------------------------
# objective evaluation
# ---------------------------------------------------------------------------

class _State:
    """Eigendata of one cluster state rho = U diag(p) U^dagger. States built
    from exponential coordinates, rho = exp(G)/Z, also keep the shifted
    eigenvalues gs of G (max 0) and Z = sum exp(gs)."""

    __slots__ = ("p", "U", "gs", "z", "rho")

    def __init__(self, p, U, rho, gs=None, z=None):
        self.p = p
        self.U = U
        self.rho = rho
        self.gs = gs
        self.z = z

    @classmethod
    def from_g(cls, G: np.ndarray, blocks: _Blocks) -> "_State":
        vals, U = blocks.eigh(G)
        gs = vals - vals.max()
        w = np.exp(gs)
        z = float(w.sum())
        p = w / z
        return cls(p, U, sym((U * p) @ U.conj().T), gs, z)

    @classmethod
    def from_rho(cls, mat: np.ndarray) -> "_State":
        rho = sym(mat)
        p, U = np.linalg.eigh(rho)
        return cls(np.maximum(p, 0.0), U, rho)


def _exp_dd_kernel(gs: np.ndarray) -> np.ndarray:
    """Divided differences (e^a - e^b)/(a - b) with the confluent diagonal.

    The eigenvalues are shifted so gs <= 0, which keeps everything bounded;
    nearly equal pairs switch to a series to avoid cancellation."""
    a = gs[:, None]
    b = gs[None, :]
    diff = a - b
    small = np.abs(diff) < 1e-7
    safe = np.where(small, 1.0, diff)
    direct = (np.exp(a) - np.exp(b)) / safe
    series = np.exp(0.5 * (a + b)) * (1.0 + diff * diff / 24.0)
    return np.where(small, series, direct)


def _pullback(M: np.ndarray, st: _State) -> np.ndarray:
    """Hermitian gradient with respect to G of rho -> Tr(M rho)."""
    Mt = st.U.conj().T @ M @ st.U
    K = _exp_dd_kernel(st.gs) / st.z
    W = st.U @ (K * Mt) @ st.U.conj().T
    tr_m_rho = float(np.real(np.sum(np.diagonal(Mt) * st.p)))
    return sym(W - tr_m_rho * st.rho)


def _log_eig(p, U):
    return sym((U * np.log(np.maximum(p, LOG_FLOOR))) @ U.conj().T)


def _cluster_terms(var: VarSpec, st: _State, T: float, want_grad: bool,
                   shield: _Blocks | None):
    """Energy, shield-conditional entropy, and the matrix derivative wrt rho.
    `shield` gives the sectors of the shield marginal."""
    e = trace_product(st.rho, var.ham) if var.ham is not None else 0.0
    s_c = entropy_from_probs(st.p)
    if var.shield_axes:
        marg = ptrace_mat(st.rho, var.dims, var.shield_axes)
        pm, Um = shield.eigh(sym(marg))
        s_m = entropy_from_probs(pm)
    else:
        s_m = 0.0
    value = e - T * (s_c - s_m)
    M = None
    if want_grad:
        M = T * _log_eig(st.p, st.U)
        if var.ham is not None:
            M = M + var.ham
        if var.shield_axes:
            M = M - T * embed_mat(_log_eig(pm, Um), var.dims, var.shield_axes)
    return value, e, s_c - s_m, M


def _al_eval(problem: MedProblem, T: float, states: dict, t: float | None,
             eq_mults: list, ineq_mults: np.ndarray | None, pen: float,
             want_grad: bool, sectors: dict):
    """Augmented-Lagrangian value (and gradient pieces) at one point."""
    npatch = problem.n_patches
    patch_f = np.zeros(npatch)
    patch_e = np.zeros(npatch)
    patch_s = np.zeros(npatch)
    grads_M = {v.key: None for v in problem.variables} if want_grad else None
    obj_M = {}
    for v in problem.variables:
        st = states[v.key]
        value, e, s, M = _cluster_terms(v, st, T, want_grad, sectors[v.key][1])
        patch_f[v.patch] += value
        patch_e[v.patch] += e
        patch_s[v.patch] += s
        if want_grad:
            obj_M[v.key] = M

    # equality constraints between marginals
    eq_R = []
    res_inf = 0.0
    con_M = {v.key: None for v in problem.variables}
    al_con = 0.0
    for c, y in zip(problem.constraints, eq_mults):
        va = problem.var(c.left_key)
        vb = problem.var(c.right_key)
        ma = ptrace_mat(states[c.left_key].rho, va.dims, c.left_axes)
        mb = ptrace_mat(states[c.right_key].rho, vb.dims, c.right_axes)
        R = sym(ma - mb)
        eq_R.append(R)
        res_inf = max(res_inf, float(np.max(np.abs(R))))
        al_con += trace_product(y, R) + 0.5 * pen * trace_product(R, R)
        if want_grad:
            C = y + pen * R
            piece = embed_mat(C, va.dims, c.left_axes)
            con_M[c.left_key] = piece if con_M[c.left_key] is None else con_M[c.left_key] + piece
            piece = embed_mat(C, vb.dims, c.right_axes)
            con_M[c.right_key] = (-piece if con_M[c.right_key] is None
                                  else con_M[c.right_key] - piece)

    if npatch == 1:
        al = float(patch_f[0]) + al_con
        mu = np.array([1.0])
        grad_t = None
    else:
        # epigraph: minimize t subject to F_k <= t
        g = patch_f - t
        shifted = ineq_mults + pen * g
        mu = np.maximum(0.0, shifted)
        al = float(t) + float(np.sum(mu ** 2 - ineq_mults ** 2) / (2.0 * pen)) + al_con
        grad_t = 1.0 - float(mu.sum())

    grads = None
    if want_grad:
        grads = {}
        for v in problem.variables:
            M = obj_M[v.key] * mu[v.patch]
            if con_M[v.key] is not None:
                M = M + con_M[v.key]
            grads[v.key] = _pullback(M, states[v.key])
    return {
        "al": al,
        "patch_f": patch_f,
        "patch_e": patch_e,
        "patch_s": patch_s,
        "eq_R": eq_R,
        "res_inf": res_inf,
        "mu": mu,
        "grads": grads,
        "grad_t": grad_t,
    }


# ---------------------------------------------------------------------------
# packing Hermitian matrices into real vectors (isometric for Tr(AB))
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


class _Packer:
    """Diagonal and in-sector upper-triangle entries of each cluster's G as
    one real vector; entries between different sectors are not parameters."""

    def __init__(self, problem: MedProblem, real_mode: bool, with_t: bool, sectors: dict):
        self.keys = [v.key for v in problem.variables]
        self.dims = [v.dim for v in problem.variables]
        self.real = real_mode
        self.with_t = with_t
        self.iu = []        # in-sector upper-triangle entries, sector by sector
        for key, d in zip(self.keys, self.dims):
            q = sectors[key][0].charge
            i, j = np.triu_indices(d, 1)
            keep = q[i] == q[j]
            i, j = i[keep], j[keep]
            order = np.argsort(q[i], kind="stable")
            self.iu.append((i[order], j[order]))
        sizes = [d + (1 if real_mode else 2) * iu[0].size for d, iu in zip(self.dims, self.iu)]
        offs = np.cumsum([1 if with_t else 0] + sizes)
        self.slices = [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]
        self.n = int(offs[-1])

    def pack(self, mats: dict, t: float | None = None) -> np.ndarray:
        x = np.zeros(self.n)
        if self.with_t:
            x[0] = t
        for key, iu, sl in zip(self.keys, self.iu, self.slices):
            H = mats[key]
            off = H[iu]
            parts = [np.real(np.diagonal(H)), _SQRT2 * np.real(off)]
            if not self.real:
                parts.append(_SQRT2 * np.imag(off))
            x[sl] = np.concatenate(parts)
        return x

    def unpack(self, x: np.ndarray):
        mats = {}
        t = float(x[0]) if self.with_t else None
        for key, d, iu, sl in zip(self.keys, self.dims, self.iu, self.slices):
            v = x[sl]
            n_off = iu[0].size
            H = np.zeros((d, d)) if self.real else np.zeros((d, d), dtype=complex)
            off = v[d:d + n_off] / _SQRT2
            if not self.real:
                off = off + 1j * v[d + n_off:] / _SQRT2
            H[iu] = off
            H = H + H.conj().T
            H[np.diag_indices(d)] = v[:d]
            mats[key] = H
        return mats, t


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _zero_mults(problem: MedProblem, real_mode: bool):
    dtype = float if real_mode else complex
    mults = []
    for c in problem.constraints:
        va = problem.var(c.left_key)
        d = int(np.prod([va.dims[i] for i in c.left_axes]))
        mults.append(np.zeros((d, d), dtype=dtype))
    return mults


def _is_real_problem(problem: MedProblem) -> bool:
    return all(v.ham is None or not np.iscomplexobj(v.ham) for v in problem.variables)


def solve(problem: MedProblem, T: float, config: SolverConfig | None = None,
          warm: dict | None = None) -> MedResult:
    """Minimize the shield-local free energy at one temperature.

    `warm` is the ``meta['warm']`` entry of a previous result for the same
    problem; it seeds both the cluster states and the constraint multipliers.
    """
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    config = config or SolverConfig()
    real_mode = _is_real_problem(problem)
    with_t = problem.n_patches > 1
    sectors = _problem_sectors(problem)
    packer = _Packer(problem, real_mode, with_t, sectors)

    def states_of(gm):
        return {k: _State.from_g(g, sectors[k][0]) for k, g in gm.items()}

    if warm is not None:
        gmats = {k: np.array(v) for k, v in warm["g"].items()}
        eq_mults = [np.array(m) for m in warm["eq_mults"]]
        ineq_mults = (np.array(warm["ineq_mults"]) if warm.get("ineq_mults") is not None
                      else (np.ones(problem.n_patches) / problem.n_patches if with_t else None))
        t0 = warm.get("t")
    else:
        dtype = float if real_mode else complex
        gmats = {v.key: np.zeros((v.dim, v.dim), dtype=dtype) for v in problem.variables}
        eq_mults = _zero_mults(problem, real_mode)
        ineq_mults = np.ones(problem.n_patches) / problem.n_patches if with_t else None
        t0 = None

    if with_t and t0 is None:
        probe = _al_eval(problem, T, states_of(gmats), 0.0, eq_mults,
                         np.zeros(problem.n_patches), 1.0, want_grad=False, sectors=sectors)
        t0 = float(np.max(probe["patch_f"]))

    pen = config.penalty_init
    x = packer.pack(gmats, t0)
    inner_trace = [] if config.track_inner else None
    total_inner = 0
    converged = False

    def make_fun(eq_m, in_m, p):
        def fun(xv):
            gm, tv = packer.unpack(xv)
            out = _al_eval(problem, T, states_of(gm), tv, eq_m, in_m, p,
                           want_grad=True, sectors=sectors)
            grad = packer.pack(out["grads"], out["grad_t"])
            return out["al"], grad
        return fun

    # tolerance schedule: the inner gradient target and the feasibility target
    # tighten geometrically after successful multiplier updates; the penalty
    # grows only when feasibility misses its current target
    have_cons = bool(problem.constraints) or with_t
    omega = max(1e-2, config.tol_gradient) if have_cons else config.tol_gradient
    eta = max(1e-1, config.tol_constraint)
    n_outer = config.max_outer if have_cons else 1
    for outer in range(n_outer):
        gtol = max(omega, config.tol_gradient)
        fun = make_fun(eq_mults, ineq_mults, pen)
        callback = None
        if config.track_inner:
            trace = []

            def callback(xk, _trace=trace, _fun=fun):
                _trace.append(_fun(xk)[0])
        options = {"maxiter": config.max_inner, "gtol": gtol, "ftol": 1e-16, "maxcor": 25}
        res = _scipy_minimize(fun, x, jac=True, method="L-BFGS-B",
                              options=options, callback=callback)
        x = res.x
        total_inner += int(res.nit)
        inner_ok = float(np.max(np.abs(res.jac))) <= 5.0 * gtol
        if config.track_inner:
            inner_trace.append(trace)

        gmats, t_val = packer.unpack(x)
        out = _al_eval(problem, T, states_of(gmats), t_val, eq_mults, ineq_mults, pen,
                       want_grad=False, sectors=sectors)
        res_inf = out["res_inf"]
        if with_t:
            res_inf = max(res_inf, float(np.max(np.maximum(0.0, out["patch_f"] - t_val))))
        if not have_cons:
            converged = inner_ok
            break
        if res_inf <= max(eta, config.tol_constraint):
            if (res_inf <= config.tol_constraint and inner_ok
                    and gtol <= config.tol_gradient):
                converged = True
                break
            eq_mults = [y + pen * R for y, R in zip(eq_mults, out["eq_R"])]
            if with_t:
                ineq_mults = out["mu"]
            omega = max(0.2 * omega, config.tol_gradient)
            eta = max(0.2 * eta, config.tol_constraint)
        else:
            pen = min(pen * config.penalty_growth, 1e9)

    gmats, t_val = packer.unpack(x)
    states = states_of(gmats)
    out = _al_eval(problem, T, states, t_val, eq_mults, ineq_mults, pen, want_grad=False,
                   sectors=sectors)
    binding = int(np.argmax(out["patch_f"]))
    f_raw = float(out["patch_f"][binding])
    e_raw = float(out["patch_e"][binding])
    s_raw = float(out["patch_s"][binding])
    norm = problem.site_norm
    density = {v.key: DensityMatrix(SiteSpace(v.labels, v.dims), states[v.key].rho,
                                    _checked=True)
               for v in problem.variables}
    warm_out = {
        "g": {k: np.array(v) for k, v in gmats.items()},
        "eq_mults": [np.array(m) for m in eq_mults],
        "ineq_mults": None if ineq_mults is None else np.array(ineq_mults),
        "t": t_val,
    }
    meta = {
        "warm": warm_out,
        "patch_f": out["patch_f"] / norm,
        "penalty": pen,
        "verified": bool(converged),
    }
    if inner_trace is not None:
        meta["inner_trace"] = inner_trace
    return MedResult(
        f_per_site=f_raw / norm,
        e_per_site=e_raw / norm,
        s_m_per_site=s_raw / norm,
        variables=ClusterVariables(states=density, constraints=problem.constraints),
        residual=float(out["res_inf"]),
        iterations=total_inner,
        converged=converged,
        T=T,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# public evaluation helpers
# ---------------------------------------------------------------------------

def _states_from_vars(variables: ClusterVariables, problem: MedProblem) -> dict:
    out = {}
    for v in problem.variables:
        rho = variables.states[v.key]
        out[v.key] = _State.from_rho(rho.mat if hasattr(rho, "mat") else np.asarray(rho))
    return out


def markov_free_energy(variables: ClusterVariables, problem: MedProblem, T: float) -> float:
    """Cluster energy minus T times the shield-local entropy, per site in
    translation-invariant mode and total otherwise. With several patches the
    binding (largest) patch value is returned."""
    states = _states_from_vars(variables, problem)
    dense = _problem_sectors(problem, one_sector=True)
    vals = np.zeros(problem.n_patches)
    for v in problem.variables:
        value, _, _, _ = _cluster_terms(v, states[v.key], T, False, dense[v.key][1])
        vals[v.patch] += value
    return float(np.max(vals))


def free_energy_gradient(variables: ClusterVariables, problem: MedProblem, T: float) -> dict:
    """Euclidean gradient with respect to each cluster state:
    H + T (ln rho - embed(ln rho_shield))."""
    states = _states_from_vars(variables, problem)
    dense = _problem_sectors(problem, one_sector=True)
    grads = {}
    for v in problem.variables:
        _, _, _, M = _cluster_terms(v, states[v.key], T, True, dense[v.key][1])
        grads[v.key] = M
    return grads


def exponential_value_and_grad(gmats: dict, problem: MedProblem, T: float):
    """Objective and gradient in the exponential coordinates rho = exp(G)/Z.

    This is the solver's working derivative (single-patch problems, no
    constraint terms); central finite differences on G should match it.
    """
    if problem.n_patches != 1:
        raise ValueError("exponential gradient helper is single-patch only")
    dense = _problem_sectors(problem, one_sector=True)
    states = {k: _State.from_g(np.asarray(g), dense[k][0]) for k, g in gmats.items()}
    value = 0.0
    grads = {}
    for v in problem.variables:
        val, _, _, M = _cluster_terms(v, states[v.key], T, True, dense[v.key][1])
        value += val
        grads[v.key] = _pullback(M, states[v.key])
    return value, grads


# ---------------------------------------------------------------------------
# spec-level entry points
# ---------------------------------------------------------------------------

def minimize_ti(model: ModelSpec, shield, T: float,
                config: SolverConfig | None = None, *, lattice: str = "chain",
                warm: dict | None = None) -> MedResult:
    """Translation-invariant minimization. `shield` is the trailing window
    size on a chain or an offset template on the square lattice."""
    if lattice == "chain":
        geo = ti_chain_geometry(model, shield)
    elif lattice == "square":
        geo = ti_square_geometry(model, shield)
    else:
        raise ValueError(f"unknown translation-invariant lattice {lattice!r}")
    return solve(ti_problem(geo), T, config, warm=warm)


def minimize_finite(geo: FiniteGeometry, T: float,
                    config: SolverConfig | None = None,
                    warm: dict | None = None) -> MedResult:
    """Finite-lattice minimization over per-site cluster states with all
    pairwise overlap constraints."""
    return solve(finite_problem(geo), T, config, warm=warm)


def multi_patch_minimize(problem: MedProblem, T: float,
                         config: SolverConfig | None = None,
                         warm: dict | None = None) -> MedResult:
    """Minimize the maximum of the patch free energies over shared,
    locally consistent cluster states (epigraph formulation)."""
    return solve(problem, T, config, warm=warm)


def temperature_sweep(problem: MedProblem, t_grid, config: SolverConfig | None = None,
                      warm_start: bool = True) -> SweepResult:
    """Solve on a temperature grid, descending from high T with warm starts
    (the high-T optimum is near the maximally mixed state)."""
    t_grid = [float(t) for t in t_grid]
    if any(t <= 0 for t in t_grid) or sorted(t_grid) != t_grid:
        raise ValueError("temperature grid must be positive and ascending")
    results = {}
    warms = {}
    warm = None
    for t in sorted(t_grid, reverse=True):
        res = solve(problem, t, config, warm=warm if warm_start else None)
        results[t] = res
        warms[t] = res.meta["warm"]
        if warm_start:
            warm = res.meta["warm"]
    rows = []
    for t in t_grid:
        r = results[t]
        rows.append(SweepRow(T=t, f_per_site=r.f_per_site, e_per_site=r.e_per_site,
                             s_m_per_site=r.s_m_per_site, residual=r.residual,
                             iterations=r.iterations, converged=r.converged))
    rows = _with_specific_heat(rows)
    return SweepResult(rows=rows, meta={"problem": problem.meta,
                                        "warm_start": warm_start,
                                        "warms": warms})


def _with_specific_heat(rows):
    # c = -T d^2F/dT^2 by second divided differences on the (possibly
    # non-uniform) grid; endpoints stay undefined
    out = list(rows)
    for i in range(1, len(rows) - 1):
        t0, t1, t2 = rows[i - 1].T, rows[i].T, rows[i + 1].T
        f0, f1, f2 = (rows[i - 1].f_per_site, rows[i].f_per_site, rows[i + 1].f_per_site)
        d2 = 2.0 * (f0 / ((t1 - t0) * (t2 - t0)) - f1 / ((t2 - t1) * (t1 - t0))
                    + f2 / ((t2 - t1) * (t2 - t0)))
        out[i] = replace(rows[i], specific_heat=-t1 * d2)
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ground_energy_lower_bound(problem: MedProblem | None = None, t_grid=None,
                              config: SolverConfig | None = None, *,
                              sweep: SweepResult | None = None,
                              xtol: float | None = None,
                              max_refine: int = 30) -> BoundResult:
    """max_T of the free-energy bound, a certified lower bound on the ground
    energy per site. The maximum sits where the shield-local entropy crosses
    zero; the bracket from the sweep grid is refined by golden section. When
    the entropy never goes negative on the grid the crossing is not
    bracketed and the best grid value is returned with a note."""
    if sweep is None:
        if problem is None or t_grid is None:
            raise ValueError("need either a sweep or a problem with a grid")
        sweep = temperature_sweep(problem, t_grid, config)
    # only converged rows certify a bound: an unconverged value overestimates
    # the minimum and must not enter the maximum
    good = [r for r in sweep.rows if r.converged]
    notes = [] if len(good) == len(sweep.rows) else ["some grid rows unconverged"]
    if not good:
        return BoundResult(bound=math.nan, t_at=math.nan, bracketed=False,
                           note="no converged grid rows", sweep=sweep, refined=[])
    best = max(good, key=lambda r: r.f_per_site)
    bound, t_at = best.f_per_site, best.T
    bracket = None
    for lo, hi in zip(good[:-1], good[1:]):
        if lo.s_m_per_site < 0.0 <= hi.s_m_per_site:
            bracket = (lo.T, hi.T)
    if bracket is None:
        notes.insert(0, "crossing not bracketed")
        return BoundResult(bound=bound, t_at=t_at, bracketed=False,
                           note="; ".join(notes), sweep=sweep, refined=[])

    refined = []
    if problem is not None:
        warms = dict(sweep.meta.get("warms") or {})

        def eval_t(t):
            nonlocal bound, t_at
            warm = None
            if warms:
                warm = warms[min(warms, key=lambda s: abs(s - t))]
            res = solve(problem, t, config, warm=warm)
            warms[t] = res.meta["warm"]
            row = SweepRow(T=t, f_per_site=res.f_per_site, e_per_site=res.e_per_site,
                           s_m_per_site=res.s_m_per_site, residual=res.residual,
                           iterations=res.iterations, converged=res.converged)
            refined.append(row)
            if res.converged and res.f_per_site > bound:
                bound, t_at = res.f_per_site, t
            return res.f_per_site

        a, b = bracket
        tol = xtol if xtol is not None else max(2e-3, 2e-3 * 0.5 * (a + b))
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = eval_t(c), eval_t(d)
        n_eval = 2
        while (b - a) > tol and n_eval < max_refine:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = eval_t(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = eval_t(d)
            n_eval += 1
        if any(not r.converged for r in refined):
            notes.append("some refinement points unconverged")
    return BoundResult(bound=bound, t_at=t_at, bracketed=True,
                       note="; ".join(notes), sweep=sweep, refined=refined)
