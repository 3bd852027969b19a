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
limited-memory quasi-Newton (L-BFGS-B) with an analytic gradient, imported at
the first solve, so importing this module loads numpy only. The chain rule
through the exponential map uses the divided-difference kernel of exp on
the eigenbasis of G. Each inner problem is solved in coordinates fixed at
its start (`_Frame`) that rescale G, in the eigenbasis of the start point,
by the inverse square root of that kernel: the entropy's curvature in G
(the Kubo-Mori metric) shrinks with the weights of the states involved, and
the rescaling evens it out. When every cluster Hamiltonian is real the whole
iteration stays in real symmetric matrices, which roughly halves the
parameter count and speeds up the eigensolver.

When every cluster Hamiltonian conserves the charge q mod m (q the sum of
the local basis indices of a basis state, the S^z count for spins; m = 0
the plain sum), G is restricted to its charge sectors: only the in-sector
entries are parameters. This is exact. The objective is convex and
invariant under u^{(x)n} with u = exp(i theta n), n the local basis index
and theta any real (m = 0) or in (2 pi / m) Z (m > 0), and the consistency
constraints map to themselves under it, so averaging a minimizer over theta
gives a minimizer that commutes with the charge. The dense iteration would
stay in that subspace too in exact arithmetic (it starts at G = 0 and its
gradients are invariant); in floating point it drifts out of it. The rule
is the one BP uses (`layout._charge_modulus`: U(1), then Z2, then one
sector per matrix, the plain dense iteration), and `markov_free_energy`
also checks the states it is given, so charge-conserving states (BP
beliefs among them) are evaluated in sectors.

Each problem is compiled once, at its first solve, into a block layout
(`_Compiled`, on the `_Flat` class of `medbound.layout`, which the BP solver
builds on too): G, the states, the shield marginals, the multipliers and
the gradient are carried as charge-sector blocks, stacked by block size
across all clusters, and the partial traces and their adjoint embeddings are
index maps. One objective evaluation therefore makes a fixed number of
batched calls per block size, however many clusters, constraints and
sectors the problem has. A result holds the packed G, not dense states:
dense matrices appear only at the interface, in `cluster_states` (a result's
states, rebuilt from its packed G) and `markov_free_energy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from medbound.lattice import (
    FiniteGeometry,
    ModelSpec,
    TIGeometry,
    _is_count,
    ti_chain_geometry,
)
from medbound.layout import (
    _Eig,
    _Flat,
    _charge_modulus,
    _charges,
    _dag,
    _herm,
    _neg_xlogx,
    _scatter,
)
# ptrace_mat, embed_mat and entropy_from_probs are not called here; they stay
# attributes of this module because perfbench/tracing.py wraps them by name
from medbound.opalg import (  # noqa: F401
    EIG_FLOOR,
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
    "MedResult",
    "SweepResult",
    "BoundResult",
    "ti_problem",
    "finite_problem",
    "markov_free_energy",
    "solve",
    "cluster_states",
    "minimize_ti",
    "temperature_sweep",
    "ground_energy_lower_bound",
]

_PENALTY_INIT = 1.0
_PENALTY_GROWTH = 2.0


@dataclass(frozen=True)
class SolverConfig:
    """`tol_gradient` bounds the largest entry of the inner gradient in the
    preconditioned coordinates of `_Frame`; `tol_constraint` bounds the
    largest entry of the constraint residuals. The reported bound can lie
    about |multipliers| x `tol_constraint` below the optimum.

    The penalty schedule is fixed: the penalty starts at 1 and doubles
    whenever an outer iteration misses its feasibility target, up to 1e9."""

    tol_gradient: float = 1e-6
    tol_constraint: float = 1e-7
    max_outer: int = 50
    max_inner: int = 500

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.tol_gradient, self.tol_constraint)):
            raise ValueError("tolerances must be positive and finite")
        if not all(_is_count(x) for x in (self.max_outer, self.max_inner)):
            raise ValueError("iteration limits must be integers >= 1")


@dataclass(frozen=True)
class VarSpec:
    """One cluster variable: the local dimensions of its sites in ordering
    position (top site last), its Hamiltonian and its shield's axes."""

    key: object
    dims: tuple
    ham: np.ndarray | None = field(repr=False, default=None)
    shield_axes: tuple = ()

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
    site_norm: float = 1.0      # divide totals by this for per-site numbers
    # layouts built by `_compiled`, keyed by their charge modulus
    _layouts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a problem needs at least one cluster variable")
        self._vmap = {v.key: v for v in self.variables}
        if len(self._vmap) != len(self.variables):
            raise ValueError("duplicate cluster variable keys")

    def var(self, key) -> VarSpec:
        try:
            return self._vmap[key]
        except KeyError:
            raise KeyError(f"no cluster variable {key!r}") from None


@dataclass(eq=False)
class MedResult:
    """One solve's scalars; ``meta["warm"]`` is the point it ended at as the
    solver carries it, ``{"x": packed G, "y": multipliers}`` (`cluster_states`)."""

    f_per_site: float
    e_per_site: float
    s_m_per_site: float
    residual: float
    iterations: int
    converged: bool
    T: float
    meta: dict


@dataclass(eq=False)
class SweepResult:
    rows: list              # the `MedResult` of each grid temperature, ascending


@dataclass(eq=False)
class BoundResult:
    bound: float
    t_at: float
    bracketed: bool
    sweep: SweepResult
    refined: list           # the `MedResult` of each refinement, in solve order


# ---------------------------------------------------------------------------
# problem constructors
# ---------------------------------------------------------------------------

def ti_problem(geo: TIGeometry) -> MedProblem:
    var = VarSpec(key="ti", dims=geo.dims, ham=geo.ham, shield_axes=geo.shield_axes)
    cons = tuple(Constraint("ti", left, "ti", right) for left, right in geo.constraints)
    return MedProblem(variables=(var,), constraints=cons, site_norm=1.0)


def finite_problem(geo: FiniteGeometry) -> MedProblem:
    """Per-site cluster states of a finite lattice with all pairwise overlap
    constraints."""
    variables = []
    for k in geo.sites:
        size = len(geo.cluster_labels(k))
        variables.append(VarSpec(key=k, dims=(2,) * size, ham=geo.hams[k],
                                 shield_axes=tuple(range(size - 1))))
    cons = tuple(Constraint(a, ax_a, b, ax_b) for a, ax_a, b, ax_b in geo.constraints)
    return MedProblem(variables=tuple(variables), constraints=cons,
                      site_norm=float(geo.n_sites))


# ---------------------------------------------------------------------------
# the compiled problem
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _re_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise Re(conj(a) b): summed over a matrix, Re Tr(a b) for Hermitian a."""
    return np.real(a.conj() * b)


def _exp_dd_kernel(gs: np.ndarray) -> np.ndarray:
    """Divided differences (e^a - e^b)/(a - b) with the confluent diagonal,
    for every block of a (k, b) stack of eigenvalues.

    The eigenvalues are shifted so gs <= 0, which keeps everything bounded;
    nearly equal pairs switch to a series to avoid cancellation."""
    a = gs[:, :, None]
    b = gs[:, None, :]
    diff = a - b
    small = np.abs(diff) < 1e-7
    safe = np.where(small, 1.0, diff)
    direct = (np.exp(a) - np.exp(b)) / safe
    series = np.exp(0.5 * (a + b)) * (1.0 + diff * diff / 24.0)
    return np.where(small, series, direct)


class _Terms(NamedTuple):
    """Per cluster: energy e, conditional entropy s and value e - T s; the
    eigendata of the shield marginals and the constraint residuals R."""

    e: np.ndarray
    s: np.ndarray
    value: np.ndarray
    sh_vals: np.ndarray
    sh_vecs: list
    R: np.ndarray


class _Compiled:
    """A problem laid out once for the objective evaluation.

    - Blocks: the cluster states are one `_Flat` (`cl`); blocks of one size
      b from all clusters are read as one (k, b, b) stack, so one evaluation
      makes a fixed number of batched calls per block size.
    - Marginals: the shield marginals (a second `_Flat`, `sh`) and the
      in-sector entries of every constraint residual form a second flat
      vector. All partial traces onto it are one index map
      (`_Flat.trace_map`): block entry `src` adds `sign` times itself to
      marginal entry `tgt`. The embedding, its adjoint, reads the same map
      backwards. Both are bincounts.
    - Owners: the cluster of each block entry and eigenvalue, so
      per-cluster shifts, Z, energies and entropies are bincounts.
    - Packing: the real parameter vector holds, per cluster, the diagonal
      of G and its in-sector upper triangle sector by sector, imaginary
      parts after real ones.
      `unpack` gathers the blocks of G from it; `pack` is its adjoint on
      Hermitian blocks.
    Dense matrices appear only at the edges: the `_Flat` conversions."""

    def __init__(self, problem: MedProblem, modulus: int):
        variables = problem.variables
        self.keys = [v.key for v in variables]
        self.n_vars = len(variables)
        self.real = _is_real_problem(problem)
        self.cl = cl = _Flat([v.dims for v in variables], modulus)
        self.sh = sh = _Flat([[v.dims[a] for a in v.shield_axes] if v.shield_axes else None
                              for v in variables], modulus)
        self.ham = cl.from_dense([np.zeros((v.dim, v.dim)) if v.ham is None else v.ham
                                  for v in variables], float if self.real else complex)

        # shield marginals, then constraint residual entries: each partial
        # trace is (cluster, axes, 1-based target labels, sign)
        sh_labels = sh.to_dense(np.arange(1.0, sh.n + 1.0))
        traces = [(m, v.shield_axes, sh_labels[m], 1.0)
                  for m, v in enumerate(variables) if v.shield_axes]
        index = {k: m for m, k in enumerate(self.keys)}
        pos = 0
        for c in problem.constraints:
            dims = [problem.var(c.left_key).dims[a] for a in c.left_axes]
            d = int(np.prod(dims))
            q = _charges(dims, modulus)
            ea, eb = np.nonzero(q[:, None] == q[None, :])
            labels = np.zeros((d, d))
            labels[ea, eb] = self.sh.n + pos + 1 + np.arange(ea.size)
            traces += [(index[c.left_key], c.left_axes, labels, 1.0),
                       (index[c.right_key], c.right_axes, labels, -1.0)]
            pos += ea.size
        self.n_con = pos
        src, tgt, sign = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
        for m, axes, labels, s in traces:
            reached, hit = cl.trace_map(m, labels, axes)
            src.append(reached)
            tgt.append(hit)
            sign.append(np.full(hit.size, s))
        self.src, self.tgt, self.sign = map(np.concatenate, (src, tgt, sign))
        self._packing(variables)
        self._last = None           # [G, its _Eig, T, their _Terms]: see `exp`

    def _packing(self, variables):
        width = 1 if self.real else 2
        off = 0
        up, lo, wu, wl = [], [], [], []     # pack: x = wu F[up] + wl F[lo]
        self.u_src = np.zeros(width * self.cl.n, int)     # unpack: F = u_coef x[u_src]
        self.u_coef = np.zeros(width * self.cl.n)
        for m, v in enumerate(variables):
            d = v.dim
            q = self.cl.blocks[m].charge
            i, j = np.triu_indices(d, 1)
            keep = q[i] == q[j]
            order = np.argsort(q[i][keep], kind="stable")
            i, j = i[keep][order], j[keep][order]
            n_off = i.size
            sel = self.cl.sel[m]
            r, c = self.cl.rows[sel], self.cl.cols[sel]
            fpos = np.full((d, d), -1)
            fpos[r, c] = sel
            diag = fpos[np.arange(d), np.arange(d)]
            half = np.concatenate([np.full(d, 0.5), np.full(n_off, 0.5 * _SQRT2)])
            rank = np.zeros((d, d), int)
            rank[i, j] = rank[j, i] = np.arange(n_off)
            on_diag = r == c
            re_src = off + np.where(on_diag, r, d + rank[r, c])
            re_coef = np.where(on_diag, 1.0, 1.0 / _SQRT2)
            if self.real:
                up += [diag, fpos[i, j]]
                lo += [diag, fpos[j, i]]
                wu.append(half)
                wl.append(half)
                self.u_src[sel] = re_src
                self.u_coef[sel] = re_coef
            else:
                up += [2 * diag, 2 * fpos[i, j], 2 * fpos[i, j] + 1]
                lo += [2 * diag, 2 * fpos[j, i], 2 * fpos[j, i] + 1]
                wu += [half, np.full(n_off, 0.5 * _SQRT2)]
                wl += [half, np.full(n_off, -0.5 * _SQRT2)]
                self.u_src[2 * sel] = re_src
                self.u_coef[2 * sel] = re_coef
                self.u_src[2 * sel + 1] = np.where(on_diag, re_src, off + d + n_off + rank[r, c])
                self.u_coef[2 * sel + 1] = np.where(on_diag, 0.0,
                                                    np.where(r < c, 1.0, -1.0) / _SQRT2)
            off += d + width * n_off
        self.n = off
        self.p_up = np.concatenate(up)
        self.p_lo = np.concatenate(lo)
        self.p_wu = np.concatenate(wu)
        self.p_wl = np.concatenate(wl)

    # -- packed parameters ---------------------------------------------------

    def unpack(self, x: np.ndarray) -> np.ndarray:
        g = self.u_coef * x[self.u_src]
        return g if self.real else g.view(complex)

    def pack(self, flat: np.ndarray) -> np.ndarray:
        f = flat if self.real else flat.view(float)
        return self.p_wu * f[self.p_up] + self.p_wl * f[self.p_lo]

    # -- evaluation ------------------------------------------------------------

    def terms(self, eig: _Eig, T: float) -> _Terms:
        marg = _scatter(self.tgt, eig.rho[self.src] * self.sign, self.sh.n + self.n_con)
        sh_vals, sh_vecs = self.sh.eigh(marg)
        e = np.bincount(self.cl.owner, _re_prod(self.ham, eig.rho), self.n_vars)
        s = (np.bincount(self.cl.eig_owner, _neg_xlogx(eig.p), self.n_vars)
             - np.bincount(self.sh.eig_owner, _neg_xlogx(sh_vals), self.n_vars))
        return _Terms(e, s, e - T * s, sh_vals, sh_vecs, marg[self.sh.n:])

    def exp(self, g: np.ndarray) -> _Eig:
        """`cl.exp(g)`, kept for the last G (with its terms, see `evaluate`):
        one outer iteration of `solve` reads the same G three times, in its
        feasibility check, in the next `_Frame` and at that frame's origin."""
        last = self._last
        if last is None or not np.array_equal(last[0], g):
            last = self._last = [g, self.cl.exp(g), None, None]
        return last[1]

    def evaluate(self, g: np.ndarray, T: float):
        """exp(G) and its `_Terms` at T."""
        eig = self.exp(g)
        last = self._last
        if last[2] != T:
            last[2:] = T, self.terms(eig, T)
        return eig, last[3]

    def euclid(self, eig: _Eig, tm: _Terms, T: float, coef: np.ndarray) -> np.ndarray:
        """Derivative wrt rho: H + T log rho - T embed log rho_shield, plus
        the residual map's adjoint applied to `coef`."""
        logs = self.sh.from_eig(tm.sh_vecs, np.log(np.maximum(tm.sh_vals, EIG_FLOOR)))
        weights = np.concatenate([-T * logs, coef])
        own = self.ham + T * self.cl.from_eig(eig.vecs, np.log(np.maximum(eig.p, EIG_FLOOR)))
        return own + _scatter(self.src, weights[self.tgt] * self.sign, self.cl.n)

    def pullback(self, eig: _Eig, M: np.ndarray) -> np.ndarray:
        """Hermitian gradient wrt G of rho -> Tr(M rho), block by block."""
        tr = np.bincount(self.cl.owner, _re_prod(M, eig.rho), self.n_vars)
        grad = np.empty(self.cl.n, dtype=np.result_type(M, eig.rho))
        for st, v in zip(self.cl.stacks, eig.vecs):
            k, b, _ = st.shape
            mt = _dag(v) @ M[st.flat].reshape(st.shape) @ v
            kern = _exp_dd_kernel(eig.gs[st.eig].reshape(k, b)) / eig.z[st.owner][:, None, None]
            rho = eig.rho[st.flat].reshape(st.shape)
            w = v @ (kern * mt) @ _dag(v) - tr[st.owner][:, None, None] * rho
            grad[st.flat] = _herm(w).ravel()
        return grad

    def al_eval(self, x: np.ndarray, T: float, y: np.ndarray, pen: float,
                want_grad: bool, frame: _Frame | None = None) -> dict:
        """Augmented-Lagrangian value sum F_k + <y, R> + pen/2 <R, R> (and
        its packed gradient) at x, read in the packed coordinates of G or,
        with `frame`, in that frame's."""
        eig, tm = self.evaluate(self.unpack(x) if frame is None else frame.g(x), T)
        R = tm.R
        al_con = trace_product(y, R) + 0.5 * pen * trace_product(R, R)
        out = {
            "al": _total(tm.value) + al_con,
            "eq_R": R,
            "res_inf": float(np.max(np.abs(R))) if R.size else 0.0,
            "eig": eig,
            "terms": tm,
        }
        if want_grad:
            grad = self.pullback(eig, self.euclid(eig, tm, T, y + pen * R))
            out["grad"] = self.pack(grad if frame is None else frame.grad(grad))
        return out


# largest stretch the frame gives one direction: metric weights below 1e-6 of
# the top one count as 1e-6
_FRAME_CAP = 1e3


class _Frame:
    """Preconditioned coordinates for one inner solve, fixed at its start G0.

    Block by block G = G0 + U0 (S o X) U0^dagger, with X unpacked from the
    inner variables, U0 the eigenvectors of G0 and S_ab = min(k_ab^(-1/2),
    _FRAME_CAP), where k_ab is the divided difference of exp at the shifted
    eigenvalues a, b of G0 (1 on the top pair). Near a minimizer the Hessian
    of the objective in G is close to T times the Kubo-Mori metric, which is
    k_ab / Z on the (a, b) entries in the eigenbasis of G (less a rank-one
    term): directions along small eigenvalues of rho are nearly flat in G,
    and the frame stretches them to the curvature of the rest. The change is
    linear, so the inner problem stays smooth and convex; the gradient is
    S o (U0^dagger grad_G U0)."""

    def __init__(self, comp: _Compiled, x0: np.ndarray):
        self.comp = comp
        self.g0 = comp.unpack(x0)
        eig = comp.exp(self.g0)
        self.vecs = eig.vecs
        self.scales = []
        for st in comp.cl.stacks:
            k, b, _ = st.shape
            kern = _exp_dd_kernel(eig.gs[st.eig].reshape(k, b))
            self.scales.append(1.0 / np.sqrt(np.maximum(kern, _FRAME_CAP ** -2)))

    def g(self, x: np.ndarray) -> np.ndarray:
        comp = self.comp
        step = comp.unpack(x)
        g = self.g0.copy()
        for st, v, S in zip(comp.cl.stacks, self.vecs, self.scales):
            g[st.flat] += (v @ (S * step[st.flat].reshape(st.shape)) @ _dag(v)).ravel()
        return g

    def grad(self, grad: np.ndarray) -> np.ndarray:
        out = np.empty_like(grad)
        for st, v, S in zip(self.comp.cl.stacks, self.vecs, self.scales):
            out[st.flat] = (S * (_dag(v) @ grad[st.flat].reshape(st.shape) @ v)).ravel()
        return out


def _total(x: np.ndarray) -> float:
    """The sum of per-cluster terms, added in cluster order."""
    return float(np.cumsum(x)[-1])


def _is_real_problem(problem: MedProblem) -> bool:
    return all(v.ham is None or not np.iscomplexobj(v.ham) for v in problem.variables)


def _compiled(problem: MedProblem, mats: dict | None = None) -> _Compiled:
    """The problem's layout, built on first use and cached on the problem.

    Charge sectors on the modulus `layout._charge_modulus` picks from every
    cluster Hamiltonian and every matrix of `mats` (states or G keyed like
    the variables). A layout built for given `mats` is not cached: caching
    the layouts of evaluation-only callers (BP) raised `bp-chain` peak RSS
    from 88.6 to 92.6 MB."""
    modulus = _charge_modulus([(m, v.dims) for v in problem.variables
                               for m in (v.ham, (mats or {}).get(v.key))])
    comp = problem._layouts.get(modulus)
    if comp is None:
        comp = _Compiled(problem, modulus)
        if mats is None:
            problem._layouts[modulus] = comp
    return comp


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _scipy_minimize(fun, x0, **kwargs):
    """scipy's `minimize`, imported at the first call: a process that never
    runs the primal solver (BP, the oracles) does not load scipy."""
    from scipy.optimize import minimize
    return minimize(fun, x0, **kwargs)


def _warm_point(comp: _Compiled, warm: dict):
    """The packed G and multipliers of a result's ``meta["warm"]``; those
    of another problem raise ValueError."""
    x, y = warm["x"], warm["y"]
    if np.shape(x) != (comp.n,) or np.shape(y) != (comp.n_con,):
        raise ValueError("the warm start is for another problem")
    return x, y


def solve(problem: MedProblem, T: float, config: SolverConfig | None = None,
          warm: dict | None = None) -> MedResult:
    """Minimize the shield-local free energy at one temperature.

    `warm` is the ``meta['warm']`` entry of a previous result for the same
    problem, ``{"x": packed G, "y": multipliers}`` as the solver carries
    them; one of another problem raises ValueError.
    """
    if not 0 <= T < math.inf:
        raise ValueError("temperature must be finite and nonnegative")
    config = config or SolverConfig()
    comp = _compiled(problem)
    if warm is None:
        x = np.zeros(comp.n)
        eq_mults = np.zeros(comp.n_con, dtype=float if comp.real else complex)
    else:
        x, eq_mults = _warm_point(comp, warm)

    pen = _PENALTY_INIT
    total_inner = 0
    converged = False

    def make_fun(eq_m, p, frame):
        def fun(xv):
            out = comp.al_eval(xv, T, eq_m, p, want_grad=True, frame=frame)
            return out["al"], out["grad"]
        return fun

    # tolerance schedule: the inner gradient target and the feasibility target
    # tighten geometrically after successful multiplier updates; the penalty
    # grows only when feasibility misses its current target
    have_cons = bool(problem.constraints)
    omega = max(1e-2, config.tol_gradient) if have_cons else config.tol_gradient
    eta = max(1e-1, config.tol_constraint)
    n_outer = config.max_outer if have_cons else 1
    for outer in range(n_outer):
        gtol = max(omega, config.tol_gradient)
        frame = _Frame(comp, x)
        fun = make_fun(eq_mults, pen, frame)
        # the first trial step has unit length in the frame, which can
        # overshoot by orders of magnitude; maxls leaves room to come back
        options = {"maxiter": config.max_inner, "gtol": gtol, "ftol": 1e-16, "maxcor": 25,
                   "maxls": 50}
        res = _scipy_minimize(fun, np.zeros(comp.n), jac=True, method="L-BFGS-B",
                              options=options)
        x = comp.pack(frame.g(res.x))
        total_inner += int(res.nit)
        inner_ok = float(np.max(np.abs(res.jac))) <= 5.0 * gtol
        # an inner solve that takes no step and misses its gradient target
        # would be repeated unchanged by every later outer iteration
        if res.nit == 0 and not inner_ok:
            break

        out = comp.al_eval(x, T, eq_mults, pen, want_grad=False)
        res_inf = out["res_inf"]
        if not have_cons:
            converged = inner_ok
            break
        if res_inf <= max(eta, config.tol_constraint):
            if (res_inf <= config.tol_constraint and inner_ok
                    and gtol <= config.tol_gradient):
                converged = True
                break
            eq_mults = eq_mults + pen * out["eq_R"]
            omega = max(0.2 * omega, config.tol_gradient)
            eta = max(0.2 * eta, config.tol_constraint)
        else:
            pen = min(pen * _PENALTY_GROWTH, 1e9)

    out = comp.al_eval(x, T, eq_mults, pen, want_grad=False)
    tm = out["terms"]
    norm = problem.site_norm
    return MedResult(
        f_per_site=_total(tm.value) / norm,
        e_per_site=_total(tm.e) / norm,
        s_m_per_site=_total(tm.s) / norm,
        residual=float(out["res_inf"]),
        iterations=total_inner,
        converged=converged,
        T=T,
        meta={"warm": {"x": x, "y": eq_mults}},
    )


# ---------------------------------------------------------------------------
# dense states
# ---------------------------------------------------------------------------

def cluster_states(problem: MedProblem, result: MedResult) -> dict:
    """The cluster states of a `solve` result on `problem`, keyed like its
    variables: exp(G)/Tr exp(G) at the packed G of ``result.meta["warm"]``, bit
    for bit those the solver evaluated last. Another problem's raise ValueError."""
    comp = _compiled(problem)
    x, _ = _warm_point(comp, result.meta["warm"])
    return dict(zip(comp.keys, comp.cl.to_dense(comp.cl.exp(comp.unpack(x)).rho)))


def markov_free_energy(states: dict, problem: MedProblem, T: float) -> float:
    """Cluster energy minus T times the shield-local entropy of `states`
    (keyed like the variables), per site in TI mode and total otherwise."""
    mats = {v.key: sym(np.asarray(states[v.key])) for v in problem.variables}
    comp = _compiled(problem, mats)
    rho = comp.cl.from_dense([mats[k] for k in comp.keys])
    vals, vecs = comp.cl.eigh(rho)
    return _total(comp.terms(_Eig(vecs, np.maximum(vals, 0.0), rho), T).value)


# ---------------------------------------------------------------------------
# spec-level entry points
# ---------------------------------------------------------------------------

def minimize_ti(model: ModelSpec, shield, T: float,
                config: SolverConfig | None = None) -> MedResult:
    """Translation-invariant chain minimization; `shield` is a window size or
    offset list (`ti_chain_geometry`). Square lattices go through `solve`."""
    return solve(ti_problem(ti_chain_geometry(model, shield)), T, config)


def temperature_sweep(problem: MedProblem, t_grid,
                      config: SolverConfig | None = None) -> SweepResult:
    """Solve on a temperature grid, descending from high T (the high-T
    optimum is near the maximally mixed state), each solve warm started from
    the ``meta["warm"]`` of the one before. The rows are the solves'
    `MedResult`s in ascending T."""
    t_grid = [float(t) for t in t_grid]
    if (any(not 0 < t < math.inf for t in t_grid)
            or any(b <= a for a, b in zip(t_grid, t_grid[1:]))):
        raise ValueError("temperature grid must be positive, finite and strictly ascending")
    rows = []
    for t in reversed(t_grid):
        rows.append(solve(problem, t, config, warm=rows[-1].meta["warm"] if rows else None))
    return SweepResult(rows=rows[::-1])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_REFINE = 30        # solves one golden-section refinement makes at most


def ground_energy_lower_bound(problem: MedProblem, t_grid,
                              config: SolverConfig | None = None) -> BoundResult:
    """max_T of the free-energy bound, a certified lower bound on the ground
    energy per site. The maximum sits where the shield-local entropy crosses
    zero; the bracket from a sweep over `t_grid` is refined by golden
    section. Grid rows and refinements are `MedResult`s, and only converged
    ones enter the maximum. When the entropy never goes negative on the grid
    the crossing is not bracketed (`bracketed` False) and the best converged
    grid value is returned, nan if no grid row converged."""
    sweep = temperature_sweep(problem, t_grid, config)
    # only converged rows certify a bound: an unconverged value overestimates
    # the minimum and must not enter the maximum
    good = [r for r in sweep.rows if r.converged]
    if not good:
        return BoundResult(bound=math.nan, t_at=math.nan, bracketed=False, sweep=sweep,
                           refined=[])
    best = max(good, key=lambda r: r.f_per_site)
    bound, t_at = best.f_per_site, best.T
    bracket = None
    for lo, hi in zip(good[:-1], good[1:]):
        if lo.s_m_per_site < 0.0 <= hi.s_m_per_site:
            bracket = (lo.T, hi.T)
    if bracket is None:
        return BoundResult(bound=bound, t_at=t_at, bracketed=False, sweep=sweep, refined=[])

    refined = []

    def eval_t(t):
        nonlocal bound, t_at
        # the nearest solve, searched in solve order (the grid from high T
        # down, then the refinements), so the first of two equally near wins
        near = min(sweep.rows[::-1] + refined, key=lambda r: abs(r.T - t))
        res = solve(problem, t, config, warm=near.meta["warm"])
        refined.append(res)
        if res.converged and res.f_per_site > bound:
            bound, t_at = res.f_per_site, t
        return res.f_per_site

    a, b = bracket
    tol = max(2e-3, 2e-3 * 0.5 * (a + b))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = eval_t(c), eval_t(d)
    n_eval = 2
    while (b - a) > tol and n_eval < _MAX_REFINE:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = eval_t(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = eval_t(d)
        n_eval += 1
    return BoundResult(bound=bound, t_at=t_at, bracketed=True, sweep=sweep, refined=refined)
