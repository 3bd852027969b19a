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
with geometric penalty growth; the smooth inner problems go, with an analytic
gradient, to the limited-memory quasi-Newton of `medbound.lbfgs` (L-BFGS-B's
unconstrained path in numpy, imported at the first solve). The chain rule
through the exponential map uses the divided-difference kernel of exp on the
eigenbasis of G. Each inner problem is solved in coordinates fixed at its
start (`_Frame`) that rescale G, in the eigenbasis of the start point, by the
inverse square root of that kernel: the entropy's curvature in G (the
Kubo-Mori metric) shrinks with the weights of the states involved, and the
rescaling evens it out. When every cluster Hamiltonian is real the whole
iteration stays in real symmetric matrices, which roughly halves the
parameter count and speeds up the eigensolver.

The inner solves share their curvature. After a multiplier update the next
inner problem differs from the last only in its linear term, so the L-BFGS
pairs (s, y) the last solve ended with go on to the next one instead of
being learned again from a steepest-descent start (Byrd, Nocedal &
Schnabel, Math. Prog. 63, 129 (1994)). They live in the last frame's
coordinates, and the frames differ by a linear change of variables, so
`_Frame.carry` maps them exactly: s to the same step of G, y to the same
change of its gradient, which keeps s^T y. The initial inverse Hessian
L-BFGS scales them against stays gamma I in the new frame's coordinates,
i.e. the new frame's preconditioner. A penalty increase drops the pairs:
the pen J^T J term of the Hessian (J the derivative of the constraint
residuals) doubles, and pairs that saw the old penalty mislead (kept, they
took the 7-site square-lattice solve of the benchmark from 379 inner
iterations to 1266). A mapped pair with s^T y <= 0 is dropped too.

When every cluster Hamiltonian conserves the charge q mod m (q the sum of
the local basis indices of a basis state, the S^z count for spins; m = 0
the plain sum), G is restricted to its charge sectors: only the in-sector
entries are parameters. This is exact. The objective is convex and
invariant under u^{(x)n} with u = exp(i theta n), n the local basis index
and theta any real (m = 0) or in (2 pi / m) Z (m > 0), and the consistency
constraints map to themselves under it, so averaging a minimizer over theta
gives a minimizer that commutes with the charge. The dense iteration would
stay in that subspace too in exact arithmetic (it starts at G = 0 and its
gradients are invariant); in floating point it drifts out of it. The same
argument covers the global flip of the local index, n -> d - 1 - n (X on
every qubit), when every cluster Hamiltonian is invariant under it
(Heisenberg and the classical Ising model, not the TFIM): the objective and
the constraints are invariant under X^{(x)n}, so a minimizer averaged with
its flip is a flip-symmetric minimizer, and the layout carries one block of
each mirror pair of sectors, for G and for the constraint residuals and
their multipliers alike. A self-mirror block is carried whole, and every
step of G is averaged over the flip (`layout._Flat.flip_average`, which
averages each entry of such a block with its mirror entry), so G stays
flip-invariant. Packed parameters are only the inner coordinates of a
`_Frame`, read off the layout: the upper triangle of each carried block,
off-diagonal entries times sqrt 2, a mirror-pair block's twice. They are
orthonormal in the inner product that counts multiplicity, and the
duplicates keep the max-norm stop test of L-BFGS on the vector it reads
without the flip. The rule is BP's
(`layout._sector_rule`: U(1), then Z2, then one sector per matrix, the
plain dense iteration; the flip when every matrix keeps it).

Each problem is compiled once, under its Hamiltonians' rule, at its first
solve or BP bound, into a block layout (`_Compiled`, on the `_Flat` class of
`medbound.layout`, which the BP loop builds on too): G, the states, the
shield marginals, the residuals, the multipliers and the gradient are
carried as charge-sector blocks, stacked by block size across all
clusters, and the partial traces and their adjoint embeddings are index
maps. One objective evaluation therefore makes a fixed number of batched
calls per block size, however many clusters, constraints and sectors the
problem has. The solver's point is G and the multipliers on those layouts,
and a result holds them, not dense states: dense matrices appear only at
the interface, in `cluster_states` (the states at a result's or a BP
state's point) and in the dense reference objective, `markov_free_energy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from medbound.lattice import (
    FiniteGeometry,
    TIGeometry,
    _is_count,
    _is_int,
)
from medbound.layout import (
    _Eig,
    _Flat,
    _Rule,
    _dag,
    _herm,
    _neg_xlogx,
    _scatter,
    _sector_rule,
)
# embed_mat and entropy_from_probs are not called here; they stay attributes
# of this module because perfbench/tracing.py wraps them by name
from medbound.opalg import (  # noqa: F401
    EIG_FLOOR,
    embed_mat,
    entropy_from_probs,
    entropy_mat,
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


def _axis_dims(dims, axes) -> tuple:
    """The local dimensions on `axes`; axes that are not integers, out of
    range or repeated raise ValueError."""
    if len(set(axes)) != len(axes) or not all(_is_int(a) and 0 <= a < len(dims) for a in axes):
        raise ValueError(f"axes {tuple(axes)} of {dims}: non-integer, out of range or repeated")
    return tuple(dims[a] for a in axes)


@dataclass(frozen=True, eq=False)
class MedProblem:
    variables: tuple
    constraints: tuple
    site_norm: float = 1.0      # divide totals by this for per-site numbers

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a problem needs at least one cluster variable")
        object.__setattr__(self, "_vmap", {v.key: v for v in self.variables})
        if len(self._vmap) != len(self.variables):
            raise ValueError("duplicate cluster variable keys")
        if not 0 < self.site_norm < math.inf:
            raise ValueError("site_norm must be positive and finite")
        for v in self.variables:
            if not all(_is_count(d) for d in v.dims):
                raise ValueError(f"the dims of {v.key!r} are not integers >= 1: {v.dims}")
            if v.ham is not None and np.shape(v.ham) != (v.dim, v.dim):
                raise ValueError(f"the Hamiltonian of {v.key!r} is not {v.dim} x {v.dim}")
            _axis_dims(v.dims, v.shield_axes)
        for c in self.constraints:
            if c.left_key not in self._vmap or c.right_key not in self._vmap:
                raise ValueError(f"constraint on unknown cluster variables {c}")
            if (_axis_dims(self.var(c.left_key).dims, c.left_axes)
                    != _axis_dims(self.var(c.right_key).dims, c.right_axes)):
                raise ValueError(f"the two sides of {c} differ in length or local dims")

    def var(self, key) -> VarSpec:
        try:
            return self._vmap[key]
        except KeyError:
            raise KeyError(f"no cluster variable {key!r}") from None

    @cached_property
    def _rule(self) -> _Rule:
        """The sector rule of the cluster Hamiltonians (`layout._sector_rule`)."""
        return _sector_rule([(v.ham, v.dims) for v in self.variables])

    @cached_property
    def _layout(self) -> _Compiled:
        """The problem compiled under `_rule`, its one layout (`_compiled`)."""
        return _Compiled(self, self._rule)


@dataclass(eq=False)
class MedResult:
    """One solve's scalars; ``meta["warm"]`` is the point it ended at as the
    solver carries it, ``{"g": G, "y": multipliers}`` as flat vectors of the
    problem's layout (`_Compiled.cl` and `.con`; `cluster_states`),
    ``meta["outer"]`` one row per outer iteration: its penalty, gradient
    target, inner steps ("nit"), inner objective evaluations ("nfev"), the
    L-BFGS pairs carried into the inner solve ("pairs"), constraint
    residual, whether the target was met and the inner solve's stop reason
    (`lbfgs.MinimizeResult.status`), and
    ``meta["p_min"]`` the smallest eigenvalue of each cluster state there."""

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
    eigendata of the shield marginals and the constraint residuals R (on
    `_Compiled.con`)."""

    e: np.ndarray
    s: np.ndarray
    value: np.ndarray
    sh_vals: np.ndarray
    sh_vecs: list
    R: np.ndarray


def _gather_sum(x: np.ndarray, i: np.ndarray, a: np.ndarray, j: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """a x[..., i] + b x[..., j], with one temporary."""
    out = x.take(i, axis=-1)
    out *= a
    tmp = x.take(j, axis=-1)
    tmp *= b
    out += tmp
    return out


class _Compiled:
    """A problem laid out once for the objective evaluation.

    - Blocks: the cluster states are one `_Flat` (`cl`); blocks of one size
      b from all clusters are read as one (k, b, b) stack, so one evaluation
      makes a fixed number of batched calls per block size.
    - Marginals: the shield marginals (a second `_Flat`, `sh`) and the
      constraint residuals (a third, `con`, one matrix per constraint on
      its overlap, which carries the multipliers too) form one vector, `sh`
      then `con`. All partial traces onto it are one index map
      (`_Flat.trace_map`): block entry `src` adds `fwd` times itself to
      marginal entry `tgt`. The embedding, its adjoint, reads the same map
      backwards with the weights `bwd`. Both are bincounts.
    - Owners: the cluster of each block entry and eigenvalue, so
      per-cluster shifts, Z, energies and entropies are bincounts; each
      term is weighed by the multiplicity of its entry or eigenvalue (2 for
      a block that also stands for its mirror). The partial traces average
      an entry and its mirror (`fwd`), and the embedding is their adjoint
      in the inner products that count multiplicity (`bwd`).
    - Packing: the inner coordinates of a `_Frame`, a real vector of
      `n` entries, are the carried entries on and above the block
      diagonals, the real view's for complex blocks, then again those of
      the blocks of multiplicity 2; off-diagonal entries are scaled by
      sqrt 2. `pack_blocks` reads each as the mean of the entry and its
      transpose (`_Flat.transpose`); `unpack_blocks`, its adjoint in the
      inner product that counts multiplicity, gives each entry the mean of
      its upper entry's coordinate and that coordinate's duplicate.
    Dense matrices appear only at the edges: the `_Flat` conversions."""

    def __init__(self, problem: MedProblem, rule: _Rule):
        variables = problem.variables
        self.keys = [v.key for v in variables]
        self.n_vars = len(variables)
        self.real = all(v.ham is None or not np.iscomplexobj(v.ham) for v in variables)
        self.cl = cl = _Flat([v.dims for v in variables], rule)
        self.sh = sh = _Flat([[v.dims[a] for a in v.shield_axes] if v.shield_axes else None
                              for v in variables], rule)
        self.ham = cl.from_dense([np.zeros((v.dim, v.dim)) if v.ham is None else v.ham
                                  for v in variables], float if self.real else complex)

        self.con = con = _Flat([[problem.var(c.left_key).dims[a] for a in c.left_axes]
                                for c in problem.constraints], rule)
        # shield marginals, then constraint residuals: each partial trace is
        # (cluster, axes, 1-based target labels, sign)
        sh_labels = sh.to_dense(np.arange(1.0, sh.n + 1.0))
        con_labels = con.to_dense(np.arange(sh.n + 1.0, sh.n + con.n + 1.0))
        traces = [(m, v.shield_axes, sh_labels[m], 1.0)
                  for m, v in enumerate(variables) if v.shield_axes]
        index = {k: m for m, k in enumerate(self.keys)}
        for c, labels in zip(problem.constraints, con_labels):
            traces += [(index[c.left_key], c.left_axes, labels, 1.0),
                       (index[c.right_key], c.right_axes, labels, -1.0)]
        src, tgt, weight = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
        for m, axes, labels, s in traces:
            reached, hit, count, _ = cl.trace_map(m, labels, axes)
            src.append(reached)
            tgt.append(hit)
            weight.append(s * count)
        self.src, self.tgt, weight = map(np.concatenate, (src, tgt, weight))
        self.fwd = weight / np.concatenate([sh.mult, con.mult])[self.tgt]
        self.bwd = weight / cl.mult[self.src]

        # the inner coordinates of a `_Frame` (Packing, above)
        rows, cols, mult, tr, sign = cl.rows, cl.cols, cl.mult, cl.transpose, np.ones(cl.n)
        if not self.real:
            # the real view: entry k's real part at 2k and its imaginary
            # part at 2k + 1, read negated on a lower entry and as 0 on the
            # diagonal, where it has no coordinate
            rows, cols, mult = (np.repeat(a, 2) for a in (rows, cols, mult))
            tr = (2 * tr[:, None] + np.arange(2)).ravel()
            sign = np.stack([sign, np.sign(cl.cols - cl.rows)], axis=-1).ravel()
        upper = np.flatnonzero((rows <= cols) & (sign != 0))
        pair = upper[mult[upper] > 1]
        read = np.concatenate([upper, pair])
        scale = np.where(rows == cols, 1.0, _SQRT2)
        self.n = read.size
        w = 0.5 * scale[read]
        self.pack_map = read, w * sign[read], tr[read], w * sign[tr[read]]
        # per entry, its upper entry's coordinate and that coordinate's
        # duplicate, the same one again where it has none
        at = np.zeros((2, rows.size), int)
        at[:, upper] = np.arange(upper.size)
        at[1, pair] = np.arange(upper.size, read.size)
        up = np.where(rows <= cols, np.arange(rows.size), tr)
        coef = 0.5 / scale * sign
        self.unpack_map = at[0, up], coef, at[1, up], coef
        self._last = None           # [G, its _Eig, T, their _Terms]: see `exp`

    # -- packed parameters ---------------------------------------------------

    def unpack_blocks(self, x: np.ndarray) -> np.ndarray:
        g = _gather_sum(x, *self.unpack_map)
        return g if self.real else g.view(complex)

    def pack_blocks(self, flat: np.ndarray) -> np.ndarray:
        f = flat if self.real else flat.view(float)
        return _gather_sum(f, *self.pack_map)

    # -- evaluation ------------------------------------------------------------

    def terms(self, eig: _Eig, T: float) -> _Terms:
        cl, sh = self.cl, self.sh
        marg = _scatter(self.tgt, eig.rho[self.src] * self.fwd, sh.n + self.con.n)
        sh_vals, sh_vecs = sh.eigh(marg)
        e = np.bincount(cl.owner, cl.mult * _re_prod(self.ham, eig.rho), self.n_vars)
        s = (np.bincount(cl.eig_owner, cl.eig_mult * _neg_xlogx(eig.p), self.n_vars)
             - np.bincount(sh.eig_owner, sh.eig_mult * _neg_xlogx(sh_vals), self.n_vars))
        return _Terms(e, s, e - T * s, sh_vals, sh_vecs, marg[sh.n:])

    def exp(self, g: np.ndarray) -> _Eig:
        """`cl.exp(g)`, kept for the last G (with its terms, see `evaluate`):
        one outer iteration of `solve` reads the G its inner solve evaluated
        last three times more, in its feasibility check, in the next
        `_Frame` and at that frame's origin."""
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

    def euclid(self, g: np.ndarray, eig: _Eig, tm: _Terms, T: float,
               coef: np.ndarray) -> np.ndarray:
        """Derivative wrt rho = exp(G)/Tr exp(G) (`eig`): H + T log rho - T
        embed log rho_shield, plus the residual map's adjoint applied to `coef`;
        log rho is read off G (`_Flat.unit_log`), exact however small rho."""
        logs = self.sh.from_eig(tm.sh_vecs, np.log(np.maximum(tm.sh_vals, EIG_FLOOR)))
        weights = np.concatenate([-T * logs, coef])
        own = self.ham + T * self.cl.unit_log(g, eig)
        return own + _scatter(self.src, weights[self.tgt] * self.bwd, self.cl.n)

    def pullback(self, eig: _Eig, M: np.ndarray) -> np.ndarray:
        """Hermitian gradient wrt G of rho -> Tr(M rho), block by block."""
        tr = np.bincount(self.cl.owner, self.cl.mult * _re_prod(M, eig.rho), self.n_vars)
        grad = np.empty(self.cl.n, dtype=np.result_type(M, eig.rho))
        for st, v in zip(self.cl.stacks, eig.vecs):
            k, b, _ = st.shape
            mt = _dag(v) @ M[st.flat].reshape(st.shape) @ v
            kern = _exp_dd_kernel(eig.gs[st.eig].reshape(k, b)) / eig.z[st.owner][:, None, None]
            rho = eig.rho[st.flat].reshape(st.shape)
            w = v @ (kern * mt) @ _dag(v) - tr[st.owner][:, None, None] * rho
            grad[st.flat] = _herm(w).ravel()
        return grad

    def al_eval(self, g: np.ndarray, T: float, y: np.ndarray, pen: float,
                want_grad: bool) -> dict:
        """Augmented-Lagrangian value sum F_k + <y, R> + pen/2 <R, R> at G
        (and its gradient in G), the multipliers y and the residuals R on
        `con`, whose inner products weigh every entry by its multiplicity."""
        eig, tm = self.evaluate(g, T)
        R, mult = tm.R, self.con.mult
        al_con = float(mult @ _re_prod(y, R)) + 0.5 * pen * float(mult @ _re_prod(R, R))
        out = {
            "al": _total(tm.value) + al_con,
            "eq_R": R,
            "res_inf": float(np.max(np.abs(R))) if R.size else 0.0,
            "eig": eig,
            "terms": tm,
        }
        if want_grad:
            out["grad"] = self.pullback(eig, self.euclid(g, eig, tm, T, y + pen * R))
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
    S o (U0^dagger grad_G U0).

    G0 is the solver's outer point, flat on `_Compiled.cl`. X is read block
    by block (`_Compiled.unpack_blocks`) from orthonormal coordinates, a
    mirror-pair block's upper triangle twice, so the max-norm stop test
    reads what it reads without the flip. In the eigenbasis of G0 the flip
    is no index map, so the average of a self-mirror block with its mirror
    is taken on the step of G and on the gradient instead
    (`_Flat.flip_average`)."""

    def __init__(self, comp: _Compiled, g0: np.ndarray):
        self.comp = comp
        self.g0 = g0
        eig = comp.exp(g0)
        self.vecs = eig.vecs
        self.scales = []
        for st in comp.cl.stacks:
            k, b, _ = st.shape
            kern = _exp_dd_kernel(eig.gs[st.eig].reshape(k, b))
            self.scales.append(1.0 / np.sqrt(np.maximum(kern, _FRAME_CAP ** -2)))

    def g(self, x: np.ndarray) -> np.ndarray:
        """G at the packed inner variables x."""
        comp = self.comp
        step = comp.unpack_blocks(x)
        for st, v, S in zip(comp.cl.stacks, self.vecs, self.scales):
            step[st.flat] = (v @ (S * step[st.flat].reshape(st.shape)) @ _dag(v)).ravel()
        return self.g0 + comp.cl.flip_average(step)

    def grad(self, grad: np.ndarray) -> np.ndarray:
        """The packed inner gradient of a gradient in G."""
        grad = self.comp.cl.flip_average(grad)
        out = np.empty_like(grad)
        for st, v, S in zip(self.comp.cl.stacks, self.vecs, self.scales):
            out[st.flat] = (S * (_dag(v) @ grad[st.flat].reshape(st.shape) @ v)).ravel()
        return self.comp.pack_blocks(out)

    def carry(self, pairs: np.ndarray, old: _Frame) -> np.ndarray:
        """L-BFGS pairs (k, 2, n) of an inner solve in the frame `old`, read
        in this one: s the same step of G, y the same change of its gradient.
        With Q = U1^dagger U0 per block, S0 and S1 the two frames' scales,
        s' = (Q (S0 o s) Q^dagger) / S1 and y' = S1 o (Q (y / S0) Q^dagger),
        so s'^T y' = s^T y. Pairs whose s'^T y' is not positive are dropped."""
        comp, k = self.comp, len(pairs)
        blocks = comp.unpack_blocks(pairs)
        for st, v0, s0, v1, s1 in zip(comp.cl.stacks, old.vecs, old.scales,
                                      self.vecs, self.scales):
            q = _dag(v1) @ v0
            # s and y of every pair as one (k, 2, blocks, b, b) view of
            # `blocks`, mapped in place
            a = blocks[..., st.flat].reshape((k, 2) + st.shape)
            a *= np.stack([s0, 1.0 / s0])
            np.matmul(q @ a, _dag(q), out=a)
            a /= np.stack([s1, 1.0 / s1])
        mapped = comp.pack_blocks(blocks)
        return mapped[np.einsum("ij,ij->i", mapped[:, 0], mapped[:, 1]) > 0.0]


def _total(x: np.ndarray) -> float:
    """The sum of per-cluster terms, added in cluster order."""
    return float(np.cumsum(x)[-1])


def _compiled(problem: MedProblem) -> _Compiled:
    """The problem's one layout (`MedProblem._layout`), built at first use."""
    return problem._layout


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _scipy_minimize(fun, x0, **kwargs):
    """`medbound.lbfgs.minimize`, imported at the first call, so a process
    that never runs the primal solver does not import it. The name is kept
    only because the benchmark's tracer wraps this attribute by name."""
    from medbound.lbfgs import minimize
    return minimize(fun, x0, **kwargs)


def _warm_point(comp: _Compiled, warm: dict):
    """G (on `comp.cl`) and the multipliers (on `comp.con`) of a point (a
    ``meta["warm"]`` or `bp_point`); another problem's raise ValueError."""
    g, y = warm["g"], warm["y"]
    if np.shape(g) != (comp.cl.n,) or np.shape(y) != (comp.con.n,):
        raise ValueError("the warm start is for another problem")
    return g, y


def solve(problem: MedProblem, T: float, config: SolverConfig | None = None,
          warm: dict | None = None) -> MedResult:
    """Minimize the shield-local free energy at one temperature.

    `warm` is the ``meta['warm']`` entry of a previous result for the same
    problem, ``{"g": G, "y": multipliers}`` on the layout's `cl` and `con`;
    one of another problem raises ValueError.
    """
    if not 0 <= T < math.inf:
        raise ValueError("temperature must be finite and nonnegative")
    config = config or SolverConfig()
    comp = _compiled(problem)
    if warm is None:
        dtype = float if comp.real else complex
        g, eq_mults = np.zeros(comp.cl.n, dtype), np.zeros(comp.con.n, dtype)
    else:
        g, eq_mults = _warm_point(comp, warm)

    pen = _PENALTY_INIT
    total_inner = 0
    history = []
    converged = False
    frame = pairs = None        # pairs: the last inner solve's, kept for the next

    def make_fun(eq_m, p, frame):
        def fun(x):
            out = comp.al_eval(frame.g(x), T, eq_m, p, want_grad=True)
            return out["al"], frame.grad(out["grad"])
        return fun

    # tolerance schedule: the inner gradient target and the feasibility target
    # tighten geometrically after successful multiplier updates; the penalty
    # grows only when feasibility misses its current target
    omega = max(1e-2, config.tol_gradient)
    eta = max(1e-1, config.tol_constraint)
    for outer in range(config.max_outer):
        gtol = max(omega, config.tol_gradient)
        frame, old = _Frame(comp, g), frame
        if pairs is not None:
            pairs = frame.carry(pairs, old)
            del res         # and the unmapped pairs it holds
        fun = make_fun(eq_mults, pen, frame)
        res = _scipy_minimize(fun, np.zeros(comp.n), gtol=gtol, maxiter=config.max_inner,
                              pairs=pairs)
        g = frame.g(res.x)
        total_inner += int(res.nit)
        inner_ok = float(np.max(np.abs(res.jac))) <= 5.0 * gtol
        # G of the inner solve's last evaluation (unless its last line
        # search failed): `_Compiled.exp` reads it from its cache
        out = comp.al_eval(g, T, eq_mults, pen, want_grad=False)
        res_inf = out["res_inf"]
        history.append({"penalty": pen, "gtol": gtol, "nit": int(res.nit),
                        "nfev": int(res.nfev), "pairs": 0 if pairs is None else len(pairs),
                        "res_inf": res_inf, "inner_ok": inner_ok, "status": res.status})
        # an inner solve that takes no step and misses its gradient target
        # would be repeated unchanged by every later outer iteration
        if res.nit == 0 and not inner_ok:
            break
        if res_inf <= max(eta, config.tol_constraint):
            if (res_inf <= config.tol_constraint and inner_ok
                    and gtol <= config.tol_gradient):
                converged = True
                break
            eq_mults = eq_mults + pen * out["eq_R"]
            omega = max(0.2 * omega, config.tol_gradient)
            eta = max(0.2 * eta, config.tol_constraint)
            pairs = res.pairs
        else:
            # the pen J^T J term of the Hessian grows with the penalty
            pen = min(pen * _PENALTY_GROWTH, 1e9)
            pairs = None

    out = comp.al_eval(g, T, eq_mults, pen, want_grad=False)
    tm, cl = out["terms"], comp.cl
    p_min = np.minimum.reduceat(out["eig"].p.take(cl.eig_sort), cl.eig_starts)
    norm = problem.site_norm
    return MedResult(
        f_per_site=_total(tm.value) / norm,
        e_per_site=_total(tm.e) / norm,
        s_m_per_site=_total(tm.s) / norm,
        residual=float(out["res_inf"]),
        iterations=total_inner,
        converged=converged,
        T=T,
        meta={"warm": {"g": g, "y": eq_mults}, "outer": history, "p_min": p_min.tolist()},
    )


# ---------------------------------------------------------------------------
# dense states
# ---------------------------------------------------------------------------

def cluster_states(problem: MedProblem, point: dict) -> dict:
    """The states exp(G)/Tr exp(G), keyed like the variables, at a point of
    `problem`: a result's ``meta["warm"]`` (bit for bit the states it read
    last) or a `bpdual.bp_point`. Another problem's raise ValueError."""
    comp = _compiled(problem)
    g, _ = _warm_point(comp, point)
    return dict(zip(comp.keys, comp.cl.to_dense(comp.cl.exp(g).rho)))


def markov_free_energy(states: dict, problem: MedProblem, T: float) -> float:
    """Cluster energy minus T times the shield-local entropy of dense
    `states` (keyed like the variables), per site in TI mode and total
    otherwise. States of another problem raise ValueError."""
    if not 0 <= T < math.inf:
        raise ValueError("temperature must be finite and nonnegative")
    if any(np.shape(states.get(v.key)) != (v.dim, v.dim) for v in problem.variables):
        raise ValueError("the states are for another problem")
    total = 0.0
    for v in problem.variables:
        rho = sym(np.asarray(states[v.key]))
        s = entropy_mat(rho)
        if v.shield_axes:
            s -= entropy_mat(ptrace_mat(rho, v.dims, v.shield_axes))
        total += (0.0 if v.ham is None else trace_product(v.ham, rho)) - T * s
    return total


# ---------------------------------------------------------------------------
# spec-level entry points
# ---------------------------------------------------------------------------

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


_MAX_REFINE = 30        # refinement solves one bound makes at most
_TANGENT_GAP = 1e-9     # per site: stop once max_T f is known to this


def ground_energy_lower_bound(problem: MedProblem, t_grid,
                              config: SolverConfig | None = None) -> BoundResult:
    """max_T of the free-energy bound, a certified lower bound on the ground
    energy per site, over the converged solves (`MedResult`s: grid rows, then
    refinements). f(T) is a minimum over a T-independent feasible set of
    functions affine in T: concave, with slope -S_M(T) (Danskin), it peaks
    where S_M crosses 0. Inside the last grid bracket a < b with S_M(a) < 0
    <= S_M(b) the next T is the regula falsi root of S_M, Illinois-style (the
    stored S_M of an end kept twice in a row is halved). The states solved at
    a are feasible at every T, so f(T) <= E_a - T S_a, and likewise at b: the
    two lines meet at u >= max_T f, and u - bound is how far the bound can lie
    below the maximum. Refinement stops once that is <= 1e-9 (< 0 only from
    noise in S_M) or at an unconverged refinement, which moves nothing.
    Without a bracket (`bracketed` False) the best converged grid value is
    returned, nan if no grid row converged."""
    sweep = temperature_sweep(problem, t_grid, config)
    # only converged rows certify a bound: an unconverged value overestimates
    # the minimum and must not enter the maximum
    good = [r for r in sweep.rows if r.converged]
    best = max(good, key=lambda r: r.f_per_site, default=None)
    bound, t_at = (math.nan, math.nan) if best is None else (best.f_per_site, best.T)
    brackets = [[a, b] for a, b in zip(good, good[1:]) if a.s_m_per_site < 0.0 <= b.s_m_per_site]
    if not brackets:
        return BoundResult(bound=bound, t_at=t_at, bracketed=False, sweep=sweep, refined=[])

    bracket, refined, kept = brackets[-1], [], None     # kept: the end kept last step
    slopes = [r.s_m_per_site for r in bracket]          # the stored S_M
    while len(refined) < _MAX_REFINE:
        (a, b), (sa, sb) = bracket, slopes
        u = ((a.e_per_site * b.s_m_per_site - b.e_per_site * a.s_m_per_site)
             / (b.s_m_per_site - a.s_m_per_site))
        if u - bound <= _TANGENT_GAP:
            break
        t = a.T - sa * (b.T - a.T) / (sb - sa)
        # the nearest solve, searched in solve order (the grid from high T
        # down, then the refinements), so the first of two equally near wins
        near = min(sweep.rows[::-1] + refined, key=lambda r: abs(r.T - t))
        res = solve(problem, t, config, warm=near.meta["warm"])
        refined.append(res)
        if not res.converged:
            break
        if res.f_per_site > bound:
            bound, t_at = res.f_per_site, t
        side = int(res.s_m_per_site >= 0.0)
        bracket[side], slopes[side] = res, res.s_m_per_site
        if kept == 1 - side:
            slopes[kept] *= 0.5
        kept = 1 - side
    return BoundResult(bound=bound, t_at=t_at, bracketed=True, sweep=sweep, refined=refined)
