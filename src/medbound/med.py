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
the eigenbasis of G. Each inner problem is solved in coordinates fixed at
its start (`_Frame`) that rescale G, in the eigenbasis of the start point,
by the inverse square root of that kernel: the entropy's curvature in G
(the Kubo-Mori metric) shrinks with the weights of the states involved, and
the rescaling evens it out. When every cluster Hamiltonian is real the whole
iteration stays in real symmetric matrices, which roughly halves the
parameter count and speeds up the eigensolver.

When every cluster Hamiltonian conserves the charge q (the sum of the local
basis indices of a basis state, the S^z count for spins), G is restricted
to its charge sectors: only the in-sector entries are parameters. This is
exact. The objective is convex and invariant under u^{(x)n} with
u = exp(i theta n), n the local basis index, and the consistency
constraints map to themselves under it, so averaging a minimizer over theta
gives a minimizer that commutes with the charge. The dense iteration would
stay in that subspace too in exact arithmetic (it starts at G = 0 and its
gradients are invariant); in floating point it drifts out of it. A problem
in which some cluster Hamiltonian breaks the charge keeps one sector per
matrix, which is the plain dense iteration.

Each problem is compiled once, at its first solve, into a block layout
(`_Compiled`): G, the states, the shield marginals, the multipliers and the
gradient are carried as charge-sector blocks, stacked by block size across
all clusters, and the partial traces and their adjoint embeddings are index
maps. One objective evaluation therefore makes a fixed number of batched
calls per block size, however many clusters, constraints and sectors the
problem has. Dense matrices appear only at the interface: warm starts,
returned states and the public gradient helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from medbound.lattice import (
    FiniteGeometry,
    ModelSpec,
    TIGeometry,
    finite_geometry,
    ti_chain_geometry,
    ti_square_geometry,
)
# ptrace_mat and entropy_from_probs are no longer called here; they stay
# attributes of this module because perfbench/tracing.py wraps them by name
from medbound.opalg import (  # noqa: F401
    ENTROPY_CUTOFF,
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
    """`tol_gradient` bounds the largest entry of the inner gradient in the
    preconditioned coordinates of `_Frame`; `tol_constraint` bounds the
    largest entry of the constraint residuals. The reported bound can lie
    about |multipliers| x `tol_constraint` below the optimum."""

    tol_gradient: float = 1e-6
    tol_constraint: float = 1e-7
    max_outer: int = 50
    max_inner: int = 500
    penalty_init: float = 1.0
    penalty_growth: float = 2.0
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
    # layouts built by `_compiled`, keyed by whether they use charge sectors
    _layouts: dict = field(default_factory=dict, init=False, repr=False)

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

def ti_problem(geo: TIGeometry, patch: int = 0) -> MedProblem:
    var = VarSpec(key="ti", labels=geo.labels, dims=geo.dims, ham=geo.ham,
                  shield_axes=geo.shield_axes, patch=patch)
    cons = tuple(Constraint("ti", left, "ti", right) for left, right in geo.constraints)
    return MedProblem(variables=(var,), constraints=cons, n_patches=1,
                      site_norm=1.0, meta=dict(geo.meta))


def finite_problem(geo: FiniteGeometry, patch: int = 0) -> MedProblem:
    variables = []
    for k in geo.sites:
        labels = geo.cluster_labels(k)
        dims = (2,) * len(labels)
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
    finite = all(isinstance(g, FiniteGeometry) for g in geos)
    if finite:
        if len({g.sites for g in geos}) != 1:
            raise ValueError("finite patches must share the same lattice")
        subs = [finite_problem(g, patch=p) for p, g in enumerate(geos)]
    elif all(isinstance(g, TIGeometry) for g in geos):
        subs = [ti_problem(g, patch=p) for p, g in enumerate(geos)]
    else:
        raise ValueError("patches must be all translation-invariant or all finite")

    def rekey(p, k):
        # a TI patch has one cluster, a finite patch one per site
        return ("patch", p, k) if finite else ("patch", p)
    patches = [[replace(v, key=rekey(p, v.key)) for v in sub.variables]
               for p, sub in enumerate(subs)]
    constraints = [Constraint(rekey(p, c.left_key), c.left_axes,
                              rekey(p, c.right_key), c.right_axes)
                   for p, sub in enumerate(subs) for c in sub.constraints]
    # cross-patch agreement on shared sites, taken in the first cluster's
    # order (cluster labels are in site order)
    for p in range(len(patches)):
        for q in range(p + 1, len(patches)):
            for a in patches[p]:
                for b in patches[q]:
                    shared = [lab for lab in a.labels if lab in b.labels]
                    if shared:
                        constraints.append(Constraint(
                            a.key, tuple(a.labels.index(s) for s in shared),
                            b.key, tuple(b.labels.index(s) for s in shared)))
    meta = {"kind": "multi_patch_finite" if finite else "multi_patch",
            "patches": [dict(g.meta) for g in geos]}
    return MedProblem(variables=tuple(v for vs in patches for v in vs),
                      constraints=tuple(constraints), n_patches=len(geos),
                      site_norm=subs[0].site_norm, meta=meta)


# ---------------------------------------------------------------------------
# charge sectors
# ---------------------------------------------------------------------------

class _Blocks:
    """Basis indices of one matrix grouped by charge and stacked by sector
    size: `stacks` holds one (k, b) index array per sector size b."""

    __slots__ = ("charge", "stacks")

    def __init__(self, charge: np.ndarray):
        self.charge = charge
        by_size: dict = {}
        for c in np.unique(charge):
            idx = np.flatnonzero(charge == c)
            by_size.setdefault(idx.size, []).append(idx)
        self.stacks = tuple(np.array(by_size[b]) for b in sorted(by_size))


def _charges(dims) -> np.ndarray:
    """Charge of every basis state: the sum of its local basis indices."""
    return np.indices(tuple(dims)).reshape(len(dims), -1).sum(axis=0)


def _conserves_charge(var: VarSpec) -> bool:
    if var.ham is None:
        return True
    q = _charges(var.dims)
    return not np.any(var.ham[q[:, None] != q[None, :]])


def _sector_blocks(dims, by_charge: bool) -> _Blocks:
    return _Blocks(_charges(dims) if by_charge else np.zeros(int(np.prod(dims)), int))


class _Stack(NamedTuple):
    """The blocks of one size b: `shape` is (k, b, b), `flat` and `eig` the
    slices of the block and eigenvalue vectors they fill, `owner` the matrix
    each block belongs to."""

    shape: tuple
    flat: slice
    eig: slice
    owner: np.ndarray


def _stack(blocks):
    """Lay the sector blocks of several matrices (None: no matrix) out in one
    flat vector, blocks of equal size next to each other and each matrix's
    blocks in its own order. Returns the stacks and, per flat entry, its
    matrix, row and column, and per eigenvalue its matrix."""
    sizes = sorted({s.shape[1] for bl in blocks if bl is not None for s in bl.stacks})
    stacks, owner, rows, cols, eig_owner = [], [], [], [], []
    pos = epos = 0
    for b in sizes:
        parts = [(m, s) for m, bl in enumerate(blocks) if bl is not None
                 for s in bl.stacks if s.shape[1] == b]
        idx = np.concatenate([s for _, s in parts])
        own = np.concatenate([np.full(len(s), m) for m, s in parts])
        k = len(idx)
        stacks.append(_Stack((k, b, b), slice(pos, pos + k * b * b),
                             slice(epos, epos + k * b), own))
        rows.append(np.broadcast_to(idx[:, :, None], (k, b, b)).ravel())
        cols.append(np.broadcast_to(idx[:, None, :], (k, b, b)).ravel())
        owner.append(np.repeat(own, b * b))
        eig_owner.append(np.repeat(own, b))
        pos += k * b * b
        epos += k * b

    def cat(parts):
        return np.concatenate(parts) if parts else np.zeros(0, int)
    return stacks, cat(owner), cat(rows), cat(cols), cat(eig_owner)


# ---------------------------------------------------------------------------
# the compiled problem
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _scatter(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of the weights whose index is i."""
    if np.iscomplexobj(weights):
        return np.bincount(index, weights.real, n) + 1j * np.bincount(index, weights.imag, n)
    return np.bincount(index, weights, n)


def _re_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise Re(conj(a) b): summed over a matrix, Re Tr(a b) for Hermitian a."""
    return np.real(a.conj() * b)


def _neg_xlogx(p: np.ndarray) -> np.ndarray:
    """-p ln p, with 0 for p at or below the entropy cutoff."""
    q = np.where(p > ENTROPY_CUTOFF, p, 1.0)
    return -q * np.log(q)


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of every block of a (k, b, b) stack."""
    return 0.5 * (a + _dag(a))


def _from_eig(stacks, vecs, vals, n: int) -> np.ndarray:
    """Flat blocks of the Hermitian part of U diag(vals) U^dagger."""
    out = np.empty(n, dtype=vecs[0].dtype if vecs else float)
    for st, v in zip(stacks, vecs):
        k, b, _ = st.shape
        out[st.flat] = _herm((v * vals[st.eig].reshape(k, 1, b)) @ _dag(v)).ravel()
    return out


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


def _eigh_stacks(stacks, flat: np.ndarray, n_eig: int):
    """One batched eigh per stack: all eigenvalues as one vector, and the
    eigenvectors stack by stack."""
    vals = np.empty(n_eig)
    vecs = []
    for st in stacks:
        w, v = np.linalg.eigh(flat[st.flat].reshape(st.shape))
        vals[st.eig] = w.ravel()
        vecs.append(v)
    return vals, vecs


class _Eig(NamedTuple):
    """Eigendata of all cluster states: eigenvectors per stack, and over all
    blocks the weights p and the states rho (flat). States built from
    exponential coordinates, rho = exp(G)/Z, also keep the eigenvalues gs of
    G shifted to max 0 per cluster and Z per cluster."""

    vecs: list
    p: np.ndarray
    rho: np.ndarray
    gs: np.ndarray | None = None
    z: np.ndarray | None = None


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

    - Blocks: every charge-sector block of every cluster state is a run of a
      flat vector; blocks of one size b from all clusters sit together and
      are read as a (k, b, b) stack, so one evaluation makes a fixed number
      of batched calls per block size.
    - Marginals: the shield marginals (stacked by block size the same way)
      and the in-sector entries of every constraint residual form a second
      flat vector. All partial traces onto it are one index map: block entry
      `src` adds `sign` times itself to marginal entry `tgt`. The embedding,
      its adjoint, reads the same map backwards. Both are bincounts.
    - Owners: the cluster of each block entry and eigenvalue, so
      per-cluster shifts, Z, entropies and per-patch sums are bincounts.
    - Packing: the real parameter vector holds t first (several patches
      only), then per cluster the diagonal of G and its in-sector upper
      triangle sector by sector, imaginary parts after real ones.
      `unpack` gathers the blocks of G from it; `pack` is its adjoint on
      Hermitian blocks.
    Dense matrices appear only at the edges: `to_dense`/`from_dense` and
    the multiplier conversions."""

    def __init__(self, problem: MedProblem, by_charge: bool):
        variables = problem.variables
        self.keys = [v.key for v in variables]
        self.dims = [v.dim for v in variables]
        self.n_vars = len(variables)
        self.n_patches = problem.n_patches
        self.with_t = problem.n_patches > 1
        self.real = _is_real_problem(problem)
        self.patch = np.array([v.patch for v in variables], dtype=int)
        self.sectors = {v.key: (_sector_blocks(v.dims, by_charge),
                                _sector_blocks([v.dims[a] for a in v.shield_axes], by_charge)
                                if v.shield_axes else None)
                        for v in variables}

        self.stacks, self.owner, self.rows, self.cols, self.eig_owner = _stack(
            [self.sectors[k][0] for k in self.keys])
        self.n_flat = self.owner.size
        self.var_flat = [np.flatnonzero(self.owner == m) for m in range(self.n_vars)]
        self.patch_flat = self.patch[self.owner]
        # eigenvalues grouped by cluster, for the per-cluster maximum
        self.eig_sort = np.argsort(self.eig_owner, kind="stable")
        self.eig_starts = np.searchsorted(self.eig_owner[self.eig_sort], np.arange(self.n_vars))
        self.ham = np.zeros(self.n_flat, dtype=float if self.real else complex)
        for m, v in enumerate(variables):
            if v.ham is not None:
                sel = self.var_flat[m]
                self.ham[sel] = v.ham[self.rows[sel], self.cols[sel]]

        # shield marginals, then constraint residual entries
        self.sh_stacks, sh_owner, sh_rows, sh_cols, self.sh_eig_owner = _stack(
            [self.sectors[k][1] for k in self.keys])
        self.n_sh = sh_owner.size
        self.sh_patch = self.patch[sh_owner]
        src, tgt, sign = [], [], []

        def traced(m, axes, labels, s):
            # embedding the (1-based) entry labels of a marginal puts on
            # every block entry the marginal entry its partial trace feeds
            v = variables[m]
            sel = self.var_flat[m]
            hit = embed_mat(labels, v.dims, axes)[self.rows[sel], self.cols[sel]]
            keep = hit > 0
            src.append(sel[keep])
            tgt.append(hit[keep].astype(int) - 1)
            sign.append(np.full(int(keep.sum()), s))

        for m, v in enumerate(variables):
            if v.shield_axes:
                d_sh = int(np.prod([v.dims[a] for a in v.shield_axes]))
                mine = np.flatnonzero(sh_owner == m)
                labels = np.zeros((d_sh, d_sh))
                labels[sh_rows[mine], sh_cols[mine]] = mine + 1
                traced(m, v.shield_axes, labels, 1.0)
        index = {k: m for m, k in enumerate(self.keys)}
        self.con_entries = []       # per constraint: dim, rows, cols, slice of the residuals
        pos = 0
        for c in problem.constraints:
            dims = [problem.var(c.left_key).dims[a] for a in c.left_axes]
            d = int(np.prod(dims))
            q = _sector_blocks(dims, by_charge).charge
            ea, eb = np.nonzero(q[:, None] == q[None, :])
            labels = np.zeros((d, d))
            labels[ea, eb] = self.n_sh + pos + 1 + np.arange(ea.size)
            self.con_entries.append((d, ea, eb, slice(pos, pos + ea.size)))
            traced(index[c.left_key], c.left_axes, labels, 1.0)
            traced(index[c.right_key], c.right_axes, labels, -1.0)
            pos += ea.size
        self.n_con = pos
        self.src = np.concatenate(src) if src else np.zeros(0, int)
        self.tgt = np.concatenate(tgt) if tgt else np.zeros(0, int)
        self.sign = np.concatenate(sign) if sign else np.zeros(0)
        self._packing(variables)

    def _packing(self, variables):
        width = 1 if self.real else 2
        off = 1 if self.with_t else 0
        up, lo, wu, wl = [], [], [], []     # pack: x = wu F[up] + wl F[lo]
        self.u_src = np.zeros(width * self.n_flat, int)     # unpack: F = u_coef x[u_src]
        self.u_coef = np.zeros(width * self.n_flat)
        for m, v in enumerate(variables):
            d = v.dim
            q = self.sectors[v.key][0].charge
            i, j = np.triu_indices(d, 1)
            keep = q[i] == q[j]
            order = np.argsort(q[i][keep], kind="stable")
            i, j = i[keep][order], j[keep][order]
            n_off = i.size
            sel = self.var_flat[m]
            r, c = self.rows[sel], self.cols[sel]
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

    def pack(self, flat: np.ndarray, t: float | None = None) -> np.ndarray:
        f = flat if self.real else flat.view(float)
        x = np.empty(self.n)
        x[self.n - self.p_up.size:] = self.p_wu * f[self.p_up] + self.p_wl * f[self.p_lo]
        if self.with_t:
            x[0] = t
        return x

    # -- dense edges -----------------------------------------------------------

    def to_dense(self, flat: np.ndarray) -> dict:
        out = {}
        for key, d, sel in zip(self.keys, self.dims, self.var_flat):
            mat = np.zeros((d, d), dtype=flat.dtype)
            mat[self.rows[sel], self.cols[sel]] = flat[sel]
            out[key] = mat
        return out

    def from_dense(self, mats: dict, dtype) -> np.ndarray:
        flat = np.empty(self.n_flat, dtype=dtype)
        for key, sel in zip(self.keys, self.var_flat):
            flat[sel] = np.asarray(mats[key])[self.rows[sel], self.cols[sel]]
        return flat

    def mults_to_dense(self, y: np.ndarray) -> list:
        out = []
        for d, ea, eb, sl in self.con_entries:
            mat = np.zeros((d, d), dtype=y.dtype)
            mat[ea, eb] = y[sl]
            out.append(mat)
        return out

    def mults_from_dense(self, mats) -> np.ndarray:
        y = np.zeros(self.n_con, dtype=float if self.real else complex)
        for (_, ea, eb, sl), mat in zip(self.con_entries, mats):
            y[sl] = np.asarray(mat)[ea, eb]
        return y

    # -- evaluation ------------------------------------------------------------

    def eig_from_g(self, g: np.ndarray) -> _Eig:
        vals, vecs = _eigh_stacks(self.stacks, g, self.eig_owner.size)
        top = np.maximum.reduceat(vals[self.eig_sort], self.eig_starts)
        gs = vals - top[self.eig_owner]
        w = np.exp(gs)
        z = np.bincount(self.eig_owner, w, self.n_vars)
        p = w / z[self.eig_owner]
        return _Eig(vecs, p, _from_eig(self.stacks, vecs, p, self.n_flat), gs, z)

    def eig_from_rho(self, rho: np.ndarray) -> _Eig:
        vals, vecs = _eigh_stacks(self.stacks, rho, self.eig_owner.size)
        return _Eig(vecs, np.maximum(vals, 0.0), rho)

    def terms(self, eig: _Eig, T: float) -> _Terms:
        marg = _scatter(self.tgt, eig.rho[self.src] * self.sign, self.n_sh + self.n_con)
        sh_vals, sh_vecs = _eigh_stacks(self.sh_stacks, marg, self.sh_eig_owner.size)
        e = np.bincount(self.owner, _re_prod(self.ham, eig.rho), self.n_vars)
        s = (np.bincount(self.eig_owner, _neg_xlogx(eig.p), self.n_vars)
             - np.bincount(self.sh_eig_owner, _neg_xlogx(sh_vals), self.n_vars))
        return _Terms(e, s, e - T * s, sh_vals, sh_vecs, marg[self.n_sh:])

    def euclid(self, eig: _Eig, tm: _Terms, T: float, mu: np.ndarray,
               coef: np.ndarray) -> np.ndarray:
        """Derivative wrt rho: mu (H + T log rho - T embed log rho_shield),
        plus the residual map's adjoint applied to `coef`."""
        logs = _from_eig(self.sh_stacks, tm.sh_vecs,
                         np.log(np.maximum(tm.sh_vals, LOG_FLOOR)), self.n_sh)
        weights = np.concatenate([(-T * mu[self.sh_patch]) * logs, coef])
        own = (self.ham + T * _from_eig(self.stacks, eig.vecs,
                                        np.log(np.maximum(eig.p, LOG_FLOOR)), self.n_flat))
        return (mu[self.patch_flat] * own
                + _scatter(self.src, weights[self.tgt] * self.sign, self.n_flat))

    def pullback(self, eig: _Eig, M: np.ndarray) -> np.ndarray:
        """Hermitian gradient wrt G of rho -> Tr(M rho), block by block."""
        tr = np.bincount(self.owner, _re_prod(M, eig.rho), self.n_vars)
        grad = np.empty(self.n_flat, dtype=np.result_type(M, eig.rho))
        for st, v in zip(self.stacks, eig.vecs):
            k, b, _ = st.shape
            mt = _dag(v) @ M[st.flat].reshape(st.shape) @ v
            kern = _exp_dd_kernel(eig.gs[st.eig].reshape(k, b)) / eig.z[st.owner][:, None, None]
            rho = eig.rho[st.flat].reshape(st.shape)
            w = v @ (kern * mt) @ _dag(v) - tr[st.owner][:, None, None] * rho
            grad[st.flat] = _herm(w).ravel()
        return grad

    def al_eval(self, x: np.ndarray, T: float, y: np.ndarray, ineq: np.ndarray | None,
                pen: float, want_grad: bool, frame: _Frame | None = None) -> dict:
        """Augmented-Lagrangian value (and packed gradient) at x, read in the
        packed coordinates of G or, with `frame`, in that frame's."""
        eig = self.eig_from_g(self.unpack(x) if frame is None else frame.g(x))
        tm = self.terms(eig, T)
        R = tm.R
        patch_f = np.bincount(self.patch, tm.value, self.n_patches)
        al_con = trace_product(y, R) + 0.5 * pen * trace_product(R, R)
        if not self.with_t:
            al = float(patch_f[0]) + al_con
            mu = np.ones(1)
            grad_t = None
        else:
            # epigraph: minimize t subject to F_k <= t
            t = float(x[0])
            mu = np.maximum(0.0, ineq + pen * (patch_f - t))
            al = t + float(np.sum(mu ** 2 - ineq ** 2) / (2.0 * pen)) + al_con
            grad_t = 1.0 - float(mu.sum())
        out = {
            "al": al,
            "patch_f": patch_f,
            "eq_R": R,
            "res_inf": float(np.max(np.abs(R))) if R.size else 0.0,
            "mu": mu,
            "eig": eig,
            "terms": tm,
        }
        if want_grad:
            grad = self.pullback(eig, self.euclid(eig, tm, T, mu, y + pen * R))
            out["grad"] = self.pack(grad if frame is None else frame.grad(grad), grad_t)
        return out


# largest stretch the frame gives one direction: metric weights below 1e-6 of
# the top one count as 1e-6
_FRAME_CAP = 1e3


class _Frame:
    """Preconditioned coordinates for one inner solve, fixed at its start G0.

    Block by block G = G0 + U0 (S o X) U0^dagger, with X unpacked from the
    inner variables (t, if any, is not scaled), U0 the eigenvectors of G0 and
    S_ab = min(k_ab^(-1/2), _FRAME_CAP), where k_ab is the divided difference
    of exp at the shifted eigenvalues a, b of G0 (1 on the top pair). Near a
    minimizer the Hessian of the objective in G is close to T times the
    Kubo-Mori metric, which is k_ab / Z on the (a, b) entries in the
    eigenbasis of G (less a rank-one term): directions along small
    eigenvalues of rho are nearly flat in G, and the frame stretches them to
    the curvature of the rest. The change is linear, so the inner problem
    stays smooth and convex; the gradient is S o (U0^dagger grad_G U0)."""

    def __init__(self, comp: _Compiled, x0: np.ndarray):
        self.comp = comp
        self.g0 = comp.unpack(x0)
        eig = comp.eig_from_g(self.g0)
        self.vecs = eig.vecs
        self.scales = []
        for st in comp.stacks:
            k, b, _ = st.shape
            kern = _exp_dd_kernel(eig.gs[st.eig].reshape(k, b))
            self.scales.append(1.0 / np.sqrt(np.maximum(kern, _FRAME_CAP ** -2)))

    def g(self, x: np.ndarray) -> np.ndarray:
        comp = self.comp
        step = comp.unpack(x)
        g = self.g0.copy()
        for st, v, S in zip(comp.stacks, self.vecs, self.scales):
            g[st.flat] += (v @ (S * step[st.flat].reshape(st.shape)) @ _dag(v)).ravel()
        return g

    def grad(self, grad: np.ndarray) -> np.ndarray:
        out = np.empty_like(grad)
        for st, v, S in zip(self.comp.stacks, self.vecs, self.scales):
            out[st.flat] = (S * (_dag(v) @ grad[st.flat].reshape(st.shape) @ v)).ravel()
        return out


def _is_real_problem(problem: MedProblem) -> bool:
    return all(v.ham is None or not np.iscomplexobj(v.ham) for v in problem.variables)


def _compiled(problem: MedProblem, one_sector: bool = False) -> _Compiled:
    """The problem's layout, built on first use and cached on the problem.

    Charge sectors when every cluster Hamiltonian conserves the charge,
    otherwise (or with `one_sector`, for states not built by the solver) one
    sector per matrix."""
    by_charge = not one_sector and all(_conserves_charge(v) for v in problem.variables)
    comp = problem._layouts.get(by_charge)
    if comp is None:
        comp = problem._layouts[by_charge] = _Compiled(problem, by_charge)
    return comp


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def solve(problem: MedProblem, T: float, config: SolverConfig | None = None,
          warm: dict | None = None) -> MedResult:
    """Minimize the shield-local free energy at one temperature.

    `warm` is the ``meta['warm']`` entry of a previous result for the same
    problem; it seeds both the cluster states and the constraint multipliers.
    """
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    config = config or SolverConfig()
    comp = _compiled(problem)
    with_t = comp.with_t
    dtype = float if comp.real else complex
    if warm is not None:
        x = comp.pack(comp.from_dense(warm["g"], dtype), 0.0)
        eq_mults = comp.mults_from_dense(warm["eq_mults"])
        ineq_mults = (np.array(warm["ineq_mults"]) if warm.get("ineq_mults") is not None
                      else (np.ones(problem.n_patches) / problem.n_patches if with_t else None))
        t0 = warm.get("t")
    else:
        x = np.zeros(comp.n)
        eq_mults = np.zeros(comp.n_con, dtype=dtype)
        ineq_mults = np.ones(problem.n_patches) / problem.n_patches if with_t else None
        t0 = None

    if with_t:
        if t0 is None:
            probe = comp.al_eval(x, T, eq_mults, np.zeros(problem.n_patches), 1.0,
                                 want_grad=False)
            t0 = float(np.max(probe["patch_f"]))
        x[0] = t0

    pen = config.penalty_init
    inner_trace = [] if config.track_inner else None
    total_inner = 0
    converged = False

    def make_fun(eq_m, in_m, p, frame):
        def fun(xv):
            out = comp.al_eval(xv, T, eq_m, in_m, p, want_grad=True, frame=frame)
            return out["al"], out["grad"]
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
        frame = _Frame(comp, x)
        fun = make_fun(eq_mults, ineq_mults, pen, frame)
        x_in = np.zeros(comp.n)
        if with_t:
            x_in[0] = x[0]
        callback = None
        if config.track_inner:
            trace = []

            def callback(xk, _trace=trace, _fun=fun):
                _trace.append(_fun(xk)[0])
        # the first trial step has unit length in the frame, which can
        # overshoot by orders of magnitude; maxls leaves room to come back
        options = {"maxiter": config.max_inner, "gtol": gtol, "ftol": 1e-16, "maxcor": 25,
                   "maxls": 50}
        res = _scipy_minimize(fun, x_in, jac=True, method="L-BFGS-B",
                              options=options, callback=callback)
        x = comp.pack(frame.g(res.x), res.x[0] if with_t else None)
        total_inner += int(res.nit)
        inner_ok = float(np.max(np.abs(res.jac))) <= 5.0 * gtol
        if config.track_inner:
            inner_trace.append(trace)
        # an inner solve that takes no step and misses its gradient target
        # would be repeated unchanged by every later outer iteration
        if res.nit == 0 and not inner_ok:
            break

        out = comp.al_eval(x, T, eq_mults, ineq_mults, pen, want_grad=False)
        res_inf = out["res_inf"]
        if with_t:
            res_inf = max(res_inf, float(np.max(np.maximum(0.0, out["patch_f"] - x[0]))))
        if not have_cons:
            converged = inner_ok
            break
        if res_inf <= max(eta, config.tol_constraint):
            if (res_inf <= config.tol_constraint and inner_ok
                    and gtol <= config.tol_gradient):
                converged = True
                break
            eq_mults = eq_mults + pen * out["eq_R"]
            if with_t:
                ineq_mults = out["mu"]
            omega = max(0.2 * omega, config.tol_gradient)
            eta = max(0.2 * eta, config.tol_constraint)
        else:
            pen = min(pen * config.penalty_growth, 1e9)

    out = comp.al_eval(x, T, eq_mults, ineq_mults, pen, want_grad=False)
    t_val = float(x[0]) if with_t else None
    patch_f = out["patch_f"]
    binding = int(np.argmax(patch_f))
    patch_e = np.bincount(comp.patch, out["terms"].e, problem.n_patches)
    patch_s = np.bincount(comp.patch, out["terms"].s, problem.n_patches)
    norm = problem.site_norm
    warm_out = {
        "g": comp.to_dense(comp.unpack(x)),
        "eq_mults": comp.mults_to_dense(eq_mults),
        "ineq_mults": None if ineq_mults is None else np.array(ineq_mults),
        "t": t_val,
    }
    meta = {
        "warm": warm_out,
        "patch_f": patch_f / norm,
        "penalty": pen,
        "verified": bool(converged),
    }
    if inner_trace is not None:
        meta["inner_trace"] = inner_trace
    return MedResult(
        f_per_site=float(patch_f[binding]) / norm,
        e_per_site=float(patch_e[binding]) / norm,
        s_m_per_site=float(patch_s[binding]) / norm,
        variables=ClusterVariables(states=comp.to_dense(out["eig"].rho),
                                   constraints=problem.constraints),
        residual=float(out["res_inf"]),
        iterations=total_inner,
        converged=converged,
        T=T,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# public evaluation helpers
# ---------------------------------------------------------------------------

def _dense_inputs(problem: MedProblem, mats: dict):
    """The one-sector layout and the given matrices as its flat blocks."""
    comp = _compiled(problem, one_sector=True)
    mats = {v.key: np.asarray(mats[v.key]) for v in problem.variables}
    dtype = np.result_type(float, *mats.values())
    return comp, comp.from_dense(mats, dtype)


def _rho_inputs(variables: ClusterVariables, problem: MedProblem):
    mats = {v.key: sym(np.asarray(variables.states[v.key])) for v in problem.variables}
    comp, rho = _dense_inputs(problem, mats)
    return comp, comp.eig_from_rho(rho)


def markov_free_energy(variables: ClusterVariables, problem: MedProblem, T: float) -> float:
    """Cluster energy minus T times the shield-local entropy, per site in
    translation-invariant mode and total otherwise. With several patches the
    binding (largest) patch value is returned."""
    comp, eig = _rho_inputs(variables, problem)
    value = comp.terms(eig, T).value
    return float(np.max(np.bincount(comp.patch, value, problem.n_patches)))


def free_energy_gradient(variables: ClusterVariables, problem: MedProblem, T: float) -> dict:
    """Euclidean gradient with respect to each cluster state:
    H + T (ln rho - embed(ln rho_shield))."""
    comp, eig = _rho_inputs(variables, problem)
    mu = np.ones(problem.n_patches)
    return comp.to_dense(comp.euclid(eig, comp.terms(eig, T), T, mu, np.zeros(comp.n_con)))


def exponential_value_and_grad(gmats: dict, problem: MedProblem, T: float):
    """Objective and gradient in the exponential coordinates rho = exp(G)/Z.

    This is the solver's working derivative (single-patch problems, no
    constraint terms); central finite differences on G should match it.
    """
    if problem.n_patches != 1:
        raise ValueError("exponential gradient helper is single-patch only")
    comp, g = _dense_inputs(problem, gmats)
    eig = comp.eig_from_g(g)
    tm = comp.terms(eig, T)
    M = comp.euclid(eig, tm, T, np.ones(1), np.zeros(comp.n_con))
    return float(tm.value.sum()), comp.to_dense(comp.pullback(eig, M))


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
    if any(t <= 0 for t in t_grid) or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("temperature grid must be positive and strictly ascending")
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
