"""Charge-sector block layout shared by the primal and the BP solver.

The charge of a basis state is the sum of its local basis indices (the S^z
count for spins) mod a modulus m: m = 0 is the plain sum (U(1)), m = 2 its
parity (Z2), and m = 1 puts every state in one sector, the plain dense
layout run by the same code. A matrix that commutes with the charge is
block diagonal in its sectors, so it can be carried as its in-sector
entries only: the blocks of every sector, laid out in one flat vector.
Blocks of equal size b sit next to each other and are read as one (k, b, b)
stack, so a matrix function costs one batched call per block size.

The global flip n -> d - 1 - n of every local index (X on every qubit:
S^z -> -S^z) reverses the basis order, i -> D - 1 - i, and sends charge q
to its mirror q_max - q (mod m), q_max the charge of the last basis state.
A matrix A invariant under it, A[D-1-i, D-1-j] = A[i, j], has the block of
a sector's mirror equal to the sector's own block, read in flipped order.
Under the flip a layout carries one block per mirror pair of sectors, the
one of higher charge (multiplicity 2), and every self-mirror sector whole
(multiplicity 1); one expansion index map (`_Flat.expansion`) reaches the
mirror entries, and every sum over a matrix weighs a carried entry or
eigenvalue by its multiplicity. Splitting a self-mirror sector into its
flip-even and flip-odd halves would take a rotation, not an index map, and
is not done: `_Flat.flip_average` averages such a block with its flip.

One rule (`_sector_rule`) picks the layout for both solvers, a charge with
a modulus: U(1), then Z2, then one sector, the first whose sectors hold
every cluster Hamiltonian and every message log a BP state brings in; the
flip is added when every one of those matrices is exactly invariant under
it. Heisenberg and the classical Ising model are, bit for bit; the TFIM
(its field is diagonal) is not. The rule reads the inputs alone: there is
no option and no environment setting.

`_Flat`, the one layout class, holds the blocks of one or more matrices in
one flat vector: the primal solver lays out all cluster states (and all
shield marginals) as one; BP lays out one cluster and one message and runs
several copies as rows. Its matrix functions (`eigh`, `eigvals`, `from_eig`,
`exp`) take a flat vector, or an array of flat vectors with leading batch
axes. One index map per partial trace (`_Flat.trace_map`) moves entries
between layouts: read forward as a bincount (`_scatter`) it is the partial
trace, read backward, as a bincount or as its gather, the embedding. A
factor map (`_Flat.factor_map`) gathers a state's eigen-factor U sqrt(p)
into factors F of a partial trace F F^dagger, logged by `_Flat.log_gram`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from medbound.opalg import ENTROPY_CUTOFF, embed_mat


class _Rule(NamedTuple):
    """A sector layout: the charge modulus (0: U(1), 2: Z2, 1: one sector)
    and whether the flip pairs mirror sectors."""

    modulus: int
    flip: bool = False


class _Blocks:
    """Basis indices of one matrix grouped by charge and stacked by sector
    size: `stacks` holds one (k, b) index array per sector size b of the
    carried sectors, `mults` the multiplicity of each of its blocks (2: the
    block also stands for its mirror), `charge` the charge of every basis
    state."""

    __slots__ = ("charge", "stacks", "mults")

    def __init__(self, dims, rule: _Rule):
        self.charge = q = _charges(dims, rule.modulus)
        top = sum(d - 1 for d in dims)     # the charge of the last basis state
        by_size: dict = {}
        for c in np.unique(q):
            mirror = c
            if rule.flip:
                mirror = (top - c) % rule.modulus if rule.modulus else top - c
            if mirror <= c:
                idx = np.flatnonzero(q == c)
                by_size.setdefault(idx.size, []).append((idx, 1 + int(mirror < c)))
        self.stacks = tuple(np.array([i for i, _ in by_size[b]]) for b in sorted(by_size))
        self.mults = tuple(np.array([m for _, m in by_size[b]]) for b in sorted(by_size))


def _charges(dims, m: int) -> np.ndarray:
    """Charge of every basis state: the sum of its local basis indices mod
    m (m = 0: the plain sum)."""
    q = np.indices(tuple(dims)).reshape(len(dims), -1).sum(axis=0)
    return q % m if m else q


def _sector_rule(pairs, base: _Rule = _Rule(0, True)) -> _Rule:
    """The sector rule of both solvers, a charge with a modulus: U(1)
    (m = 0), then Z2 (m = 2), then one sector (m = 1), the first m whose
    sectors hold every matrix (None: no matrix) of the (matrix, dims) pairs,
    i.e. that is exactly 0 off them; with the flip when every matrix is
    exactly invariant under it. `base` is the rule of further matrices read
    before: the search starts at its modulus, and its flip must hold too."""
    mats = [(np.asarray(mat), dims) for mat, dims in pairs if mat is not None]
    flip = base.flip and all(np.array_equal(mat, mat[::-1, ::-1]) for mat, _ in mats)
    for m in (0, 2)[(0, 2, 1).index(base.modulus):]:
        if not any(np.any(mat[(q := _charges(dims, m))[:, None] != q[None, :]])
                   for mat, dims in mats):
            return _Rule(m, flip)
    return _Rule(1, flip)


class _Stack(NamedTuple):
    """The blocks of one size b: `shape` is (k, b, b), `flat` and `eig` the
    slices of the block and eigenvalue vectors they fill, `owner` the matrix
    each block belongs to."""

    shape: tuple
    flat: slice
    eig: slice
    owner: np.ndarray


def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _scatter(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of the weights whose index is i."""
    if np.iscomplexobj(weights):
        return np.bincount(index, weights.real, n) + 1j * np.bincount(index, weights.imag, n)
    return np.bincount(index, weights, n)


def _neg_xlogx(p: np.ndarray) -> np.ndarray:
    """-p ln p, with 0 for p at or below the entropy cutoff."""
    q = np.where(p > ENTROPY_CUTOFF, p, 1.0)
    return -q * np.log(q)


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of every block of a (..., b, b) stack."""
    return 0.5 * (a + _dag(a))


class _Eig(NamedTuple):
    """Eigendata of the matrices of a `_Flat`: eigenvectors per stack, the
    weights p and the states rho (flat; None from `spectrum`). They also keep
    the eigenvalues gs of the log shifted by `top` to max 0 and the trace z
    of exp(gs), per matrix: the unit-trace log is log - (top + ln z) I."""

    vecs: list
    p: np.ndarray
    rho: np.ndarray | None
    gs: np.ndarray | None = None
    z: np.ndarray | None = None
    top: np.ndarray | None = None


class _Flat:
    """The carried sector blocks (`_Rule`) of several matrices on local
    dimensions `dims` (None: no matrix) in one flat vector: blocks of equal
    size next to each other, each matrix's blocks in its own order. Per
    flat entry `owner`, `rows`, `cols` and `mult` give its matrix, row,
    column and multiplicity, `eig_owner` and `eig_mult` the same per
    eigenvalue, and `sel` the flat entries of each matrix. Every method also
    takes an array of flat vectors with leading batch axes."""

    def __init__(self, dims, rule: _Rule):
        self.dims = list(dims)
        self.blocks = [None if d is None else _Blocks(d, rule) for d in self.dims]
        sizes = sorted({s.shape[1] for bl in self.blocks if bl is not None for s in bl.stacks})
        self.stacks = []
        owner, rows, cols, eig_owner, mult, eig_mult = ([np.zeros(0, int)] for _ in range(6))
        m_dst, m_src = [np.zeros(0, int)], [np.zeros(0, int)]
        pos = epos = 0
        for b in sizes:
            parts = [(m, s, mu) for m, bl in enumerate(self.blocks) if bl is not None
                     for s, mu in zip(bl.stacks, bl.mults) if s.shape[1] == b]
            idx = np.concatenate([s for _, s, _ in parts])
            own = np.concatenate([np.full(len(s), m) for m, s, _ in parts])
            mu = np.concatenate([mu for _, _, mu in parts])
            k = len(idx)
            self.stacks.append(_Stack((k, b, b), slice(pos, pos + k * b * b),
                                      slice(epos, epos + k * b), own))
            rows.append(np.broadcast_to(idx[:, :, None], (k, b, b)).ravel())
            cols.append(np.broadcast_to(idx[:, None, :], (k, b, b)).ravel())
            owner.append(np.repeat(own, b * b))
            eig_owner.append(np.repeat(own, b))
            mult.append(np.repeat(mu, b * b))
            eig_mult.append(np.repeat(mu, b))
            if rule.flip:
                # the flip reverses the ascending basis states of a
                # self-mirror block: its flat entries, read backwards
                start = pos + b * b * np.flatnonzero(mu == 1)[:, None]
                m_dst.append((start + np.arange(b * b)).ravel())
                m_src.append((start + np.arange(b * b)[::-1]).ravel())
            pos += k * b * b
            epos += k * b
        self.owner, self.rows, self.cols, self.eig_owner = map(
            np.concatenate, (owner, rows, cols, eig_owner))
        self.mult, self.eig_mult = (np.concatenate(v).astype(float) for v in (mult, eig_mult))
        self.m_dst, self.m_src = np.concatenate(m_dst), np.concatenate(m_src)
        self.diag = (self.rows == self.cols).astype(float)
        self.n, self.n_eig, self.n_mats = self.owner.size, self.eig_owner.size, len(self.dims)
        self.size = [0 if d is None else math.prod(d) for d in self.dims]
        self.sel = [np.flatnonzero(self.owner == m) for m in range(self.n_mats)]
        # eigenvalues grouped by matrix, for the per-matrix maximum
        self.eig_sort = np.argsort(self.eig_owner, kind="stable")
        self.eig_starts = np.searchsorted(self.eig_owner[self.eig_sort], np.arange(self.n_mats))

    def expansion(self, m: int):
        """Every in-sector entry of matrix m, mirror entries included: its
        rows, columns and the flat entries that carry them."""
        sel = self.sel[m]
        pair = sel[self.mult[sel] > 1]
        last = self.size[m] - 1
        return (np.concatenate([self.rows[sel], last - self.rows[pair]]),
                np.concatenate([self.cols[sel], last - self.cols[pair]]),
                np.concatenate([sel, pair]))

    def flip_average(self, flat: np.ndarray) -> np.ndarray:
        """Every entry of a self-mirror block averaged with its mirror entry,
        which the flip maps it to in the same block; the other entries as
        they are (the input itself when there is no such block). The dense
        matrices of the result are (A + flip(A)) / 2 for those of the input."""
        if not self.m_dst.size:
            return flat
        out = flat.copy()
        out[..., self.m_dst] = 0.5 * (flat[..., self.m_dst] + flat[..., self.m_src])
        return out

    def to_dense(self, flat: np.ndarray) -> list:
        """The dense matrices, one per matrix of the layout."""
        out = []
        for m, d in enumerate(self.size):
            rows, cols, src = self.expansion(m)
            mat = np.zeros(flat.shape[:-1] + (d, d), dtype=flat.dtype)
            mat[..., rows, cols] = flat[..., src]
            out.append(mat)
        return out

    def from_dense(self, mats, dtype=None) -> np.ndarray:
        """The flat blocks of dense matrices, one per matrix of the layout
        (read on the carried entries: a flip-invariant matrix has the same
        values on the mirror ones)."""
        mats = [np.asarray(a) for a in mats]
        flat = np.empty(mats[0].shape[:-2] + (self.n,),
                        dtype=dtype or np.result_type(float, *mats))
        for a, sel in zip(mats, self.sel):
            flat[..., sel] = a[..., self.rows[sel], self.cols[sel]]
        return flat

    # A 1 x 1 block is its own eigenvalue, with eigenvector 1: the kernels
    # below skip LAPACK for such stacks (which returns exactly that) and the
    # product U diag(vals) U^dagger.

    def eigh(self, flat: np.ndarray):
        """One batched eigh per stack: all eigenvalues as one vector, and the
        eigenvectors stack by stack."""
        lead = flat.shape[:-1]
        vals = np.empty(lead + (self.n_eig,))
        vecs = []
        for st in self.stacks:
            blocks = flat[..., st.flat].reshape(lead + st.shape)
            if st.shape[1] == 1:
                w, v = blocks.real, np.ones(blocks.shape, blocks.dtype)
            else:
                w, v = np.linalg.eigh(blocks)
            vals[..., st.eig] = w.reshape(lead + (st.shape[0] * st.shape[1],))
            vecs.append(v)
        return vals, vecs

    def eigvals(self, flat: np.ndarray) -> np.ndarray:
        """`eigh` without the eigenvectors."""
        lead = flat.shape[:-1]
        vals = np.empty(lead + (self.n_eig,))
        for st in self.stacks:
            if st.shape[1] == 1:
                vals[..., st.eig] = flat[..., st.flat].real
            else:
                w = np.linalg.eigvalsh(flat[..., st.flat].reshape(lead + st.shape))
                vals[..., st.eig] = w.reshape(lead + (st.shape[0] * st.shape[1],))
        return vals

    def from_eig(self, vecs, vals) -> np.ndarray:
        """Flat blocks of the Hermitian part of U diag(vals) U^dagger."""
        lead = vals.shape[:-1]
        out = np.empty(lead + (self.n,), dtype=vecs[0].dtype if vecs else float)
        for st, v in zip(self.stacks, vecs):
            k, b, _ = st.shape
            if b == 1:
                out[..., st.flat] = vals[..., st.eig]
                continue
            w = (v * vals[..., st.eig].reshape(lead + (k, 1, b))) @ _dag(v)
            out[..., st.flat] = _herm(w).reshape(lead + (k * b * b,))
        return out

    def exp(self, log: np.ndarray) -> _Eig:
        """exp(log) of every matrix, scaled to unit trace."""
        eig = self.spectrum(log)
        return eig._replace(rho=self.from_eig(eig.vecs, eig.p))

    def spectrum(self, log: np.ndarray) -> _Eig:
        """`exp` without the states: the eigenvectors and unit-trace weights."""
        vals, vecs = self.eigh(log)
        top = np.maximum.reduceat(vals.take(self.eig_sort, axis=-1), self.eig_starts, axis=-1)
        gs = vals - top.take(self.eig_owner, axis=-1)
        w = np.exp(gs)
        # per matrix (and batch row) the trace, as one bincount over owners;
        # batch row r numbers its matrices from r * n_mats
        lead, rows = w.shape[:-1], math.prod(w.shape[:-1])
        own = (np.arange(rows)[:, None] * self.n_mats + self.eig_owner).ravel()
        z = np.bincount(own, (w * self.eig_mult).ravel(), rows * self.n_mats)
        z = z.reshape(lead + (self.n_mats,))
        p = w / z.take(self.eig_owner, axis=-1)
        return _Eig(vecs, p, None, gs, z, top)

    def unit_log(self, log: np.ndarray, eig: _Eig) -> np.ndarray:
        """log - (top + ln z) I: the log of `exp(log)`, given its `spectrum` `eig`."""
        return log - (eig.top + np.log(eig.z)).take(self.owner, axis=-1) * self.diag

    def factor(self, eig: _Eig) -> np.ndarray:
        """The eigen-factor, U[a, j] sqrt(p_j) on block entry (a, j), flat,
        with a zero slot appended (index `n`)."""
        w, lead = np.sqrt(eig.p), eig.p.shape[:-1]
        parts = [(v * w[..., st.eig].reshape(v.shape[:-2] + (1, -1))).reshape(lead + (-1,))
                 for st, v in zip(self.stacks, eig.vecs)]
        return np.concatenate(parts + [np.zeros(lead + (1,))], axis=-1)

    def log_gram(self, factors) -> np.ndarray:
        """Flat blocks of log(F F^dagger), one factor F (..., k, b, C), C >= b,
        per stack: 2 log sigma on the left singular vectors (1 x 1 blocks:
        the row norm). An absolute error e in sigma is a relative 2 e / sigma
        in sigma^2, so small eigenvalues keep digits an eigh of F F^dagger
        loses (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).
        Only sigma = 0 is clamped, at the smallest normal float."""
        vecs, sigma = [], []
        for st, f in zip(self.stacks, factors):
            u, s = ((np.ones(f.shape[:-1] + (1,), f.dtype), np.linalg.norm(f, axis=-1))
                    if st.shape[1] == 1 else np.linalg.svd(f, full_matrices=False)[:2])
            vecs.append(u)
            sigma.append(s.reshape(s.shape[:-2] + (-1,)))
        sigma = np.maximum(np.concatenate(sigma, axis=-1), np.finfo(float).tiny)
        return self.from_eig(vecs, 2.0 * np.log(sigma))

    def factor_map(self, m: int, target: _Flat, axes) -> list:
        """Index map of the eigen-factor (`factor`) of matrix m onto its
        partial trace to `axes`, the one matrix of `target`: per stack of
        `target`, a (k, b, C) index array whose row r reads sqrt(p_j)
        U[(r, s), j] over the traced states s and the eigen-indices j of the
        block holding (r, s), padded with the zero slot. Under the flip a
        state x of a block that is not carried reads row D - 1 - x of its
        carried mirror, whose eigenvectors are its own in flipped order."""
        dims, sel, size = self.dims[m], self.sel[m], self.size[m]
        # x[r, s]: the basis state with kept part r and traced part s
        x = np.moveaxis(np.arange(size).reshape(dims), list(axes), range(len(axes))).reshape(
            target.size[0], -1)
        # per basis state, the flat entry of its row's first column and the
        # block size, read off the mirror state where it is not carried
        first, width = np.full(size, -1), np.zeros(size, int)
        row, at, count = np.unique(self.rows[sel], return_index=True, return_counts=True)
        first[row], width[row] = sel[at], count
        first, width = [np.where(first < 0, a[::-1], a) for a in (first, width)]
        out, j = [], np.arange(width.max())
        for st in target.stacks:
            k, b, _ = st.shape
            xs = x[target.rows[st.flat].reshape(k, b, b)[:, :, 0]]
            cols = (first[xs][..., None] + j).reshape(k, b, -1)
            keep = (j < width[xs][..., None]).reshape(k, b, -1)
            # the valid columns first, in the same order on every row of a
            # block, then the zero slot
            order = np.argsort(~keep, axis=-1, kind="stable")
            cols = np.where(np.take_along_axis(keep, order, -1),
                            np.take_along_axis(cols, order, -1), self.n)
            out.append(cols[..., :keep.sum(-1).max(initial=0)])
        return out

    def trace_map(self, m: int, labels: np.ndarray, axes):
        """Index map of a partial trace of matrix m onto `axes`. `labels`, a
        matrix on those axes, holds on each entry the 1-based flat entry of
        the target layout that carries it (0: none), as that layout's
        `to_dense` of 1..n gives. Returns flat entries `src` of m, targets
        `tgt` (0-based) and `count`, the number of in-sector entries of m
        carried by src that feed an entry carried by tgt; and `at`, per
        flat entry of m (in `sel[m]` order), the target entry (0-based)
        that embedding a matrix on `axes` puts at its own position, -1
        where there is none.

        The partial trace at target t is the sum of count * rho[src] over
        its rows, divided by the multiplicity of t: the average of the
        entry and its mirror. Read backwards with count / mult[src], the
        map is the embedding averaged over an entry and its mirror, the
        adjoint of the partial trace in the inner products that count
        multiplicity. Without mirror pairs every count is 1. `at` is the
        embedding as a gather, exact for a flip-invariant matrix, which has
        the same value on a target entry and its mirror: where a self-mirror
        target sector reaches an entry through both, `at` is the one at the
        entry's own position."""
        rows, cols, src = self.expansion(m)
        hit = embed_mat(labels, self.dims[m], axes)[rows, cols].astype(int)
        keep = hit > 0
        width = int(labels.max(initial=0)) + 1
        pairs, count = np.unique(src[keep] * width + hit[keep] - 1, return_counts=True)
        # the expansion lists the carried entries' own positions first
        return pairs // width, pairs % width, count, hit[:self.sel[m].size] - 1
