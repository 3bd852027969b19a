"""Charge-sector block layout shared by the primal and the BP solver.

The charge of a basis state is the sum of its local basis indices (the S^z
count for spins). A matrix that commutes with the charge is block diagonal
in its sectors, so it can be carried as its in-sector entries only: the
blocks of every sector, laid out in one flat vector. Blocks of equal size b
sit next to each other and are read as one (k, b, b) stack, so a matrix
function costs one batched call per block size. A problem whose matrices
break the charge keeps one sector per matrix, which is the plain dense
layout run by the same code. One rule (`_by_charge`) picks sectors for both
solvers: when every cluster Hamiltonian, and every matrix a caller passes in
(states, G, messages), is exactly 0 off them.

`_Flat`, the one layout class, holds the blocks of one or more matrices in
one flat vector: the primal solver lays out all cluster states (and all
shield marginals) as one; BP lays out one cluster and one message and runs
several copies as rows. Its matrix functions (`eigh`, `eigvals`, `from_eig`,
`exp`) take a flat vector, or an array of flat vectors with leading batch
axes; `_scatter` and index gathers move entries between layouts (partial
traces and embeddings).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from medbound.opalg import ENTROPY_CUTOFF, embed_mat


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


def _by_charge(pairs) -> bool:
    """The sector rule of both solvers: charge sectors when every matrix
    (None: no matrix) of the (matrix, dims) pairs is exactly 0 off them."""
    for mat, dims in pairs:
        q = _charges(dims)
        if mat is not None and np.any(np.asarray(mat)[q[:, None] != q[None, :]]):
            return False
    return True


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
    weights p and the states rho (flat). `_Flat.exp` also keeps the
    eigenvalues gs of the log shifted by `top` to max 0 and the trace z of
    exp(gs), per matrix: the unit-trace log is log - (top + ln z) I."""

    vecs: list
    p: np.ndarray
    rho: np.ndarray
    gs: np.ndarray | None = None
    z: np.ndarray | None = None
    top: np.ndarray | None = None


class _Flat:
    """The charge-sector blocks of several matrices on local dimensions
    `dims` (None: no matrix) in one flat vector: blocks of equal size next
    to each other, each matrix's blocks in its own order. Per flat entry
    `owner`, `rows` and `cols` give its matrix, row and column, `eig_owner`
    the matrix of each eigenvalue, and `sel` the flat entries of each
    matrix. Every method also takes an array of flat vectors with leading
    batch axes."""

    def __init__(self, dims, by_charge: bool):
        self.dims = list(dims)
        self.blocks = [None if d is None else _sector_blocks(d, by_charge)
                       for d in self.dims]
        sizes = sorted({s.shape[1] for bl in self.blocks if bl is not None for s in bl.stacks})
        self.stacks = []
        owner, rows, cols, eig_owner = ([np.zeros(0, int)] for _ in range(4))
        pos = epos = 0
        for b in sizes:
            parts = [(m, s) for m, bl in enumerate(self.blocks) if bl is not None
                     for s in bl.stacks if s.shape[1] == b]
            idx = np.concatenate([s for _, s in parts])
            own = np.concatenate([np.full(len(s), m) for m, s in parts])
            k = len(idx)
            self.stacks.append(_Stack((k, b, b), slice(pos, pos + k * b * b),
                                      slice(epos, epos + k * b), own))
            rows.append(np.broadcast_to(idx[:, :, None], (k, b, b)).ravel())
            cols.append(np.broadcast_to(idx[:, None, :], (k, b, b)).ravel())
            owner.append(np.repeat(own, b * b))
            eig_owner.append(np.repeat(own, b))
            pos += k * b * b
            epos += k * b
        self.owner, self.rows, self.cols, self.eig_owner = map(
            np.concatenate, (owner, rows, cols, eig_owner))
        self.n, self.n_eig, self.n_mats = self.owner.size, self.eig_owner.size, len(self.dims)
        self.sel = [np.flatnonzero(self.owner == m) for m in range(self.n_mats)]
        # eigenvalues grouped by matrix, for the per-matrix maximum
        self.eig_sort = np.argsort(self.eig_owner, kind="stable")
        self.eig_starts = np.searchsorted(self.eig_owner[self.eig_sort], np.arange(self.n_mats))

    def to_dense(self, flat: np.ndarray) -> list:
        """The dense matrices, one per matrix of the layout."""
        out = []
        for dims, sel in zip(self.dims, self.sel):
            d = 0 if dims is None else int(np.prod(dims))
            mat = np.zeros(flat.shape[:-1] + (d, d), dtype=flat.dtype)
            mat[..., self.rows[sel], self.cols[sel]] = flat[..., sel]
            out.append(mat)
        return out

    def from_dense(self, mats, dtype=None) -> np.ndarray:
        """The flat blocks of dense matrices, one per matrix of the layout."""
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
        vals, vecs = self.eigh(log)
        top = np.maximum.reduceat(vals.take(self.eig_sort, axis=-1), self.eig_starts, axis=-1)
        gs = vals - top.take(self.eig_owner, axis=-1)
        w = np.exp(gs)
        # per matrix (and batch row) the trace, as one bincount over owners;
        # batch row r numbers its matrices from r * n_mats
        lead, rows = w.shape[:-1], math.prod(w.shape[:-1])
        own = (np.arange(rows)[:, None] * self.n_mats + self.eig_owner).ravel()
        z = np.bincount(own, w.ravel(), rows * self.n_mats)
        z = z.reshape(lead + (self.n_mats,))
        p = w / z.take(self.eig_owner, axis=-1)
        return _Eig(vecs, p, self.from_eig(vecs, p), gs, z, top)

    def trace_map(self, m: int, labels: np.ndarray, axes):
        """Index map of a partial trace of matrix m onto `axes`: `labels`, a
        matrix on those axes, holds on each entry its 1-based target (0:
        none). Embedding it puts on every entry of m the target its partial
        trace feeds. Returns the flat entries that feed one and the 0-based
        targets; the embedding is the same map read backwards."""
        sel = self.sel[m]
        hit = embed_mat(labels, self.dims[m], axes)[self.rows[sel], self.cols[sel]]
        keep = hit > 0
        return sel[keep], hit[keep].astype(int) - 1
