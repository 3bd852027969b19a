"""Charge-sector block layout shared by the primal and the BP solver.

The charge of a basis state is the sum of its local basis indices (the S^z
count for spins). A matrix that commutes with the charge is block diagonal
in its sectors, so it can be carried as its in-sector entries only: the
blocks of every sector, laid out in one flat vector. Blocks of equal size b
sit next to each other and are read as one (k, b, b) stack, so a matrix
function costs one batched call per block size. A problem whose matrices
break the charge keeps one sector per matrix, which is the plain dense
layout run by the same code.

The stack kernels take a flat vector, or an array of flat vectors with
leading batch axes (several copies of one layout); `_scatter` and index
gathers move entries between layouts (partial traces and embeddings).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from medbound.opalg import ENTROPY_CUTOFF


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


def _conserves_charge(mat: np.ndarray | None, dims) -> bool:
    """True when `mat` (None: no matrix), or every matrix of a stack of them,
    is exactly 0 off the charge sectors."""
    if mat is None:
        return True
    q = _charges(dims)
    return not np.any(np.asarray(mat)[..., q[:, None] != q[None, :]])


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


# A 1 x 1 block is its own eigenvalue, with eigenvector 1: the kernels below
# skip LAPACK for such stacks (which returns exactly that) and the product
# U diag(vals) U^dagger.

def _from_eig(stacks, vecs, vals, n: int) -> np.ndarray:
    """Flat blocks of the Hermitian part of U diag(vals) U^dagger."""
    lead = vals.shape[:-1]
    out = np.empty(lead + (n,), dtype=vecs[0].dtype if vecs else float)
    for st, v in zip(stacks, vecs):
        k, b, _ = st.shape
        if b == 1:
            out[..., st.flat] = vals[..., st.eig]
            continue
        w = (v * vals[..., st.eig].reshape(lead + (k, 1, b))) @ _dag(v)
        out[..., st.flat] = _herm(w).reshape(lead + (-1,))
    return out


def _eigh_stacks(stacks, flat: np.ndarray, n_eig: int):
    """One batched eigh per stack: all eigenvalues as one vector, and the
    eigenvectors stack by stack."""
    lead = flat.shape[:-1]
    vals = np.empty(lead + (n_eig,))
    vecs = []
    for st in stacks:
        blocks = flat[..., st.flat].reshape(lead + st.shape)
        if st.shape[1] == 1:
            w, v = blocks.real.reshape(lead + (-1,)), np.ones(blocks.shape, blocks.dtype)
        else:
            w, v = np.linalg.eigh(blocks)
        vals[..., st.eig] = w.reshape(lead + (-1,))
        vecs.append(v)
    return vals, vecs


def _eigvalsh_stacks(stacks, flat: np.ndarray, n_eig: int) -> np.ndarray:
    """`_eigh_stacks` without the eigenvectors."""
    lead = flat.shape[:-1]
    vals = np.empty(lead + (n_eig,))
    for st in stacks:
        if st.shape[1] == 1:
            vals[..., st.eig] = flat[..., st.flat].real
        else:
            w = np.linalg.eigvalsh(flat[..., st.flat].reshape(lead + st.shape))
            vals[..., st.eig] = w.reshape(lead + (-1,))
    return vals
