"""Exact ground-truth engines at desk scale.

Full-spectrum Gibbs states and free energies, the closed-form transfer-matrix
result for one-dimensional classical Ising chains, and exact ground energies.
Everything is computed from explicit spectra in double precision so that
targets are deterministic; the dimension guard keeps runtimes in the
seconds-to-minutes range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from medbound.opalg import entropy_from_probs, sym

__all__ = [
    "ExactResult",
    "gibbs_state",
    "exact_free_energy",
    "ising_transfer_free_energy",
    "ground_energy",
    "DIM_GUARD",
]

DIM_GUARD = 2 ** 14


def _as_matrix(h) -> np.ndarray:
    mat = np.asarray(h)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    # the guard reads only the shape and runs before sym copies the matrix,
    # so an oversize operand is rejected without allocating
    if mat.shape[0] > DIM_GUARD:
        raise ValueError(f"dimension {mat.shape[0]} exceeds the oracle guard {DIM_GUARD}")
    return sym(mat)


@dataclass(frozen=True)
class ExactResult:
    """Exact thermodynamics of one Hamiltonian at one temperature."""

    T: float
    f_total: float
    f_per_site: float
    e_total: float
    s_total: float
    ground_energy: float
    n_sites: int


def _is_diagonal(mat: np.ndarray) -> bool:
    return np.count_nonzero(mat - np.diag(np.diagonal(mat))) == 0


def _spectrum(mat: np.ndarray):
    # classical (diagonal) Hamiltonians skip the dense eigensolver
    if _is_diagonal(mat):
        d = np.real(np.diagonal(mat))
        order = np.argsort(d, kind="stable")
        return d[order], np.eye(mat.shape[0])[:, order]
    return np.linalg.eigh(mat)


def gibbs_state(h, T: float) -> np.ndarray:
    """exp(-H/T)/Z through the spectrum of H."""
    mat = _as_matrix(h)
    if T <= 0:
        raise ValueError("temperature must be positive")
    vals, vecs = _spectrum(mat)
    w = np.exp(-(vals - vals[0]) / T)
    p = w / w.sum()
    return (vecs * p) @ vecs.conj().T


def exact_free_energy(h, T: float, n_sites: int | None = None) -> ExactResult:
    """F = -T ln Tr exp(-H/T); E and S come from the same spectrum."""
    mat = _as_matrix(h)
    if T <= 0:
        raise ValueError("temperature must be positive")
    if _is_diagonal(mat):
        vals = np.sort(np.real(np.diagonal(mat)))
    else:
        vals = np.linalg.eigvalsh(mat)
    log_z = float(logsumexp(-vals / T))
    f = -T * log_z
    p = np.exp(-vals / T - log_z)
    e = float(p @ vals)
    s = entropy_from_probs(p)
    if n_sites is None:
        n_sites = int(round(np.log2(mat.shape[0])))
    return ExactResult(
        T=T,
        f_total=f,
        f_per_site=f / n_sites,
        e_total=e,
        s_total=s,
        ground_energy=float(vals[0]),
        n_sites=n_sites,
    )


def ising_transfer_free_energy(J: float = 1.0, h: float = 0.0, T: float = 1.0) -> float:
    """Per-site free energy of the infinite classical Ising chain
    H = -J sum s_i s_{i+1} - h sum s_i, from the largest transfer eigenvalue."""
    if T <= 0:
        raise ValueError("temperature must be positive")
    beta = 1.0 / T
    if h == 0.0:
        return -T * np.log(2.0 * np.cosh(beta * J))
    lam = np.exp(beta * J) * np.cosh(beta * h) + np.sqrt(
        np.exp(2 * beta * J) * np.sinh(beta * h) ** 2 + np.exp(-2 * beta * J))
    return -T * float(np.log(lam))


def ground_energy(h) -> float:
    """Minimum eigenvalue."""
    mat = _as_matrix(h)
    if _is_diagonal(mat):
        return float(np.min(np.real(np.diagonal(mat))))
    return float(np.linalg.eigvalsh(mat)[0])
