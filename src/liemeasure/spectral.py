"""Spectral decomposition of Hermitian matrices without multiplicities.

A Hermitian matrix a is resolved into strictly increasing distinct eigenvalues
lambda_1 < ... < lambda_l and orthogonal projectors E_1, ..., E_l onto the
corresponding eigenspaces, so that

    a = sum_j lambda_j E_j,   sum_j E_j = I,   E_j E_k = delta_jk E_j.

Functions of a are then sums f(lambda_j) E_j.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, require_hermitian

__all__ = ["SpectralDecomposition", "decompose", "apply_function", "scaled_exp"]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with their spectral projectors.

    eigenvalues: (l,) float array, strictly increasing
    projectors:  (l, n, n) complex array, projectors[j] is Hermitian idempotent
    source_dim:  n
    vectors:     (n, n) unitary eigenbasis V from decompose, else None
    labels:      (n,) int array, the cluster of each column of V, so that
                 projectors[j] = V[:, labels == j] V[:, labels == j]*
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    source_dim: int
    vectors: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        pr = np.asarray(self.projectors, dtype=np.complex128)
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("eigenvalues must be a non-empty 1-D array")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        n = int(self.source_dim)
        if pr.shape != (lam.size, n, n):
            raise ValueError(
                f"projectors must have shape ({lam.size}, {n}, {n}), got {pr.shape}"
            )
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "projectors", pr)
        object.__setattr__(self, "source_dim", n)

    def __len__(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def decompose(a, cluster_tol: float = 1e-8) -> SpectralDecomposition:
    """Resolve a Hermitian matrix into distinct eigenvalues and projectors.

    Parameters
    ----------
    a : array_like
        Hermitian within 1e-9*||a||; the symmetrized (a + a*)/2 is decomposed.
    cluster_tol : float
        Eigenvalues with consecutive gap <= cluster_tol*max(1, ||a||) are
        merged into one cluster; the cluster eigenvalue is the mean and the
        projector is the sum over the cluster's eigenvectors.
    """
    if not (cluster_tol >= 0):
        raise ValueError("cluster_tol must be non-negative")
    h = require_hermitian(a, 1e-9, "a")
    n = h.shape[0]
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(w).max()))
    gap = cluster_tol * scale

    # split where the sorted spectrum jumps by more than the cluster width
    starts = [0]
    for i in range(1, n):
        if w[i] - w[i - 1] > gap:
            starts.append(i)
    starts.append(n)

    eigenvalues = []
    projectors = []
    for s, e in zip(starts[:-1], starts[1:]):
        eigenvalues.append(float(np.mean(w[s:e])))
        block = v[:, s:e]
        p = block @ block.conj().T
        projectors.append((p + p.conj().T) / 2.0)
    labels = np.repeat(np.arange(len(eigenvalues)), np.diff(starts))
    return SpectralDecomposition(
        np.array(eigenvalues), np.stack(projectors), n, vectors=v, labels=labels
    )


def apply_function(d: SpectralDecomposition, f) -> np.ndarray:
    """sum_j f(lambda_j) E_j for a scalar function f of a real variable."""
    vals = np.array([complex(f(float(lam))) for lam in d.eigenvalues])
    return np.einsum("j,jpq->pq", vals, d.projectors)


def scaled_exp(d: SpectralDecomposition, t, scale: int) -> np.ndarray:
    """sum_j e^(t*lambda_j/scale) E_j, the exact exponential of (t/scale)*a."""
    if not isinstance(scale, (int, np.integer)) or scale < 1:
        raise ValueError("scale must be a positive integer")
    t = complex(t)
    return apply_function(d, lambda lam: cmath.exp(t * lam / scale))
