"""Spectral decomposition of Hermitian matrices without multiplicities.

A Hermitian matrix a is resolved into its unitary eigenbasis V, strictly
increasing distinct eigenvalues lambda_1 < ... < lambda_l, and the cluster
label of each column of V. The projectors E_j = V[:, labels == j] V[:, labels == j]*
onto the eigenspaces are derived from that frame, so that

    a = sum_j lambda_j E_j,   sum_j E_j = I,   E_j E_k = delta_jk E_j.

Functions of a are then V diag(f(lambda_labels)) V* = sum_j f(lambda_j) E_j.
"""

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _as_axis, _as_square, _check_tol, _hermitian_parts, _hermitian_stack, _read_only, as_int, as_matrix

__all__ = ["CLUSTER_TOL", "SpectralDecomposition", "decompose", "apply_function", "scaled_exp"]

CLUSTER_TOL = 1e-8  # decompose's default: a gap of at most tol * max(1, ||a||) joins two eigenvalues


@dataclass(frozen=True)
class SpectralDecomposition:
    """A's eigenbasis with the distinct eigenvalues (ascending) of its clusters.

    eigenvalues: (l,) float array, strictly increasing
    vectors:     (n, n) complex array, the unitary eigenbasis V
    labels:      (n,) int array, the cluster of each column of V; every
                 cluster 0..l-1 labels at least one column

    All three are stored read-only, as views rather than copies.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        lam = _as_axis(self.eigenvalues, "eigenvalues", 1)
        vecs = _as_square(self.vectors, "vectors", 2)
        labels = np.asarray(self.labels)
        if labels.shape != (len(vecs),) or labels.dtype.kind not in "iu":
            raise ValueError(f"labels: expected {len(vecs)} integers, one per column of vectors")
        if set(labels.tolist()) != set(range(lam.size)):
            raise ValueError(f"labels: must name every cluster 0..{lam.size - 1} and no other")
        _read_only(self, eigenvalues=lam, vectors=vecs, labels=labels)

    def __len__(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @cached_property
    def projectors(self) -> np.ndarray:
        """(l, n, n), read-only: (p + p*)/2 for p = V_j V_j*, V_j = V[:, labels == j]."""
        blocks = [self.vectors[:, self.labels == j] for j in range(len(self))]
        out = _hermitian_parts(np.stack([block @ block.conj().T for block in blocks]))
        out.flags.writeable = False
        return out


def decompose(a, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Resolve a Hermitian matrix into its eigenbasis and distinct eigenvalues.

    Parameters
    ----------
    a : array_like
        Hermitian within 1e-9*||a||; the symmetrized (a + a*)/2 is decomposed.
    cluster_tol : float
        Eigenvalues with consecutive gap <= cluster_tol*max(1, ||a||) are
        merged into one cluster; the cluster eigenvalue is the mean, summed in
        ascending order (np.mean's value for clusters of fewer than 8).
    """
    _check_tol(cluster_tol, "cluster_tol")
    return _decompose_stack(as_matrix(a, "a")[np.newaxis], cluster_tol)[0]


def _decompose_stack(a: np.ndarray, cluster_tol: float) -> list[SpectralDecomposition]:
    """decompose of every matrix of a (k, n, n) stack from linalg.as_matrix, in stacked calls.

    One eigh and two SVDs serve the whole stack, and one bincount over labels
    offset by n per matrix sums every cluster; each result is bit for bit its
    own decompose call's.
    """
    w, v = np.linalg.eigh(_hermitian_stack(a, name="a"))
    k, n = w.shape
    gap = cluster_tol * np.maximum(1.0, np.abs(w).max(axis=1))
    # a new cluster starts wherever the sorted spectrum jumps by more than gap
    labels = np.cumsum(np.diff(w, prepend=w[:, :1], axis=1) > gap[:, np.newaxis], axis=1)
    flat = (labels + n * np.arange(k)[:, np.newaxis]).ravel()
    sums = np.bincount(flat, weights=w.ravel(), minlength=k * n).reshape(k, n)
    sizes = np.bincount(flat, minlength=k * n).reshape(k, n)
    return [
        SpectralDecomposition(sums[i, :l] / sizes[i, :l], v[i], labels[i])
        for i, l in enumerate((labels[:, -1] + 1).tolist())
    ]


def apply_function(d: SpectralDecomposition, f) -> np.ndarray:
    """V diag(f(lambda_labels)) V* = sum_j f(lambda_j) E_j for a scalar function f of a real."""
    vals = np.array([complex(f(float(lam))) for lam in d.eigenvalues])
    return (d.vectors * vals[d.labels]) @ d.vectors.conj().T


def scaled_exp(d: SpectralDecomposition, t, scale: int) -> np.ndarray:
    """sum_j e^(t*lambda_j/scale) E_j, the exact exponential of (t/scale)*a."""
    t, scale = complex(t), as_int(scale, "scale")
    return apply_function(d, lambda lam: cmath.exp(t * lam / scale))
