"""Seeded random instance generators used by the verification suites and tests."""

import numpy as np

from .linalg import operator_norm

__all__ = [
    "unit_disc_entries",
    "random_matrix",
    "random_hermitian",
    "random_unitary",
    "spaced_values",
    "hermitian_with_spectrum",
    "scaled_to_norm",
    "commuting_hermitian_pair",
    "noncommuting_hermitian_pair",
    "random_subordinate_to",
    "random_nonneg",
    "random_diagonal_partition",
]


def unit_disc_entries(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex entries uniform on the closed unit disc."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, shape))
    angle = rng.uniform(0.0, 2.0 * np.pi, shape)
    return radius * np.exp(1j * angle)


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * unit_disc_entries(rng, (n, n))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    m = random_matrix(rng, n, scale)
    return (m + m.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with the R phases absorbed."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def spaced_values(
    rng: np.random.Generator, count: int, min_gap: float = 0.0, span: float = 2.0
) -> np.ndarray:
    """Sorted values in roughly [-span, span] with consecutive gaps >= min_gap."""
    base = np.sort(rng.uniform(-span, span, count))
    vals = base + np.arange(count) * min_gap
    return vals - vals.mean()


def hermitian_with_spectrum(
    rng: np.random.Generator, eigenvalues, multiplicities=None
) -> np.ndarray:
    """U diag(eigenvalues with multiplicities) U* for a random unitary U."""
    lam = np.asarray(eigenvalues, dtype=float)
    mult = (
        np.ones(lam.size, dtype=int)
        if multiplicities is None
        else np.asarray(multiplicities, dtype=int)
    )
    diag = np.repeat(lam, mult)
    u = random_unitary(rng, diag.size)
    m = (u * diag) @ u.conj().T
    return (m + m.conj().T) / 2.0


def scaled_to_norm(m: np.ndarray, target: float) -> np.ndarray:
    nrm = operator_norm(m)
    if nrm == 0.0:
        return m
    return m * (target / nrm)


def commuting_hermitian_pair(rng: np.random.Generator, n: int, scale: float = 1.0):
    """Hermitian pair diagonal in one random orthonormal basis."""
    u = random_unitary(rng, n)
    alpha = rng.uniform(-scale, scale, n)
    beta = rng.uniform(-scale, scale, n)
    a = (u * alpha) @ u.conj().T
    b = (u * beta) @ u.conj().T
    return (a + a.conj().T) / 2.0, (b + b.conj().T) / 2.0


def noncommuting_hermitian_pair(
    rng: np.random.Generator,
    n: int,
    max_norm: float = 2.0,
    min_commutator: float = 0.3,
):
    """Hermitian pair with ||a||, ||b|| <= max_norm and ||ab - ba|| >= min_commutator."""
    while True:
        a = scaled_to_norm(random_hermitian(rng, n), rng.uniform(0.5, 1.0) * max_norm)
        b = scaled_to_norm(random_hermitian(rng, n), rng.uniform(0.5, 1.0) * max_norm)
        if operator_norm(a @ b - b @ a) >= min_commutator:
            return a, b


def random_subordinate_to(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    """Random m with |m_pq| <= s_pq entrywise (s real non-negative)."""
    mag = rng.uniform(0.0, 1.0, s.shape) * s
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, s.shape))
    return mag * phase


def random_nonneg(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return rng.uniform(0.0, scale, (n, n))


def random_diagonal_partition(rng: np.random.Generator, n: int, parts: int) -> np.ndarray:
    """(parts, n, n) stack of non-negative diagonal matrices summing to the identity."""
    w = rng.uniform(0.1, 1.0, (parts, n))
    w = w / w.sum(axis=0)
    out = np.zeros((parts, n, n))
    for j in range(parts):
        np.fill_diagonal(out[j], w[j])
    return out
