"""Seeded random instance generators used by the verification suites and tests.

Each generator is a draw and a former. The draw makes exactly the
generator's rng calls, with their sizes and in their order, and keeps only
the raw numbers: Gaussian entries, uniform radii and angles, unsorted
values, weights. The former turns a stack of draws, with any leading axes,
into the instances through stacked numpy and LAPACK calls (one QR for every
unitary of a stack), and forms each instance of a stack bit for bit as it
forms that instance alone. A public generator is its draw followed by its
former, so there is one code path. `verify` draws every trial with draws
alone and then forms the trials of each shape in one call per former.

noncommuting_hermitian_pair has no former: its rejection loop needs a norm
between its rng calls.
"""

import numpy as np

from .linalg import _hermitian_parts, batched_operator_norms, operator_norm

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
    "draw_polar",
    "draw_matrix",
    "draw_unitary",
    "draw_spaced",
    "draw_commuting_pair",
    "draw_partition",
    "form_disc",
    "form_matrices",
    "form_hermitian",
    "form_unitaries",
    "form_spaced",
    "form_with_spectrum",
    "form_commuting_pairs",
    "form_subordinate",
    "form_partitions",
]


# ------------------------------------------------------------------ draws

def draw_polar(rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """Uniform numbers in [0, 1), then uniform angles in [0, 2 pi), both of the given shape.

    The rng calls of unit_disc_entries (squared radii, angles) and of
    random_subordinate_to (magnitude fractions, phases).
    """
    return rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 2.0 * np.pi, shape)


def draw_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> tuple:
    """(scale, squared radii, angles): the draw of random_matrix."""
    return (scale, *draw_polar(rng, (n, n)))


def draw_unitary(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real, then imaginary parts of an (n, n) complex Gaussian: the draw of random_unitary."""
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def draw_spaced(rng: np.random.Generator, count: int) -> np.ndarray:
    """count unsorted uniform values in [-2, 2): the draw of spaced_values."""
    return rng.uniform(-2.0, 2.0, count)


def draw_commuting_pair(rng: np.random.Generator, n: int, scale: float = 1.0) -> tuple:
    """(unitary draw parts, alpha, beta): the draw of commuting_hermitian_pair."""
    return (*draw_unitary(rng, n), rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n))


def draw_partition(rng: np.random.Generator, n: int, parts: int) -> np.ndarray:
    """(parts, n) weights in [0.1, 1): the draw of random_diagonal_partition."""
    return rng.uniform(0.1, 1.0, (parts, n))


# ---------------------------------------------------------------- formers

def form_disc(radius2, angle) -> np.ndarray:
    """Complex entries sqrt(radius2) e^(i angle), elementwise."""
    return np.sqrt(radius2) * np.exp(1j * angle)


def form_matrices(scale, radius2, angle) -> np.ndarray:
    """random_matrix of (..., n, n) polar draws, each times its scale of shape (...)."""
    return np.asarray(scale)[..., np.newaxis, np.newaxis] * form_disc(radius2, angle)


def form_hermitian(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2 of each matrix of a (..., n, n) stack."""
    return _hermitian_parts(m)


def form_unitaries(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """random_unitary of (..., n, n) draws: the QR of re + i im, the R phases absorbed into Q."""
    q, r = np.linalg.qr(re + 1j * im)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., np.newaxis, :]


def form_spaced(raw: np.ndarray, min_gap: float = 0.0) -> np.ndarray:
    """spaced_values of (..., count) draws: sorted, the i-th moved up by i min_gap, centred."""
    vals = np.sort(raw, axis=-1) + np.arange(raw.shape[-1]) * min_gap
    return vals - vals.mean(axis=-1, keepdims=True)


def form_with_spectrum(diag: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u diag(d) u*, made Hermitian, for (..., n) values d and (..., n, n) unitaries u."""
    return form_hermitian((u * diag[..., np.newaxis, :]) @ u.conj().swapaxes(-1, -2))


def form_commuting_pairs(re, im, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """commuting_hermitian_pair of stacked draws: u diag(alpha) u* and u diag(beta) u*."""
    u = form_unitaries(re, im)
    return form_with_spectrum(alpha, u), form_with_spectrum(beta, u)


def form_subordinate(s, fraction, phase) -> np.ndarray:
    """random_subordinate_to of polar draws shaped like s: fraction s e^(i phase), elementwise."""
    return fraction * s * np.exp(1j * phase)


def form_partitions(w: np.ndarray) -> np.ndarray:
    """random_diagonal_partition of (..., parts, n) weights: each column over its sum, each row a diagonal."""
    w = w / w.sum(axis=-2, keepdims=True)
    out = np.zeros(w.shape + w.shape[-1:])
    diagonal = np.arange(w.shape[-1])
    out[..., diagonal, diagonal] = w
    return out


# ------------------------------------------------------------- generators

def unit_disc_entries(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex entries uniform on the closed unit disc."""
    return form_disc(*draw_polar(rng, shape))


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return form_matrices(*draw_matrix(rng, n, scale))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return form_hermitian(random_matrix(rng, n, scale))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with the R phases absorbed."""
    return form_unitaries(*draw_unitary(rng, n))


def spaced_values(rng: np.random.Generator, count: int, min_gap: float = 0.0) -> np.ndarray:
    """Sorted values in roughly [-2, 2] with consecutive gaps >= min_gap."""
    return form_spaced(draw_spaced(rng, count), min_gap)


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
    return form_with_spectrum(diag, random_unitary(rng, diag.size))


def scaled_to_norm(m: np.ndarray, target) -> np.ndarray:
    """Each matrix of an (n, n) matrix or (..., n, n) stack times its target / its operator norm.

    target is a number or an array of the stack's leading shape. A zero
    matrix stays as it is. It makes no rng call, so it is its own former.
    """
    n = m.shape[-1]
    nrm = batched_operator_norms(m.reshape(-1, n, n)).reshape(m.shape[:-2])
    zero = (nrm == 0.0)[..., np.newaxis, np.newaxis]
    factor = np.divide(target, nrm, out=np.ones_like(nrm), where=nrm != 0.0)
    return np.where(zero, m, m * factor[..., np.newaxis, np.newaxis])


def commuting_hermitian_pair(rng: np.random.Generator, n: int, scale: float = 1.0):
    """Hermitian pair diagonal in one random orthonormal basis."""
    return form_commuting_pairs(*draw_commuting_pair(rng, n, scale))


def noncommuting_hermitian_pair(rng: np.random.Generator, n: int):
    """Hermitian pair with ||a||, ||b|| <= 2 and ||ab - ba|| >= 0.3."""
    while True:
        a = scaled_to_norm(random_hermitian(rng, n), rng.uniform(0.5, 1.0) * 2.0)
        b = scaled_to_norm(random_hermitian(rng, n), rng.uniform(0.5, 1.0) * 2.0)
        if operator_norm(a @ b - b @ a) >= 0.3:
            return a, b


def random_subordinate_to(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    """Random m with |m_pq| <= s_pq entrywise (s real non-negative)."""
    return form_subordinate(s, *draw_polar(rng, s.shape))


def random_nonneg(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return rng.uniform(0.0, scale, (n, n))


def random_diagonal_partition(rng: np.random.Generator, n: int, parts: int) -> np.ndarray:
    """(parts, n, n) stack of non-negative diagonal matrices summing to the identity."""
    return form_partitions(draw_partition(rng, n, parts))
