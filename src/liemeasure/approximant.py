"""Product-formula approximants of e^(tA+B) and their representing measures.

For Hermitian a with distinct eigenvalues lambda_1 < ... < lambda_l and
projectors E_j, the step-N approximant

    L_N(t) = (e^(t*a/N) e^(b/N))^N

expands into a sum of e^(t * mean of N eigenvalues) times products

    E_(k1) e^(b/N) E_(k2) e^(b/N) ... E_(kN) e^(b/N)

over all index tuples (k1, ..., kN). Grouping the tuples by their composition
vector (how many times each eigenvalue occurs) yields a discrete matrix
measure whose bilateral Laplace transform is exactly L_N. Two builders are
provided: exhaustive enumeration over the l^N tuples (the oracle), and
evaluation of the step polynomial on a roots-of-unity torus in a's eigenbasis
followed by one inverse FFT (build_measure_dp, the production builder).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    LATTICE_LIMIT,
    as_matrix,
    batched_operator_norms,
    guarded_count,
    matrix_exp,
    require_hermitian,
    tuple_factor_products,
)
from .measure import DiscreteMatrixMeasure
from .spectral import SpectralDecomposition, decompose

__all__ = [
    "ApproximantConfig",
    "compositions",
    "composition_locations",
    "n_convex_hull",
    "lie_approximant",
    "commuting_case_measure",
    "build_measure_bruteforce",
    "build_measure_dp",
]


@dataclass(frozen=True)
class ApproximantConfig:
    """Step count and numeric knobs for the measure builders.

    merge_tol is relative to max(1, spectral diameter of a); candidate atom
    locations are fused into atoms no wider than that (sum of weights, mean
    location), so a long chain of close neighbours is split, not fused whole.
    """

    N: int
    cluster_tol: float = 1e-8
    merge_tol: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError("N must be a positive integer")
        if not (self.cluster_tol >= 0 and self.merge_tol >= 0):
            raise ValueError("tolerances must be non-negative")


def compositions(total: int, parts: int) -> np.ndarray:
    """All vectors of `parts` non-negative integers summing to `total`, lexicographic."""
    if parts < 1 or total < 0:
        raise ValueError("need parts >= 1 and total >= 0")
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    combos = np.array(
        list(itertools.combinations(range(total + parts - 1), parts - 1)),
        dtype=np.int64,
    ).reshape(-1, parts - 1)
    k = combos.shape[0]
    padded = np.hstack(
        [
            np.full((k, 1), -1, dtype=np.int64),
            combos,
            np.full((k, 1), total + parts - 1, dtype=np.int64),
        ]
    )
    return np.diff(padded, axis=1) - 1


def composition_locations(counts: np.ndarray, eigenvalues: np.ndarray, n_steps: int) -> np.ndarray:
    """Location (sum_j counts_j * lambda_j) / n_steps for each composition row."""
    return np.asarray(counts, dtype=float) @ np.asarray(eigenvalues, dtype=float) / float(n_steps)


def n_convex_hull(eigenvalues, n_steps: int) -> np.ndarray:
    """Sorted deduplicated means of n_steps eigenvalues drawn with repetition."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 1 or not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be a non-empty finite 1-D array")
    if np.unique(lam).size != lam.size:
        raise ValueError("eigenvalues must be distinct")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    counts = compositions(int(n_steps), lam.size)
    return np.unique(composition_locations(counts, lam, int(n_steps)))


def lie_approximant(a, b, t, n_steps: int) -> np.ndarray:
    """(e^(t*a/n_steps) e^(b/n_steps))^n_steps for Hermitian a and arbitrary b.

    t is a scalar or an array of points; the result has shape t.shape + (n, n).
    a is diagonalised once, a = V diag(mu) V*, so e^(t*a/N) = V diag(e^(t*mu/N)) V*
    at every point; e^(b/N) is formed once and one batched matrix power
    finishes every point.
    """
    ah = require_hermitian(a, 1e-9, "a")
    bm = as_matrix(b, "b")
    if ah.shape != bm.shape:
        raise ValueError("a and b must have the same dimension")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    t = np.asarray(t, dtype=np.complex128)
    mu, vecs = np.linalg.eigh(ah)
    phases = np.exp(np.multiply.outer(t / n_steps, mu))[..., np.newaxis, :]
    step = (vecs * phases) @ vecs.conj().T @ matrix_exp(bm / n_steps)
    return np.linalg.matrix_power(step, int(n_steps))


def commuting_case_measure(a, b, cluster_tol: float = 1e-8) -> DiscreteMatrixMeasure:
    """Atoms (lambda_j, E_j e^b E_j); represents e^(ta) e^b, and e^(ta+b) when ab = ba."""
    dec = decompose(a, cluster_tol)
    bm = as_matrix(b, "b")
    if bm.shape[0] != dec.source_dim:
        raise ValueError("a and b must have the same dimension")
    eb = matrix_exp(bm)
    weights = np.matmul(np.matmul(dec.projectors, eb), dec.projectors)
    return DiscreteMatrixMeasure(
        dec.eigenvalues.copy(), weights, N=None, source="commuting-case"
    )


def _prepare(a, b, cfg: ApproximantConfig):
    dec = decompose(a, cfg.cluster_tol)
    bm = as_matrix(b, "b")
    if bm.shape[0] != dec.source_dim:
        raise ValueError("a and b must have the same dimension")
    return dec, matrix_exp(bm / cfg.N)


def _merge_starts(locs: np.ndarray, tol: float) -> np.ndarray:
    """Start index of each atom when sorted locations are fused into atoms no wider than tol.

    Locations chained by gaps <= tol form a run. A run no wider than tol is
    one atom; a wider run is split wherever a location lies more than tol
    past the first location of its atom, so no atom spans more than tol.
    """
    starts = np.concatenate(([0], np.flatnonzero(np.diff(locs) > tol) + 1))
    lasts = np.append(starts[1:], locs.size) - 1
    wide = locs[lasts] - locs[starts] > tol
    if not wide.any():
        return starts
    splits = []
    for i, last in zip(starts[wide].tolist(), lasts[wide].tolist()):
        first = locs[i]
        for j in range(i + 1, last + 1):
            if locs[j] - first > tol:
                splits.append(j)
                first = locs[j]
    return np.sort(np.concatenate((starts, np.array(splits, dtype=starts.dtype))))


def _collapse(
    counts: np.ndarray,
    weights: np.ndarray,
    dec: SpectralDecomposition,
    cfg: ApproximantConfig,
    source: str,
    tuple_norm_sum: float | None = None,
) -> DiscreteMatrixMeasure:
    """Turn composition-keyed weights into a measure, fusing near-equal locations.

    counts rows must already be in lexicographic order, which makes the
    stable location sort (and therefore the merge) identical across builders.
    """
    locs = composition_locations(counts, dec.eigenvalues, cfg.N)
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    weights = weights[order]
    span = max(1.0, dec.lambda_max - dec.lambda_min)
    starts = _merge_starts(locs, cfg.merge_tol * span)
    merged_loc = np.add.reduceat(locs, starts) / np.diff(
        np.concatenate((starts, [locs.size]))
    )
    merged_w = np.add.reduceat(weights, starts, axis=0)
    return DiscreteMatrixMeasure(
        merged_loc,
        merged_w,
        N=int(cfg.N),
        source=source,
        tuple_norm_sum=tuple_norm_sum,
    )


def build_measure_bruteforce(a, b, cfg: ApproximantConfig) -> DiscreteMatrixMeasure:
    """Enumerate all l^N index tuples, multiply out, and group by composition.

    The oracle builder: transparent but exponential, so refused beyond
    linalg.ENUMERATION_LIMIT tuples; the accumulated sum of per-tuple product
    norms is kept on the result as tuple_norm_sum.
    """
    dec, step = _prepare(a, b, cfg)
    l = len(dec)
    idx, prods = tuple_factor_products(np.matmul(dec.projectors, step), cfg.N)  # E_j e^(b/N)
    norm_sum = float(batched_operator_norms(prods).sum())
    counts = np.stack([(idx == j).sum(axis=1) for j in range(l)], axis=1)
    unique_counts, inverse = np.unique(counts, axis=0, return_inverse=True)
    grouped = np.zeros((unique_counts.shape[0],) + prods.shape[1:], dtype=np.complex128)
    np.add.at(grouped, inverse.reshape(-1), prods)
    return _collapse(
        unique_counts, grouped, dec, cfg, "bruteforce", tuple_norm_sum=norm_sum
    )


def build_measure_dp(a, b, cfg: ApproximantConfig) -> DiscreteMatrixMeasure:
    """Evaluate the step polynomial on a roots-of-unity torus and interpolate.

    L_N(t) = P(z) for z_j = e^(t*lambda_j/N) and P(z) = (sum_j z_j E_j e^(b/N))^N,
    whose coefficient at z_1^(n_1) ... z_l^(n_l) is the weight of composition
    (n_1, ..., n_l). In a's eigenbasis V, sum_j z_j E_j = V diag(z_labels) V*;
    with z_l = 1 (n_l is N minus the rest), one batched matrix power evaluates
    P at the (N+1)^(l-1) points z_j = e^(-2 pi i m_j/(N+1)), m_j = 0..N, and
    one inverse FFT over that grid gives every coefficient. The error is
    absolute, about eps * e^||b||. Refused beyond linalg.LATTICE_LIMIT points.
    """
    dec, step = _prepare(a, b, cfg)
    l = len(dec)
    n = dec.source_dim
    big_n = cfg.N
    points = guarded_count("composition-grid points", big_n + 1, l - 1, LATTICE_LIMIT)
    shape = (big_n + 1,) * (l - 1)
    vecs = dec.vectors
    idx = np.indices(shape).reshape(l - 1, points)  # C order = lexicographic
    # exponent of z at each eigenvector: its cluster's grid index, 0 for cluster l
    expo = np.vstack([idx, np.zeros((1, points), dtype=idx.dtype)])[dec.labels].T
    roots = np.exp(-2j * np.pi * np.arange(big_n + 1) / (big_n + 1))
    values = np.linalg.matrix_power(
        roots[expo][:, :, np.newaxis] * (vecs.conj().T @ step @ vecs), big_n
    )
    coeffs = np.fft.ifftn(values.reshape(shape + (n, n)), axes=tuple(range(l - 1)))
    sums = idx.sum(axis=0)
    valid = sums <= big_n
    counts = np.hstack([idx.T[valid], (big_n - sums[valid])[:, np.newaxis]])
    weights = vecs @ coeffs.reshape(points, n, n)[valid] @ vecs.conj().T
    return _collapse(counts, weights, dec, cfg, "dp")
