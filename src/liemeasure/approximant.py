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
evaluation of the step polynomial on a roots-of-unity torus in a's eigenbasis,
slab by slab into one grid array, followed by one in-place inverse FFT
(build_measure_dp, the production builder). Each builder predicts its peak
array bytes from N, l and n and refuses, before allocating, a build that
would exceed linalg.BYTE_BUDGET.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_matrix_pair,
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


def _compositions_peak_bytes(total: int, parts: int) -> int:
    """Predicted peak bytes of compositions(total, parts)."""
    # the rows, their parent rows while the last part is split, and three index vectors
    return 8 * math.comb(total + parts - 1, parts - 1) * (parts + 4)


def compositions(total: int, parts: int) -> np.ndarray:
    """All vectors of `parts` non-negative integers summing to `total`, lexicographic.

    Built part by part: each row splits its remainder, held in the last
    column, into every value of the next part. Refused, before allocating,
    when the predicted peak bytes exceed linalg.BYTE_BUDGET; the message
    names the composition grid {0..total}^(parts-1) the rows lie on.
    """
    if parts < 1 or total < 0:
        raise ValueError("need parts >= 1 and total >= 0")
    guarded_count("composition-grid points", total + 1, parts - 1,
                  peak_bytes=lambda _: _compositions_peak_bytes(total, parts))
    rows = np.zeros((1, parts), dtype=np.int64)
    rows[0, -1] = total
    for j in range(parts - 1):
        spread = rows[:, -1] + 1  # part j takes every value 0..remainder
        parent = np.repeat(np.arange(len(rows)), spread)
        value = np.arange(parent.size) - np.repeat(np.cumsum(spread) - spread, spread)
        rows = rows[parent]
        rows[:, j] = value
        rows[:, -1] -= value
    return rows


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
    am, bm = as_matrix_pair(a, b)
    ah = require_hermitian(am, 1e-9, "a")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    t = np.asarray(t, dtype=np.complex128)
    mu, vecs = np.linalg.eigh(ah)
    phases = np.exp(np.multiply.outer(t / n_steps, mu))[..., np.newaxis, :]
    step = (vecs * phases) @ vecs.conj().T @ matrix_exp(bm / n_steps)
    return np.linalg.matrix_power(step, int(n_steps))


def commuting_case_measure(a, b, cluster_tol: float = 1e-8) -> DiscreteMatrixMeasure:
    """Atoms (lambda_j, E_j e^b E_j); represents e^(ta) e^b, and e^(ta+b) when ab = ba."""
    am, bm = as_matrix_pair(a, b)
    dec = decompose(am, cluster_tol)
    eb = matrix_exp(bm)
    weights = np.matmul(np.matmul(dec.projectors, eb), dec.projectors)
    return DiscreteMatrixMeasure(
        dec.eigenvalues.copy(), weights, N=None, source="commuting-case"
    )


def _prepare(a, b, cfg: ApproximantConfig):
    am, bm = as_matrix_pair(a, b)
    return decompose(am, cfg.cluster_tol), matrix_exp(bm / cfg.N)


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


def _sorted_locations(counts: np.ndarray, dec: SpectralDecomposition, n_steps: int):
    """Locations of lexicographic composition rows, stably sorted, and the sorting order.

    Lexicographic rows make the stable sort (and therefore the merge)
    identical across builders.
    """
    locs = composition_locations(counts, dec.eigenvalues, n_steps)
    order = np.argsort(locs, kind="stable")
    return locs[order], order


def _collapse(
    locs: np.ndarray,
    weights: np.ndarray,
    dec: SpectralDecomposition,
    cfg: ApproximantConfig,
    source: str,
    tuple_norm_sum: float | None = None,
) -> DiscreteMatrixMeasure:
    """Turn sorted candidate atoms into a measure, fusing near-equal locations.

    When nothing fuses, the measure keeps locs and weights themselves, uncopied.
    """
    span = max(1.0, dec.lambda_max - dec.lambda_min)
    starts = _merge_starts(locs, cfg.merge_tol * span)
    if starts.size < locs.size:
        locs = np.add.reduceat(locs, starts) / np.diff(np.append(starts, locs.size))
        weights = np.add.reduceat(weights, starts, axis=0)
    return DiscreteMatrixMeasure(
        locs, weights, N=int(cfg.N), source=source, tuple_norm_sum=tuple_norm_sum
    )


def build_measure_bruteforce(a, b, cfg: ApproximantConfig) -> DiscreteMatrixMeasure:
    """Enumerate all l^N index tuples, multiply out, and group by composition.

    The oracle builder: transparent but exponential, so refused when
    linalg.tuple_factor_products predicts more than linalg.BYTE_BUDGET bytes;
    the accumulated sum of per-tuple product norms is kept on the result as
    tuple_norm_sum.
    """
    dec, step = _prepare(a, b, cfg)
    l = len(dec)
    idx, prods = tuple_factor_products(np.matmul(dec.projectors, step), cfg.N)  # E_j e^(b/N)
    norm_sum = float(batched_operator_norms(prods).sum())
    counts = np.stack([(idx == j).sum(axis=1) for j in range(l)], axis=1)
    unique_counts, inverse = np.unique(counts, axis=0, return_inverse=True)
    grouped = np.zeros((unique_counts.shape[0],) + prods.shape[1:], dtype=np.complex128)
    np.add.at(grouped, inverse.reshape(-1), prods)
    locs, order = _sorted_locations(unique_counts, dec, cfg.N)
    return _collapse(locs, grouped[order], dec, cfg, "bruteforce", tuple_norm_sum=norm_sum)


_SLAB_BYTES = 1 << 18  # the torus builder works on about this many bytes of matrices at a time


def _slab_len(n: int) -> int:
    return max(1, _SLAB_BYTES // (16 * n * n))


def _torus_peak_bytes(points: int, n_steps: int, l: int, n: int) -> int:
    """Predicted peak bytes of build_measure_dp on its (n_steps+1)**(l-1)-point grid."""
    atoms = math.comb(n_steps + l - 1, l - 1)
    # the grid, the output, the slabs alive inside one matrix_power, and each
    # output atom's location and grid cell
    return 16 * n * n * (points + atoms + 4 * min(points, _slab_len(n))) + 16 * atoms


def build_measure_dp(a, b, cfg: ApproximantConfig) -> DiscreteMatrixMeasure:
    """Evaluate the step polynomial on a roots-of-unity torus and interpolate.

    L_N(t) = P(z) for z_j = e^(t*lambda_j/N) and P(z) = (sum_j z_j E_j e^(b/N))^N,
    whose coefficient at z_1^(n_1) ... z_l^(n_l) is the weight of composition
    (n_1, ..., n_l). In a's eigenbasis V, sum_j z_j E_j = V diag(z_labels) V*;
    with z_l = 1 (n_l is N minus the rest), matrix powers evaluate P at the
    (N+1)^(l-1) points z_j = e^(-2 pi i m_j/(N+1)), m_j = 0..N, one slab of
    points at a time, into one grid array; an in-place inverse FFT over the
    grid gives every coefficient, and the cells of the compositions are
    rotated back, a slab at a time, into one output array in location order.
    Those two arrays are the only large ones. The error is absolute, about
    eps * e^||b||. Refused, before allocating, when the predicted peak bytes
    exceed linalg.BYTE_BUDGET.
    """
    dec, step = _prepare(a, b, cfg)
    l, n, big_n = len(dec), dec.source_dim, cfg.N
    points = guarded_count("torus grid points", big_n + 1, l - 1,
                           peak_bytes=lambda p: _torus_peak_bytes(p, big_n, l, n))
    slab = _slab_len(n)
    vecs = dec.vectors
    strides = (big_n + 1) ** np.arange(l - 2, -1, -1)  # of the grid's axes, in C order
    counts = compositions(big_n, l)
    locs, order = _sorted_locations(counts, dec, big_n)
    cells = (counts[:, :-1] @ strides)[order]  # each atom's grid cell, in location order
    del counts, order
    grid = np.empty((big_n + 1,) * (l - 1) + (n, n), dtype=np.complex128)
    flat = grid.reshape(points, n, n)
    rotated_step = vecs.conj().T @ step @ vecs
    roots = np.exp(-2j * np.pi * np.arange(big_n + 1) / (big_n + 1))
    for start in range(0, points, slab):
        idx = np.arange(start, min(start + slab, points)) // strides[:, np.newaxis] % (big_n + 1)
        # exponent of z at each eigenvector: its cluster's grid index, 0 for cluster l
        expo = np.vstack([idx, np.zeros((1, idx.shape[1]), dtype=idx.dtype)])[dec.labels].T
        flat[start:start + slab] = np.linalg.matrix_power(
            roots[expo][:, :, np.newaxis] * rotated_step, big_n
        )
    np.fft.ifftn(grid, axes=tuple(range(l - 1)), out=grid)
    weights = np.empty((cells.size, n, n), dtype=np.complex128)
    for start in range(0, cells.size, slab):
        weights[start:start + slab] = vecs @ flat[cells[start:start + slab]] @ vecs.conj().T
    del grid, flat
    return _collapse(locs, weights, dec, cfg, "dp")
