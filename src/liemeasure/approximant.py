"""Product-formula approximants of e^(tA+B) and their representing measures.

For Hermitian a with distinct eigenvalues lambda_1 < ... < lambda_l and
projectors E_j, the step-N approximant

    L_N(t) = (e^(t*a/N) e^(b/N))^N

expands into a sum of e^(t * mean of N eigenvalues) times products

    E_(k1) e^(b/N) E_(k2) e^(b/N) ... E_(kN) e^(b/N)

over all index tuples (k1, ..., kN). Grouping the tuples by their composition
vector (how many times each eigenvalue occurs) yields a discrete matrix
measure whose bilateral Laplace transform is exactly L_N. Two builders are
provided: exhaustive enumeration over the l^N tuples, and a layered dynamic
program over composition prefixes that reuses partial products.
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

    merge_tol is relative to max(1, spectral diameter of a); two candidate
    atom locations closer than that are fused into one atom (sum of weights).
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
    """(e^(t*a/n_steps) e^(b/n_steps))^n_steps for Hermitian a and arbitrary b."""
    ah = require_hermitian(a, 1e-9, "a")
    bm = as_matrix(b, "b")
    if ah.shape != bm.shape:
        raise ValueError("a and b must have the same dimension")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    t = complex(t)
    step = matrix_exp((t / n_steps) * ah) @ matrix_exp(bm / n_steps)
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
    step = matrix_exp(bm / cfg.N)
    factors = np.matmul(dec.projectors, step)  # (l, n, n): E_j e^(b/N)
    return dec, factors


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
    tol = cfg.merge_tol * span
    starts = np.concatenate(([0], np.flatnonzero(np.diff(locs) > tol) + 1))
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
    dec, factors = _prepare(a, b, cfg)
    l = len(dec)
    idx, prods = tuple_factor_products(factors, cfg.N)
    norm_sum = float(batched_operator_norms(prods).sum())
    counts = np.stack([(idx == j).sum(axis=1) for j in range(l)], axis=1)
    unique_counts, inverse = np.unique(counts, axis=0, return_inverse=True)
    grouped = np.zeros((unique_counts.shape[0],) + prods.shape[1:], dtype=np.complex128)
    np.add.at(grouped, inverse.reshape(-1), prods)
    return _collapse(
        unique_counts, grouped, dec, cfg, "bruteforce", tuple_norm_sum=norm_sum
    )


def build_measure_dp(a, b, cfg: ApproximantConfig) -> DiscreteMatrixMeasure:
    """Layered dynamic program over composition prefixes.

    Layer p holds, for every composition key (n_1, ..., n_l) with sum p, the
    sum of all length-p products of the factors E_j e^(b/N) whose eigenvalue
    tallies match the key. Layer 0 is the identity at the zero key, and

        G_p(key) = sum_j G_(p-1)(key - e_j) (E_j e^(b/N)),  j ascending.

    Keys are stored on a dense (N+1)^(l-1) lattice indexed by (n_1, ...,
    n_(l-1)), the last tally being implied by the layer number; the key shift
    key - e_j is then an array slice, so each layer is l batched matrix
    multiplications. Only the current and previous layers are retained. For
    l = 1 the lattice has no axes and one cell, so the layers multiply out
    e^(b/N) left to right. Refused beyond linalg.LATTICE_LIMIT cells.
    """
    dec, factors = _prepare(a, b, cfg)
    l = len(dec)
    n = dec.source_dim
    big_n = cfg.N
    lattice_cells = guarded_count("DP lattice cells", big_n + 1, l - 1, LATTICE_LIMIT)
    shape = (big_n + 1,) * (l - 1)
    g = np.zeros(shape + (n, n), dtype=np.complex128)
    g[(0,) * (l - 1)] = np.eye(n)

    def right_multiply(block, factor):
        # right factor is fixed across the batch: one flat GEMM beats a
        # broadcast loop over thousands of n-by-n products
        flat = np.ascontiguousarray(block).reshape(-1, n)
        return (flat @ factor).reshape(block.shape)

    for p in range(big_n):
        # layer p only populates lattice coordinates up to p, so confine the
        # update to that prefix cube instead of sweeping the whole lattice
        sa = p + 1
        cube = (slice(0, sa),) * (l - 1)
        nxt = np.zeros_like(g)
        nxt[cube] = right_multiply(g[cube], factors[l - 1])
        for j in range(l - 1):
            dst = tuple(
                slice(1, sa + 1) if ax == j else slice(0, sa)
                for ax in range(l - 1)
            )
            nxt[dst] += right_multiply(g[cube], factors[j])
        g = nxt

    idx = np.indices(shape).reshape(l - 1, lattice_cells).T  # C order = lexicographic
    sums = idx.sum(axis=1)
    valid = sums <= big_n
    counts = np.hstack([idx[valid], (big_n - sums[valid])[:, np.newaxis]])
    weights = g.reshape(-1, n, n)[valid]
    return _collapse(counts, weights, dec, cfg, "dp")
