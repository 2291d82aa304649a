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
(build_measure_dp, the production builder). Both share one composition
index: a composition's cell is its counts in base N+1, the torus grid's
C-order index. Each builder predicts its peak array bytes from N, l and n
and refuses, before allocating, a build that would exceed linalg.BYTE_BUDGET.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _SLAB_BYTES,
    _guarded_binomial,
    as_int,
    as_matrix_pair,
    guarded_count,
    matrix_exp,
    require_hermitian,
    tuple_factor_products,
)
from .measure import DiscreteMatrixMeasure
from .spectral import CLUSTER_TOL, SpectralDecomposition, _decompose_stack, decompose

__all__ = [
    "MERGE_TOL",
    "ApproximantConfig",
    "compositions",
    "composition_locations",
    "n_convex_hull",
    "lie_approximant",
    "commuting_case_measure",
    "build_measure_bruteforce",
    "build_measure_dp",
]

MERGE_TOL = 1e-9  # ApproximantConfig's default merge_tol


@dataclass(frozen=True)
class ApproximantConfig:
    """Step count and numeric knobs for the measure builders.

    merge_tol is relative to max(1, spectral diameter of a); candidate atom
    locations are fused into atoms no wider than that (sum of weights, mean
    location), so a long chain of close neighbours is split, not fused whole.
    """

    N: int
    cluster_tol: float = CLUSTER_TOL
    merge_tol: float = MERGE_TOL

    def __post_init__(self):
        object.__setattr__(self, "N", as_int(self.N, "N"))
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
    when the predicted peak bytes of the C(total+parts-1, parts-1) rows
    exceed linalg.BYTE_BUDGET.
    """
    total, parts = as_int(total, "total", 0), as_int(parts, "parts")
    _guarded_binomial("compositions", total + parts - 1, parts - 1,
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
    """Location (sum_j counts_j * lambda_j) / n_steps for each composition row.

    eigenvalues of shape (k, l) give a (k, rows) array, one row per spectrum,
    each bit for bit its own call's: every spectrum is one matrix-vector
    product, where one matrix product over all k would sum in another order.
    """
    lam = np.asarray(eigenvalues, dtype=float)[..., np.newaxis]
    return np.matmul(np.asarray(counts, dtype=float), lam)[..., 0] / float(n_steps)


def n_convex_hull(eigenvalues, n_steps: int) -> np.ndarray:
    """Sorted deduplicated means of n_steps eigenvalues drawn with repetition."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 1 or not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be a non-empty finite 1-D array")
    if np.unique(lam).size != lam.size:
        raise ValueError("eigenvalues must be distinct")
    n_steps = as_int(n_steps, "n_steps")
    return np.unique(composition_locations(compositions(n_steps, lam.size), lam, n_steps))


def lie_approximant(a, b, t, n_steps: int) -> np.ndarray:
    """(e^(t*a/n_steps) e^(b/n_steps))^n_steps for Hermitian a and arbitrary b.

    t is a scalar or an array of points; the result has shape t.shape + (n, n).
    a is diagonalised once, a = V diag(mu) V*, so e^(t*a/N) = V diag(e^(t*mu/N)) V*
    at every point; e^(b/N) is formed once and one batched matrix power
    finishes every point. Refused, before allocating, when _lie_peak_bytes
    of the grid exceeds linalg.BYTE_BUDGET.
    """
    am, bm = as_matrix_pair(a, b)
    ah = require_hermitian(am, name="a")
    return _lie_approximants(ah[np.newaxis], bm[np.newaxis], t, as_int(n_steps, "n_steps"))[0]


def _lie_approximants(ah: np.ndarray, b: np.ndarray, t, n_steps: int) -> np.ndarray:
    """lie_approximant of each pair of (k, n, n) stacks, ah symmetrized; shape (k,) + t.shape + (n, n).

    One eigh, one expm and one matrix power serve every pair and point; each
    pair's values are bit for bit its own call's.
    """
    t = np.asarray(t, dtype=np.complex128)
    k, n = b.shape[:2]
    guarded_count("t-grid points", k * t.size, 1, peak_bytes=lambda points: _lie_peak_bytes(points, n))
    mu, vecs = np.linalg.eigh(ah)
    inner = (k,) + (1,) * t.ndim
    phases = np.exp((t / n_steps)[np.newaxis, ..., np.newaxis] * mu.reshape(inner + (n,)))
    vecs = vecs.reshape(inner + (n, n))
    step = (vecs * phases[..., np.newaxis, :]) @ vecs.conj().swapaxes(-1, -2)
    return np.linalg.matrix_power(step @ matrix_exp(b / n_steps).reshape(inner + (n, n)), n_steps)


def _lie_peak_bytes(points: int, n: int) -> int:
    """Predicted peak bytes of lie_approximant on a grid of `points`."""
    # five (n, n) matrices a point: the step, the matrix power's argument, its square,
    # its result and a new product; one more as slack; and t, the phases and their exponents
    return 16 * points * (6 * n * n + 2 * n + 4)


def commuting_case_measure(a, b, cluster_tol: float = CLUSTER_TOL) -> DiscreteMatrixMeasure:
    """Atoms (lambda_j, E_j e^b E_j); represents e^(ta) e^b, and e^(ta+b) when ab = ba."""
    am, bm = as_matrix_pair(a, b)
    return _commuting_measure(decompose(am, cluster_tol), matrix_exp(bm))


def _commuting_measure(dec: SpectralDecomposition, eb: np.ndarray) -> DiscreteMatrixMeasure:
    """commuting_case_measure from a's decomposition and e^b."""
    weights = np.matmul(np.matmul(dec.projectors, eb), dec.projectors)
    return DiscreteMatrixMeasure(
        dec.eigenvalues.copy(), weights, N=None, source="commuting-case"
    )


def _prepare(a: np.ndarray, b: np.ndarray, cfg: ApproximantConfig):
    """Each instance's decomposition of a and its e^(b/N), for (k, n, n) stacks from as_matrix."""
    return _decompose_stack(a, cfg.cluster_tol), matrix_exp(b / cfg.N)


def _merge_starts(locs: np.ndarray, tol: float) -> np.ndarray:
    """Start index of each atom when sorted locations are fused into atoms no wider than tol.

    Locations chained by gaps <= tol form a run. A run no wider than tol is
    one atom; a wider run is split wherever a location lies more than tol
    past the first location of its atom, so no atom spans more than tol.
    """
    apart = np.diff(locs) > tol
    if apart.all():  # every atom stands alone
        return np.arange(locs.size)
    starts = np.concatenate(([0], np.flatnonzero(apart) + 1))
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


def _composition_index(counts: np.ndarray, decs: list[SpectralDecomposition], n_steps: int):
    """(sorted locations, stable sort orders, cells, radix) of the rows of compositions(n_steps, l).

    Locations and orders are (k, rows), one row per decomposition; both
    builders sort here, so their merges agree. A row's cell is counts @ radix,
    radix = [(N+1)**(l-2), ..., 1, 0]: its counts of clusters 0..l-2 as digits
    in base N+1, the C-order index of its torus grid point. Cells increase
    with the rows, and are Python ints once (N+1)**(l-1) passes 2**63.
    """
    base, l = n_steps + 1, counts.shape[1]
    radix = np.array([base ** (l - 2 - j) for j in range(l - 1)] + [0],
                     dtype=object if base ** (l - 1) > 2**63 else np.int64)
    locs = composition_locations(counts, np.stack([d.eigenvalues for d in decs]), n_steps)
    order = np.argsort(locs, axis=1, kind="stable")
    return np.take_along_axis(locs, order, axis=1), order, counts @ radix, radix


def _collapse(
    locs: np.ndarray,
    weights: np.ndarray,
    dec: SpectralDecomposition,
    cfg: ApproximantConfig,
    source: str,
) -> DiscreteMatrixMeasure:
    """Turn sorted candidate atoms into a measure, fusing near-equal locations.

    When nothing fuses, the measure keeps locs and weights themselves, uncopied.
    """
    span = max(1.0, dec.lambda_max - dec.lambda_min)
    starts = _merge_starts(locs, cfg.merge_tol * span)
    if starts.size < locs.size:
        locs = np.add.reduceat(locs, starts) / np.diff(np.append(starts, locs.size))
        weights = np.add.reduceat(weights, starts, axis=0)
    return DiscreteMatrixMeasure(locs, weights, N=cfg.N, source=source)


def build_measure_bruteforce(a, b, cfg: ApproximantConfig) -> DiscreteMatrixMeasure:
    """Enumerate all l^N index tuples, multiply out, and group by composition.

    The oracle builder: transparent but exponential, so refused when
    linalg.tuple_factor_products predicts more than linalg.BYTE_BUDGET bytes.
    Each tuple's product is added to the weight of its composition; nothing
    else is formed from the products.
    """
    am, bm = as_matrix_pair(a, b)
    return _bruteforce_measures(*_prepare(am[np.newaxis], bm[np.newaxis], cfg), cfg)[0]


def _tuple_products(decs, steps: np.ndarray, n_steps: int) -> np.ndarray:
    """(k, l**n_steps, n, n) products of the factors E_j e^(b/N) over index tuples, for k instances from _prepare."""
    factors = np.matmul(np.stack([d.projectors for d in decs]), steps[:, np.newaxis])
    return tuple_factor_products(factors, n_steps)


def _tuple_rows(cells: np.ndarray, radix: np.ndarray, n_steps: int) -> np.ndarray:
    """Each index tuple's composition row, from _composition_index's cells and radix.

    Tuples run in lexicographic order, as in tuple_factor_products. A tuple's
    cell is its prefix's cell plus its last index's radix digit, so the
    cells are built level by level, then found among the compositions'.
    """
    codes = np.zeros(1, dtype=radix.dtype)
    for _ in range(n_steps):
        codes = (codes[:, np.newaxis] + radix).reshape(-1)
    return np.searchsorted(cells, codes)


def _bruteforce_measures(decs, steps: np.ndarray, cfg: ApproximantConfig) -> list[DiscreteMatrixMeasure]:
    """build_measure_bruteforce of k instances from _prepare that share n and l, in stacked calls.

    Each measure is bit for bit its own call's. The products of all k are
    alive at once, beside a few int64 numbers per tuple, so the peak is
    linalg._tuple_peak_bytes(l, N, n, k) and callers stack as many
    instances as one slab holds of that peak.
    """
    return _grouped_measures(_tuple_products(decs, steps, cfg.N), decs, cfg)


def _grouped_measures(prods: np.ndarray, decs, cfg: ApproximantConfig) -> list[DiscreteMatrixMeasure]:
    """_bruteforce_measures from its products: each tuple's product is added to its composition's weight."""
    k, _, n = prods.shape[:3]
    locs, order, cells, radix = _composition_index(compositions(cfg.N, len(decs[0])), decs, cfg.N)
    rows = len(cells)
    grouped = np.zeros((k, rows, n, n), dtype=np.complex128)
    targets = _tuple_rows(cells, radix, cfg.N) + rows * np.arange(k)[:, np.newaxis]
    np.add.at(grouped.reshape(k * rows, n, n), targets.reshape(-1), prods.reshape(-1, n, n))
    return [_collapse(locs[i], grouped[i, order[i]], decs[i], cfg, "bruteforce") for i in range(k)]


def _slabs(k: int, count: int, item_bytes: int):
    """(instances, items) slices over k instances of count items of item_bytes each, a slab at a time.

    Whole instances share a block while they fit _SLAB_BYTES; a larger
    instance is cut into blocks of as many items as fit, one at least.
    """
    per = max(1, _SLAB_BYTES // (item_bytes * count))
    width = min(count, max(1, _SLAB_BYTES // item_bytes))
    for i in range(0, k, per):
        for start in range(0, count, width):
            yield slice(i, min(i + per, k)), slice(start, min(start + width, count))


def _torus_peak_bytes(l: int, n_steps: int, n: int, k: int = 1) -> int:
    """Predicted peak bytes of the torus builder for k instances of l clusters, n_steps and dimension n.

    For l <= 2 every grid point is an atom and the grid is the output (when
    rounding ties the locations, _torus_measures guards a second array
    again); for l > 2 the output is a second array beside the grid.
    """
    points = (n_steps + 1) ** (l - 1)
    atoms = math.comb(n_steps + l - 1, l - 1)
    slab = next(_slabs(1, k * points, 16 * n * n))[1].stop  # the matrices of one slab
    # the grids, the outputs when they are not the grids, the slabs alive inside one
    # matrix_power, and five matrices an instance (e^(B/N), the eigenvectors, their
    # stacked copy, its adjoint and the rotated step) with one more as slack
    matrices = k * (points if atoms == points else points + atoms) + 4 * slab + 6 * k
    # the roots, and the index arrays as if all alive at once: a slab's grid indices and
    # exponents, the composition rows at their peak, and each atom's location, sort order and cell
    roots = n_steps + 1 if l > 1 else 1
    index = 8 * (n + l) * slab + _compositions_peak_bytes(n_steps, l) + 24 * k * atoms
    return 16 * n * n * matrices + 16 * roots + index


def build_measure_dp(a, b, cfg: ApproximantConfig) -> DiscreteMatrixMeasure:
    """Evaluate the step polynomial on a roots-of-unity torus and interpolate.

    L_N(t) = P(z) for z_j = e^(t*lambda_j/N) and P(z) = (sum_j z_j E_j e^(b/N))^N,
    whose coefficient at z_1^(n_1) ... z_l^(n_l) is the weight of composition
    (n_1, ..., n_l). In a's eigenbasis V, sum_j z_j E_j = V diag(z_labels) V*;
    with z_l = 1 (n_l is N minus the rest), matrix powers evaluate P at the
    (N+1)^(l-1) points z_j = e^(-2 pi i m_j/(N+1)), m_j = 0..N, one slab of
    points at a time, into one grid array; an in-place inverse FFT over the
    grid gives every coefficient, and the cells of the compositions are
    rotated back, a slab at a time, into location order. When every grid point
    is an atom (l <= 2), location order is the grid's reversed, and the grid,
    rotated and reversed in place, is the output; otherwise the atoms are
    gathered into one output array. Those are the only large arrays, so for
    l <= 2 a build holds one grid. The error grows about linearly
    in N: for a 3x3 pair with a's spectrum {-1, 1, 1}, max|sum_k W_k - e^b|
    measured 1.25 to 1.70 times N * eps for N = 2^8 to 2^20 (the table in
    ROADMAP.md). Refused, before allocating, when the predicted peak bytes
    exceed linalg.BYTE_BUDGET.
    """
    am, bm = as_matrix_pair(a, b)
    return _torus_measures(*_prepare(am[np.newaxis], bm[np.newaxis], cfg), cfg)[0]


def _torus_measures(decs, steps: np.ndarray, cfg: ApproximantConfig) -> list[DiscreteMatrixMeasure]:
    """build_measure_dp of k instances from _prepare that share n and l, in stacked calls.

    The k grids form one array with a leading instance axis; whole instances
    share a slab of matrix powers and of rotations while their grids fit one,
    and each measure is bit for bit its own call's. The grids of all k, and
    for l > 2 their outputs, are alive at once, so callers stack as many
    instances as one slab holds of a build's peak; the guard predicts the
    peak of all k.
    """
    k, n = steps.shape[:2]
    l, big_n = len(decs[0]), cfg.N
    points = guarded_count("torus grid points", big_n + 1, l - 1,
                           peak_bytes=lambda _: _torus_peak_bytes(l, big_n, n, k))
    vecs = np.stack([d.vectors for d in decs])
    adj = vecs.conj().swapaxes(1, 2)
    labels = np.stack([d.labels for d in decs])
    locs, order, cells, radix = _composition_index(compositions(big_n, l), decs, big_n)
    cells = cells[order]  # each atom's grid cell, in location order
    del order
    # every grid point is an atom (l <= 2), and location order is cell order reversed:
    # then the grid, rotated and reversed in place, is the output
    in_place = cells.shape[1] == points and (cells == np.arange(points - 1, -1, -1)).all()
    if in_place:
        del cells
    elif cells.shape[1] == points:
        # two clusters whose locations tie or fall out of order by rounding: the atoms are
        # gathered into a second array after all, which the guard above left out
        guarded_count("torus grid points", big_n + 1, l - 1,
                      peak_bytes=lambda _: _torus_peak_bytes(l, big_n, n, k) + 16 * n * n * k * points)
    grid = np.empty((k,) + (big_n + 1,) * (l - 1) + (n, n), dtype=np.complex128)
    flat = grid.reshape(k, points, n, n)
    rotated_step = adj @ steps @ vecs
    # one root per index of a grid axis; a one-cluster grid has no axes and reads z = 1 alone
    roots = np.exp(-2j * np.pi * np.arange(big_n + 1 if l > 1 else 1) / (big_n + 1))
    for inst, items in _slabs(k, points, 16 * n * n):
        idx = np.arange(*items.indices(points)) // radix[:-1, np.newaxis] % (big_n + 1)
        # exponent of z at each eigenvector: its cluster's grid index, 0 for cluster l
        expo = np.vstack([idx, np.zeros((1, idx.shape[1]), dtype=idx.dtype)])[labels[inst]]
        flat[inst, items] = np.linalg.matrix_power(
            roots[expo.swapaxes(1, 2)][..., np.newaxis] * rotated_step[inst, np.newaxis], big_n
        )
    np.fft.ifftn(grid, axes=tuple(range(1, l)), out=grid)
    if in_place:
        # a slab of the front and its mirror at the back are rotated, then written swapped and
        # reversed; the middle point of an odd grid lies in both and gets the same value twice
        for inst, items in _slabs(k, (points + 1) // 2, 16 * n * n):
            v, vh = vecs[inst, np.newaxis], adj[inst, np.newaxis]
            back = slice(points - items.stop, points - items.start)
            front = v @ flat[inst, items] @ vh
            flat[inst, items] = (v @ flat[inst, back] @ vh)[:, ::-1]
            flat[inst, back] = front[:, ::-1]
        weights = flat
    else:
        weights = np.empty((k, cells.shape[1], n, n), dtype=np.complex128)
        for inst, items in _slabs(k, cells.shape[1], 16 * n * n):
            rows = np.arange(*inst.indices(k))[:, np.newaxis]
            weights[inst, items] = vecs[inst, np.newaxis] @ flat[rows, cells[inst, items]] @ adj[inst, np.newaxis]
        del grid, flat
    return [_collapse(locs[i], weights[i], decs[i], cfg, "dp") for i in range(k)]
