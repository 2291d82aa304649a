"""Entrywise domination (subordination) calculus and the norm bounds built on it.

M is subordinate to S when |m_pq| <= s_pq for every entry, S having real
non-negative entries. Subordination survives sums, products and the entrywise
exponential, which is what turns the constant-entry majorant of a matrix into
a total-variation bound for the measures built in the approximant module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _tuple_norm_sums,
    as_int,
    as_matrix,
    batched_operator_norms,
    matrix_exp,
    tuple_factor_products,
)

__all__ = [
    "SubordinationWitness",
    "is_subordinate",
    "norm_majorant",
    "rank_one_exp",
    "check_exp_monotone",
    "inverse_triangle_sum",
    "partition_product_bound",
    "total_variation_bound",
]


@dataclass(frozen=True)
class SubordinationWitness:
    """Outcome of an entrywise |m_pq| <= s_pq check.

    slack is min over entries of s_pq - |m_pq|; worst_pair is an index pair
    attaining it. holds allows slack down to -1e-12*max(1, ||s||) so that
    mathematically tight inequalities survive rounding.
    """

    holds: bool
    worst_pair: tuple[int, int]
    slack: float


def _require_entrywise_nonneg(m, name: str) -> np.ndarray:
    a = as_matrix(m, name)
    if np.any(a.imag != 0) or np.any(a.real < 0):
        raise ValueError(f"{name}: entries must be real and non-negative")
    return a.real


def _nonneg_stack(items, name: str) -> np.ndarray:
    """(k, n, n) stack of entrywise non-negative matrices of one size, each checked by index."""
    mats = [_require_entrywise_nonneg(m, f"{name}[{i}]") for i, m in enumerate(items)]
    if not mats:
        raise ValueError(f"{name} must be non-empty")
    for i, m in enumerate(mats):
        if m.shape != mats[0].shape:
            raise ValueError(f"{name}[{i}]: dimension mismatch")
    return np.stack(mats)


def is_subordinate(m, s) -> SubordinationWitness:
    """Witness for |m_pq| <= s_pq; s must have real non-negative entries."""
    a = as_matrix(m, "m")
    b = _require_entrywise_nonneg(s, "s")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    holds, flat, slack, _ = _subordinations(a[np.newaxis], b[np.newaxis])
    return _witness(holds[0], flat[0], slack[0], a.shape[0])


def _subordinations(m: np.ndarray, s: np.ndarray):
    """is_subordinate of each pair of (k, n, n) stacks m and s, unchecked, the norms of s in one stacked SVD.

    Returns (holds, flat index of a worst entry, slack, margin), each of
    shape (k,), each pair's values bit for bit its own call's. The rounding
    allowance is the floor -1e-12 max(1, ||s||): a pair holds when its slack
    reaches the floor, and its margin is slack - floor.
    """
    diff = (s - np.abs(m)).reshape(len(m), -1)
    flat = diff.argmin(axis=1)
    slack = diff[np.arange(len(diff)), flat]
    floor = -1e-12 * np.maximum(1.0, batched_operator_norms(s))
    return slack >= floor, flat, slack, slack - floor


def _witness(holds, flat, slack, n: int) -> SubordinationWitness:
    flat = int(flat)
    return SubordinationWitness(bool(holds), (flat // n, flat % n), float(slack))


def norm_majorant(b) -> np.ndarray:
    """Constant-entry majorant: every entry equals ||b||.

    Any matrix is subordinate to its majorant, and the majorant has operator
    norm n*||b|| and entrywise-exponential norm e^(n*||b||).
    """
    return _majorants(as_matrix(b, "b")[np.newaxis])[0]


def _majorants(b: np.ndarray) -> np.ndarray:
    """norm_majorant of each matrix of a (k, n, n) stack, the norms in one stacked SVD."""
    return np.broadcast_to(batched_operator_norms(b)[:, np.newaxis, np.newaxis], b.shape).copy()


def rank_one_exp(r) -> np.ndarray:
    """Exponential of a constant-entry matrix, in closed form.

    For r with every entry equal to c >= 0 (a rank-one matrix when c > 0),
    e^r = I + ((e^(n*c) - 1)/(n*c)) * r; for c = 0 this is the identity.
    """
    re = _require_entrywise_nonneg(r, "r")
    c = float(re.flat[0])
    if np.abs(re - c).max() > 1e-12 * max(1.0, c):
        raise ValueError("r: entries must all be equal")
    n = re.shape[0]
    out = np.eye(n)
    if c > 0:
        out = out + (math.expm1(n * c) / (n * c)) * re
    return out


def check_exp_monotone(x, y) -> SubordinationWitness:
    """Witness that y subordinate to x (x entrywise non-negative) gives e^y subordinate to e^x.

    Both exponentials go through the same algorithm; the witness tolerance
    absorbs the per-matrix parameter choices it makes internally.
    """
    xr = _require_entrywise_nonneg(x, "x")
    ym = as_matrix(y, "m")
    if ym.shape != xr.shape:
        raise ValueError(f"dimension mismatch: {ym.shape} vs {xr.shape}")
    holds, flat, slack, _ = _exp_monotone(xr[np.newaxis], ym[np.newaxis])
    return _witness(holds[0], flat[0], slack[0], xr.shape[0])


def _exp_monotone(x: np.ndarray, y: np.ndarray):
    """check_exp_monotone of each pair of (k, n, n) stacks, x real and non-negative, unchecked.

    Returns _subordinations of e^y against e^x, each pair's values bit for
    bit its own call's; ValueError names the first pair whose y is not
    subordinate to x.
    """
    holds, flat, slack, _ = _subordinations(y, x)
    if not holds.all():
        pre = _witness(False, flat[~holds][0], slack[~holds][0], x.shape[1])
        raise ValueError(
            f"y is not subordinate to x (slack {pre.slack:.3e} at {pre.worst_pair})"
        )
    # e^x of an entrywise non-negative real matrix is entrywise non-negative;
    # the imaginary part is exactly zero through the complex arithmetic.
    return _subordinations(matrix_exp(y), np.maximum(matrix_exp(x).real, 0.0))


def inverse_triangle_sum(parts) -> tuple[float, float]:
    """(sum of norms, n * norm of sum) for entrywise non-negative parts.

    For such parts the sum of operator norms is bounded by n times the norm
    of the sum, the reverse of the triangle inequality up to the factor n.
    """
    lhs, rhs = _inverse_triangle_sums(_nonneg_stack(parts, "parts")[np.newaxis])
    return float(lhs[0]), float(rhs[0])


def _inverse_triangle_sums(parts: np.ndarray):
    """inverse_triangle_sum of each (p, n, n) stack of a (k, p, n, n) stack, unchecked.

    Returns (lhs, rhs), each of shape (k,), each case's values bit for bit its
    own call's: the norms in stacked SVDs, summed part by part in order.
    """
    k, p, n = parts.shape[:3]
    norms = batched_operator_norms(parts.reshape(-1, n, n)).reshape(k, p)
    lhs = 0.0
    for j in range(p):
        lhs = lhs + norms[:, j]
    return lhs, n * batched_operator_norms(np.add.reduce(parts, axis=1))


def partition_product_bound(projectors, r, count: int):
    """Sum of norms of all length-count products F_k1 e^(r/count) ... F_kcount e^(r/count).

    The F_j must be entrywise non-negative with sum_j F_j = I (within 1e-10)
    and r entrywise non-negative. Returns (sum_of_norms, n*||e^r||); the first
    never exceeds the second. The unnormed products themselves sum to e^r
    exactly, which is how the bound telescopes. Products whose predicted peak
    bytes exceed linalg.BYTE_BUDGET raise ResourceLimitError.
    """
    mats = _nonneg_stack(projectors, "projectors")
    n = mats.shape[1]
    rr = _require_entrywise_nonneg(r, "r")
    if rr.shape != (n, n):
        raise ValueError("r: dimension mismatch with projectors")
    count = as_int(count, "count")
    ident_defect = np.abs(np.add.reduce(mats, axis=0) - np.eye(n)).max()
    if ident_defect > 1e-10:
        raise ValueError(f"projectors must sum to the identity (defect {ident_defect:.3e})")
    sums, bounds, _ = _partition_products(mats[np.newaxis], rr[np.newaxis], count)
    return float(sums[0]), float(bounds[0])


def _partition_products(projectors: np.ndarray, r: np.ndarray, count: int):
    """partition_product_bound of k cases: (k, l, n, n) projectors and (k, n, n) r, unchecked.

    Returns (sums of norms, bounds n*||e^r||, telescoping gaps ||sum of the
    products - e^r||), each of shape (k,), each case's values bit for bit its
    own call's. The products of all k are alive at once.
    """
    n = projectors.shape[2]
    er = matrix_exp(r)
    factors = np.matmul(projectors.astype(np.complex128), matrix_exp(r / count)[:, np.newaxis])
    prods = tuple_factor_products(factors, count)
    gaps = batched_operator_norms(np.add.reduce(prods, axis=1) - er)
    return _tuple_norm_sums(prods), n * batched_operator_norms(er), gaps


def total_variation_bound(n: int, b) -> float:
    """n * e^(n*||b||), the a-priori total-variation bound for any step count; inf past the float range."""
    n = as_int(n, "n")
    return float(_total_variation_bounds(n, as_matrix(b)[np.newaxis])[0])


def _total_variation_bounds(n: int, b: np.ndarray) -> np.ndarray:
    """total_variation_bound(n, b) of each matrix of a (k, n, n) stack, unchecked, the norms in one stacked SVD."""
    out = []
    for growth in (n * batched_operator_norms(b)).tolist():
        try:
            out.append(n * math.exp(growth))
        except OverflowError:  # e^x leaves the float range just above x = 709
            out.append(math.inf)
    return np.array(out)
