"""Entrywise domination, the constant majorant, and the bounds built on them."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liemeasure.linalg import matrix_exp, operator_norm, tuple_factor_products
from liemeasure.norms import (
    _exp_monotone,
    _inverse_triangle_sums,
    _majorants,
    _partition_products,
    _subordinations,
    _total_variation_bounds,
    check_exp_monotone,
    inverse_triangle_sum,
    is_subordinate,
    norm_majorant,
    partition_product_bound,
    rank_one_exp,
    total_variation_bound,
)
from liemeasure.sampling import random_diagonal_partition, random_matrix, random_nonneg, random_subordinate_to


def test_is_subordinate_basic():
    m = np.array([[1.0, -2.0], [0.0, 1.0]], dtype=complex)
    s = np.array([[1.0, 2.0], [0.0, 1.0]])
    w = is_subordinate(m, s)
    assert w.holds and w.slack == pytest.approx(0.0, abs=1e-15)
    w2 = is_subordinate(m, np.array([[1.0, 1.9], [0.0, 1.0]]))
    assert not w2.holds
    assert w2.worst_pair == (0, 1)
    assert w2.slack == pytest.approx(-0.1, abs=1e-12)


def test_is_subordinate_rejects_negative_majorant():
    with pytest.raises(ValueError):
        is_subordinate(np.eye(2, dtype=complex), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_is_subordinate_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        is_subordinate(np.eye(2, dtype=complex), np.ones((3, 3)))


def test_norm_majorant_is_constant_at_the_norm(rng):
    b = random_matrix(rng, 3, scale=2.0)
    r = norm_majorant(b)
    c = operator_norm(b)
    assert np.abs(r - c).max() <= 1e-14 * max(1.0, c)
    assert is_subordinate(b, r).holds


def test_rank_one_exp_matches_series():
    # series oracle: sum_k R^k / k! truncated far beyond convergence
    for n, c in ((2, 0.3), (3, 1.0), (4, 2.5)):
        r = np.full((n, n), c)
        series = np.eye(n)
        term = np.eye(n)
        for k in range(1, 60):
            term = term @ r / k
            series = series + term
        got = rank_one_exp(r)
        assert np.abs(got - series).max() <= 1e-12 * math.exp(n * c)


def test_rank_one_exp_agrees_with_expm(rng):
    for c in (0.1, 1.0, 5.0):
        for n in range(2, 7):
            r = np.full((n, n), c)
            got = rank_one_exp(r)
            want = matrix_exp(r.astype(complex)).real
            assert np.abs(got - want).max() <= 1e-11 * max(1.0, math.exp(n * c))


def test_rank_one_exp_rejects_uneven_or_negative():
    with pytest.raises(ValueError):
        rank_one_exp(np.array([[1.0, 2.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        rank_one_exp(np.full((2, 2), -0.5))


def test_check_exp_monotone_known_pair():
    x = np.array([[1.0, 0.5], [0.5, 1.0]])
    y = np.array([[0.5, -0.5], [0.25, 1.0]], dtype=complex)
    assert check_exp_monotone(x, y).holds


def test_check_exp_monotone_rejects_bad_preconditions():
    x = np.array([[1.0, -0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        check_exp_monotone(x, x.astype(complex) * 0.5)
    good = np.abs(x)
    with pytest.raises(ValueError):
        check_exp_monotone(good, (good * 2).astype(complex))


def test_inverse_triangle_sum(rng):
    parts = [random_nonneg(rng, 3) for _ in range(4)]
    lhs, rhs = inverse_triangle_sum(parts)
    assert lhs == pytest.approx(sum(operator_norm(p) for p in parts), abs=1e-12)
    total = np.add.reduce(np.stack(parts), axis=0)
    assert rhs == pytest.approx(3 * operator_norm(total), abs=1e-12)
    assert lhs <= rhs + 1e-10


def _old_witness(m, s):
    """is_subordinate as it was written one pair at a time: the reference of the stacked core."""
    diff = s - np.abs(m)
    flat = int(np.argmin(diff))
    slack = float(diff.flat[flat])
    tol = 1e-12 * max(1.0, operator_norm(s))
    return slack >= -tol, (flat // len(s), flat % len(s)), slack


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_stacked_subordination_cores_equal_one_at_a_time_bit_for_bit(rng, n):
    k = 12
    x = np.stack([random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5))) for _ in range(k)])
    y = np.stack([random_subordinate_to(rng, xi) for xi in x])
    m = np.stack([random_matrix(rng, n, scale=1.2) for _ in range(k)])
    # some pairs fail: m is not subordinate to every x
    for got_m, got_s in ((y, x), (m, x), (m, _majorants(m))):
        holds, flat, slack, _ = _subordinations(got_m, got_s)
        for i in range(k):
            w = is_subordinate(got_m[i], got_s[i])
            assert (w.holds, w.worst_pair, w.slack) == (bool(holds[i]), divmod(int(flat[i]), n), float(slack[i]))
            assert (w.holds, w.worst_pair, w.slack) == _old_witness(got_m[i], got_s[i])
    for mi, r in zip(m, _majorants(m)):
        assert r.tobytes() == norm_majorant(mi).tobytes() == np.full((n, n), operator_norm(mi)).tobytes()
    holds, flat, slack, _ = _exp_monotone(x, y)
    for i in range(k):
        w = check_exp_monotone(x[i], y[i])
        assert (w.holds, w.worst_pair, w.slack) == (bool(holds[i]), divmod(int(flat[i]), n), float(slack[i]))
        ex = np.maximum(matrix_exp(x[i]).real, 0.0)
        assert (w.holds, w.worst_pair, w.slack) == _old_witness(matrix_exp(y[i]), ex)
    # the first pair whose y is not subordinate to x is named
    bad = y.copy()
    bad[[3, 7]] = 2 * x[[3, 7]] + 1.0
    with pytest.raises(ValueError, match="^y is not subordinate to x") as err:
        _exp_monotone(x, bad)
    with pytest.raises(ValueError) as one:
        check_exp_monotone(x[3], bad[3])
    assert str(err.value) == str(one.value)
    for parts in (x[:, np.newaxis], np.stack([x[:6], x[6:]], axis=1), np.stack([x[:4], x[4:8], x[8:]], axis=1)):
        lhs, rhs = _inverse_triangle_sums(parts)
        for got_lhs, got_rhs, p in zip(lhs, rhs, parts):
            assert inverse_triangle_sum(p) == (float(got_lhs), float(got_rhs))
            assert float(got_lhs) == sum(operator_norm(q) for q in p)
            assert float(got_rhs) == n * operator_norm(np.add.reduce(p, axis=0))


def test_partition_product_bound_trivial_partition(rng):
    r = random_nonneg(rng, 3, scale=0.8)
    projectors = np.eye(3)[np.newaxis]
    sum_norms, bound = partition_product_bound(projectors, r, 4)
    # one part: the sum collapses to e^r itself
    assert sum_norms == pytest.approx(operator_norm(matrix_exp(r.astype(complex))), rel=1e-12)
    assert bound == pytest.approx(3 * operator_norm(matrix_exp(r.astype(complex))), rel=1e-12)


def test_partition_product_bound_telescopes(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        parts = int(rng.integers(2, 4))
        projectors = random_diagonal_partition(rng, n, parts)
        r = random_nonneg(rng, n, scale=1.0)
        count = int(rng.integers(1, 5))
        sum_norms, bound = partition_product_bound(projectors, r, count)
        assert sum_norms <= bound + 1e-8


@pytest.mark.parametrize("n, parts, count", [(2, 1, 3), (2, 2, 1), (3, 2, 4), (4, 3, 2), (3, 3, 5)])
def test_partition_product_bound_is_the_stacked_core_bit_for_bit(rng, n, parts, count):
    projectors = np.stack([random_diagonal_partition(rng, n, parts) for _ in range(4)])
    r = np.stack([random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.2))) for _ in range(4)])
    sums, bounds, gaps = _partition_products(projectors, r, count)
    for p, x, s, bound, gap in zip(projectors, r, sums, bounds, gaps):
        assert partition_product_bound(p, x, count) == (float(s), float(bound))
        # the gap telescopes the products of this case alone
        factors = p.astype(complex) @ matrix_exp(x / count)
        prods = tuple_factor_products(factors, count)
        assert gap == operator_norm(prods.sum(axis=0) - matrix_exp(x))
        assert gap <= 1e-9 and s <= bound + 1e-8


def test_partition_product_bound_rejects_non_partition(rng):
    projectors = np.stack([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        partition_product_bound(projectors, random_nonneg(rng, 2), 2)


def test_total_variation_bound_past_the_float_range_is_inf():
    # 3 * ||b|| = 720.3: e^720.3 overflows a float, so the bound is +inf, not an error
    b = np.diag([240.0, 0.0, 0.0]) + 0.1
    assert total_variation_bound(3, b) == math.inf
    assert total_variation_bound(3, b / 2) == pytest.approx(3 * math.exp(3 * operator_norm(b / 2)), rel=1e-14)


@pytest.mark.parametrize("n", [1, 3])
def test_stacked_total_variation_bounds_equal_single_calls_bit_for_bit(rng, n):
    # a stack with a b whose bound overflows to inf (n ||b|| just past 709) and one at b = 0
    b = [random_matrix(rng, n, scale=s) for s in (0.1, 0.7, 1.5, 3.0)]
    b += [np.full((n, n), 712.0 / (n * n)), np.zeros((n, n))]
    got = _total_variation_bounds(n, np.stack(b).astype(complex))
    assert got.shape == (len(b),) and got[-2] == math.inf
    for bound, x in zip(got.tolist(), b):
        assert bound == total_variation_bound(n, x)
        growth = n * operator_norm(x)
        assert bound == (n * math.exp(growth) if growth <= 709.0 else math.inf)


def test_total_variation_bound_formula():
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert total_variation_bound(2, b) == pytest.approx(2 * math.exp(2.0), rel=1e-14)
    assert total_variation_bound(3, np.zeros((3, 3), dtype=complex)) == pytest.approx(3.0)


@seed(20260816)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_domination_is_reflexive_on_nonneg(n, salt):
    rng = np.random.default_rng(salt)
    s = random_nonneg(rng, n, scale=2.0)
    assert is_subordinate(s.astype(complex), s).holds


@seed(20260816)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_scaling_preserves_domination(n, salt):
    rng = np.random.default_rng(salt)
    s = random_nonneg(rng, n, scale=1.5)
    m = s * rng.uniform(0.0, 1.0)
    assert is_subordinate(m.astype(complex), s).holds
