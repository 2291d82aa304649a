"""Core matrix helpers, checked against oracles that avoid numpy's own
eigenvalue machinery where the function under test relies on it."""

import functools
import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liemeasure.linalg import (
    ResourceLimitError,
    as_matrix,
    canonical_json,
    entry_abs_sum,
    guarded_count,
    hermitian_defect,
    is_psd,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    read_matrix,
    require_hermitian,
    tuple_factor_products,
    write_matrix,
)


# ------------------------------------------------------------------ oracle
# Largest eigenvalue of a Hermitian PSD matrix without np.linalg.eig*:
# characteristic polynomial via the Faddeev-LeVerrier recurrence, then
# bisection on the predicate "p and every derivative is positive at x",
# which for a monic real-rooted polynomial holds iff x exceeds all roots.

def _char_poly(m):
    n = m.shape[0]
    coeffs = [1.0]
    work = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        work = m @ work
        ck = -np.trace(work).real / k
        coeffs.append(ck)
        work = work + ck * np.eye(n)
    return np.array(coeffs)


def _all_derivs_positive(coeffs, x):
    c = coeffs.copy()
    while len(c) > 1:
        if np.polyval(c, x) <= 0:
            return False
        c = np.polyder(c)
    return True


def _largest_eig_psd(m):
    coeffs = _char_poly(m)
    lo = max(float(m[j, j].real) for j in range(m.shape[0]))
    hi = 1.0 + float(np.abs(coeffs).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _all_derivs_positive(coeffs, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_operator_norm(m):
    return math.sqrt(max(_largest_eig_psd(m.conj().T @ m), 0.0))


def test_operator_norm_matches_char_poly_oracle(rng):
    for trial in range(40):
        n = int(rng.integers(1, 7))
        m = (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) * rng.uniform(0.1, 5)
        got = operator_norm(m)
        want = oracle_operator_norm(m.astype(complex))
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_operator_norm_known_values():
    assert operator_norm(np.array([[3.0]])) == pytest.approx(3.0, abs=1e-15)
    assert operator_norm(np.diag([1.0, -4.0, 2.0])) == pytest.approx(4.0, abs=1e-12)
    # nilpotent shift: norm 1 even though all eigenvalues vanish
    assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_entry_abs_sum():
    m = np.array([[1.0, -2.0], [3j, -4.0]])
    assert entry_abs_sum(m) == pytest.approx(10.0, abs=1e-12)


def test_entry_abs_sum_dominates_operator_norm(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert operator_norm(m) <= entry_abs_sum(m) + 1e-12


def test_matrix_exp_symmetric_offdiagonal():
    # exp of [[0,1],[1,0]] has cosh(1) on the diagonal, sinh(1) off it
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    want = np.array(
        [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
    )
    assert np.abs(matrix_exp(x) - want).max() <= 1e-14


def test_matrix_exp_diagonal_and_nilpotent():
    d = matrix_exp(np.diag([1.0, -2.0]).astype(complex))
    assert np.abs(d - np.diag([math.e, math.exp(-2.0)])).max() <= 1e-14
    nil = matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert np.abs(nil - np.array([[1.0, 1.0], [0.0, 1.0]])).max() <= 1e-15


def test_adjoint_and_hermitian_defect():
    m = np.array([[1.0, 2.0 + 1j], [0.5, -3.0]])
    h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 0.0]])
    assert hermitian_defect(h) <= 1e-15
    assert hermitian_defect(m) > 0.5


def test_require_hermitian_symmetrizes_and_rejects():
    h = np.array([[1.0, 1e-12], [0.0, 2.0]], dtype=complex)
    out = require_hermitian(h, "h")
    assert hermitian_defect(out) <= 1e-15
    with pytest.raises(ValueError, match="Hermitian"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128 and out.shape == (2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("imaginary", [False, True])
def test_as_matrix_rejects_a_non_finite_real_or_imaginary_part(bad, imaginary):
    m = np.zeros((2, 2), dtype=complex)
    m[1, 0] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
    with pytest.raises(ValueError, match="^m: entries must be finite$"):
        as_matrix(m, "m")


@seed(20260816)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6), st.booleans())
def test_operator_norm_and_hermitian_defect_equal_numpy_two_norm_bit_for_bit(n, salt, zero):
    rng = np.random.default_rng(salt)
    m = np.zeros((n, n), dtype=complex)
    if not zero:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert operator_norm(m) == float(np.linalg.norm(m, 2))
    assert hermitian_defect(m) == float(np.linalg.norm(m - m.conj().T, 2))


def test_is_psd():
    assert is_psd(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
    assert is_psd(np.zeros((3, 3), dtype=complex))


def test_is_psd_of_a_non_hermitian_matrix_is_false():
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    # PSD in its Hermitian part, but s - s* is 1e-6 against a tolerance of 2e-9
    assert not is_psd(np.array([[2.0, 1e-6], [0.0, 2.0]], dtype=complex))


def test_tuple_factor_products_enumeration_order():
    f0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    f1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    prods = tuple_factor_products(np.stack([f0, f1]), 3)
    assert prods.shape == (8, 2, 2)
    # lexicographic: (0,0,0), (0,0,1), ..., (1,1,1)
    idx = [
        [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
        [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1],
    ]
    fs = [f0, f1]
    for row, prod in zip(idx, prods):
        want = fs[row[0]] @ fs[row[1]] @ fs[row[2]]
        assert np.abs(prod - want).max() <= 1e-15


@seed(20260816)
@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 6), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1)
)
def test_prefix_products_equal_a_left_to_right_reduce_bit_for_bit(l, count, n, stacked, draw):
    rng = np.random.default_rng(draw)
    sets = 3 if stacked else 1
    factors = rng.standard_normal((sets, l, n, n)) + 1j * rng.standard_normal((sets, l, n, n))
    prods = tuple_factor_products(factors if stacked else factors[0], count)
    assert prods.shape == ((sets,) if stacked else ()) + (l**count, n, n)
    idx = list(itertools.product(range(l), repeat=count))
    for f, got in zip(factors, prods if stacked else prods[np.newaxis]):
        want = np.stack([functools.reduce(np.matmul, f[list(row)]) for row in idx])
        assert got.tobytes() == want.tobytes()
    # the products are the function's own: writing to them leaves the factors be
    before = factors.copy()
    prods[...] = 0
    assert factors.tobytes() == before.tobytes()


def test_tuple_factor_products_guard():
    f = np.stack([np.eye(2, dtype=complex)] * 3)
    # 3**20 tuples of 2x2 products: three int64 numbers per tuple, plus the
    # last two levels of 64-byte products, 3**20 and 3**19 of them
    need = 3**20 * 24 + 64 * (3**20 + 3**19)
    with pytest.raises(
        ResourceLimitError,
        match=rf"^index tuples: 3\*\*20 would need {need} bytes, over the budget of 2147483648 bytes$",
    ):
        tuple_factor_products(f, 20)
    # guard compares in log space, so absurd exponents must not overflow
    with pytest.raises(ResourceLimitError):
        tuple_factor_products(f, 10**7)
    # exactly at the limit is allowed: 10**6 = 1000**2
    assert guarded_count("cells", 1000, 2, 10**6) == 10**6
    with pytest.raises(ResourceLimitError, match=r"^cells: 1001\*\*2 exceeds the limit of 1000000$"):
        guarded_count("cells", 1001, 2, 10**6)
    assert guarded_count("cells", 7, 0, 1) == 1


def test_canonical_json_formatting():
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(True) == "true"
    assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"b":1,"a":[1.5,null]}'
    assert canonical_json(np.float64(2.0)) == "2"


def test_matrix_json_round_trip(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        back = matrix_from_json(json.loads(canonical_json(matrix_to_json(m))))
        assert np.array_equal(back, m)


def test_matrix_json_real_omits_imag_part():
    obj = matrix_to_json(np.eye(2, dtype=complex))
    assert "im" not in obj
    assert np.array_equal(matrix_from_json(obj), np.eye(2))


def test_matrix_from_json_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "re": [[0.0, 1.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 0, "re": []})
    with pytest.raises(ValueError):
        matrix_from_json({"re": [[1.0]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 1, "re": [[True]], "im": [["2"]]},
        {"n": 1, "re": [["1"]]},
        {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, False], [0.0, 0.0]]},
        # an integer beyond the float range is not a real number either
        {"n": 1, "re": [[10**400]]},
        {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, -(10**400)], [0.0, 0.0]]},
    ],
)
def test_matrix_from_json_refuses_booleans_and_strings(obj):
    with pytest.raises(ValueError, match="^matrix JSON: entries must be real numbers$"):
        matrix_from_json(obj)


def test_matrix_write_read_write_keeps_negative_zeros(tmp_path):
    m = np.empty((2, 2), dtype=np.complex128)
    m.real = [[-0.0, 1.0], [2.0, -0.0]]
    m.imag = [[0.5, -0.0], [0.0, -0.0]]
    first, second = tmp_path / "m.json", tmp_path / "m2.json"
    write_matrix(first, m)
    assert '"re":[[-0,1],[2,-0]],"im":[[0.5,-0],[0,-0]]' in first.read_text()
    back = read_matrix(first)
    assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))
    write_matrix(second, back)
    assert first.read_bytes() == second.read_bytes()


def test_read_write_matrix_round_trip(tmp_path, rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = tmp_path / "m.json"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)
    # same input, same bytes
    path2 = tmp_path / "m2.json"
    write_matrix(path2, m)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_json_read_pauses_the_collector_and_restores_it(tmp_path, caller_enabled):
    good, bad = tmp_path / "m.json", tmp_path / "bad.json"
    write_matrix(good, np.eye(2))
    bad.write_text('{"n": 2, "re": [[1.0, 0.0], [0.0')
    was_enabled = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        assert np.array_equal(read_matrix(good), np.eye(2))
        assert gc.isenabled() is caller_enabled
        with pytest.raises(ValueError):
            read_matrix(bad)
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
