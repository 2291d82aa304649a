"""Measure construction for the product approximants, DP against brute force."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liemeasure.approximant import (
    ApproximantConfig,
    _composition_index,
    _merge_starts,
    _tuple_rows,
    build_measure_bruteforce,
    build_measure_dp,
    commuting_case_measure,
    composition_locations,
    compositions,
    lie_approximant,
    n_convex_hull,
)
from liemeasure.linalg import ResourceLimitError, matrix_exp, operator_norm, tuple_factor_products
from liemeasure.measure import laplace_transform, moment, support_interval
from liemeasure.norms import partition_product_bound
from liemeasure.sampling import (
    commuting_hermitian_pair,
    hermitian_with_spectrum,
    random_hermitian,
    random_matrix,
    scaled_to_norm,
    spaced_values,
)
from liemeasure.spectral import decompose


def random_instance(rng, n_max=4, l_max=3):
    n = int(rng.integers(2, n_max + 1))
    l = int(rng.integers(1, min(n, l_max) + 1))
    lam = spaced_values(rng, l, min_gap=0.2)
    mult = np.ones(l, dtype=int)
    for _ in range(n - l):
        mult[int(rng.integers(0, l))] += 1
    a = hermitian_with_spectrum(rng, lam, mult)
    b = random_matrix(rng, n, scale=float(rng.uniform(0.3, 1.5)))
    return a, b


def test_compositions_exact():
    got = compositions(3, 2)
    assert got.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert compositions(4, 1).tolist() == [[4]]
    # count is the stars-and-bars binomial
    assert compositions(5, 3).shape == (math.comb(7, 2), 3)
    assert (compositions(5, 3).sum(axis=1) == 5).all()


def test_composition_locations_values():
    counts = np.array([[2, 0], [1, 1], [0, 2]])
    lam = np.array([0.0, 3.0])
    assert composition_locations(counts, lam, 2).tolist() == [0.0, 1.5, 3.0]


def test_n_convex_hull():
    hull = n_convex_hull(np.array([0.0, 2.0]), 4)
    assert hull.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    with pytest.raises(ValueError):
        n_convex_hull(np.array([0.0, 0.0]), 4)


def test_lie_approximant_single_step(rng):
    a = random_hermitian(rng, 3, scale=1.5)
    b = random_matrix(rng, 3)
    for t in (0.7, -1.2, 0.5 + 0.5j):
        want = matrix_exp(t * a) @ matrix_exp(b)
        assert operator_norm(lie_approximant(a, b, t, 1) - want) <= 1e-12


def test_lie_approximant_matches_sequential_product(rng):
    a = random_hermitian(rng, 3, scale=1.5)
    b = random_matrix(rng, 3)
    t = 0.8
    n_steps = 6
    step = matrix_exp((t / n_steps) * a) @ matrix_exp(b / n_steps)
    seq = np.eye(3, dtype=complex)
    for _ in range(n_steps):
        seq = seq @ step
    assert operator_norm(lie_approximant(a, b, t, n_steps) - seq) <= 1e-11


@pytest.mark.parametrize("shape", [(), (5,), (2, 3), (0,)])
def test_lie_approximant_on_a_grid_matches_per_point_expm(rng, shape):
    a = random_hermitian(rng, 3, scale=1.5)
    b = random_matrix(rng, 3)
    n_steps = 8
    t = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    got = lie_approximant(a, b, t, n_steps)
    assert got.shape == shape + (3, 3)
    for idx in np.ndindex(shape):
        step = scipy.linalg.expm(t[idx] * a / n_steps) @ scipy.linalg.expm(b / n_steps)
        want = np.linalg.matrix_power(step, n_steps)
        assert np.abs(got[idx] - want).max() <= 1e-13 * np.abs(want).max()


def test_single_step_measure_atoms(rng):
    a = random_hermitian(rng, 3, scale=2.0)
    b = random_matrix(rng, 3)
    dec = decompose(a)
    m = build_measure_dp(a, b, ApproximantConfig(N=1))
    assert len(m) == len(dec)
    assert np.abs(m.locations - dec.eigenvalues).max() <= 1e-12
    want = np.matmul(dec.projectors, matrix_exp(b))
    assert np.abs(m.weights - want).max() <= 1e-12


def test_zero_b_measure_is_spectral_dust(rng):
    # with b = 0 only the pure index tuples have mass: weight E_j at lambda_j
    a = random_hermitian(rng, 3, scale=2.0)
    dec = decompose(a)
    m = build_measure_dp(a, np.zeros((3, 3), dtype=complex), ApproximantConfig(N=5))
    matched = np.zeros(len(m), dtype=bool)
    for lam, proj in zip(dec.eigenvalues, dec.projectors):
        k = int(np.abs(m.locations - lam).argmin())
        assert abs(m.locations[k] - lam) <= 1e-12
        matched[k] = True
        assert np.abs(m.weights[k] - proj).max() <= 1e-12
    if not matched.all():
        assert np.abs(m.weights[~matched]).max() <= 1e-12


def test_dp_matches_bruteforce(rng):
    for _ in range(12):
        a, b = random_instance(rng)
        n_steps = int(rng.integers(1, 7))
        cfg = ApproximantConfig(N=n_steps)
        m_dp = build_measure_dp(a, b, cfg)
        m_bf = build_measure_bruteforce(a, b, cfg)
        assert len(m_dp) == len(m_bf)
        assert np.abs(m_dp.locations - m_bf.locations).max() <= 1e-12
        assert np.abs(m_dp.weights - m_bf.weights).max() <= 1e-10


def _weights_by_composition(build, a, b, n_steps):
    """(compositions(n_steps, l), the weight of each row): one atom per row, matched by location."""
    dec = decompose(a)
    rows = compositions(n_steps, len(dec))
    m = build(a, b, ApproximantConfig(N=n_steps, merge_tol=0.0))
    order = np.argsort(composition_locations(rows, dec.eigenvalues, n_steps), kind="stable")
    assert len(m) == len(rows)
    np.testing.assert_allclose(m.locations, composition_locations(rows[order], dec.eigenvalues, n_steps), atol=1e-13)
    weights = np.empty_like(m.weights)
    weights[order] = m.weights
    return rows, weights


# A's spectrum with multiplicities, and N: the 3x3 generic spectrum, a repeated eigenvalue, four clusters
TWIST_CASES = [
    ((-1.0, 0.1 * math.sqrt(2.0), 0.4 + 1.0 / math.sqrt(3.0)), (1, 1, 1), 32),
    ((-1.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0)), (2, 1, 1), 24),
    ((0.0, 1.0, math.sqrt(5.0), math.sqrt(7.0) + 1.0), (1, 1, 1, 1), 12),
]


@pytest.mark.parametrize("build, spectrum, multiplicities, n_steps", [
    *[(build_measure_dp, *case) for case in TWIST_CASES],
    (build_measure_bruteforce, *TWIST_CASES[0][:2], 6),
])
@pytest.mark.parametrize("hermitian_b", [True, False])
def test_twisted_adjoint_identity(rng, build, spectrum, multiplicities, n_steps, hermitian_b):
    # W_m(A, B)* = sum_pq E_p W_{m + e_p - e_q}(A, B*) E_q, W zero off the compositions: exact at
    # every N, though the weights themselves are far from Hermitian at finite N
    a = hermitian_with_spectrum(rng, spectrum, multiplicities)
    b = random_hermitian(rng, a.shape[0]) if hermitian_b else random_matrix(rng, a.shape[0])
    rows, weights = _weights_by_composition(build, a, b, n_steps)
    _, twin = _weights_by_composition(build, a, b.conj().T, n_steps)
    index = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    projectors, l = decompose(a).projectors, rows.shape[1]
    want = np.zeros_like(weights)
    for p, q in itertools.product(range(l), repeat=2):
        shifted = rows + np.eye(l, dtype=rows.dtype)[p] - np.eye(l, dtype=rows.dtype)[q]
        found = [(i, index[row]) for i, row in enumerate(map(tuple, shifted.tolist())) if row in index]
        at, source = np.array(found).T
        want[at] += projectors[p] @ twin[source] @ projectors[q]
    adjoint = weights.conj().swapaxes(1, 2)
    assert np.abs(adjoint - want).max() <= 1e-13 * math.exp(operator_norm(b))
    assert np.abs(adjoint - weights).max() > 1e-3  # not passed by Hermitian weights


def _unique_count_rows(l, n_steps):
    """The grouping the coded one replaces: np.unique over the (l**n_steps, l) count rows of every tuple."""
    idx = np.array(list(itertools.product(range(l), repeat=n_steps)))
    counts = np.stack([(idx == j).sum(axis=1) for j in range(l)], axis=1)
    rows, inverse = np.unique(counts, axis=0, return_inverse=True)
    return rows, inverse.reshape(-1)


# cells below 2**63 are int64, so (64, 1) is; (65, 1) and (70, 2) need Python-int cells
@pytest.mark.parametrize("l, n_steps", [(1, 1), (1, 70), (2, 1), (2, 9), (3, 6), (4, 5), (64, 1), (65, 1), (70, 2)])
def test_coded_grouping_matches_unique_count_rows(l, n_steps):
    rows = compositions(n_steps, l)
    dec = decompose(np.diag(np.arange(float(l))))
    _, _, cells, radix = _composition_index(rows, [dec], n_steps)
    assert cells.dtype == (object if (n_steps + 1) ** (l - 1) > 2**63 else np.int64)
    inverse = _tuple_rows(cells, radix, n_steps)
    want_rows, want_inverse = _unique_count_rows(l, n_steps)
    assert rows.dtype == want_rows.dtype and rows.tobytes() == want_rows.tobytes()
    assert inverse.tobytes() == want_inverse.astype(inverse.dtype).tobytes()


def test_bruteforce_forms_no_svd_past_the_hermitian_check(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    a = hermitian_with_spectrum(rng, [-1.0, 0.2, 0.9])
    monkeypatch.setattr(np.linalg, "svd", counted)
    build_measure_bruteforce(a, random_matrix(rng, 3), ApproximantConfig(N=6))
    # both are the Hermitian check of a in its decomposition: ||a - a*|| and ||a||
    assert calls == [(1, 3, 3), (1, 3, 3)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("n_steps", [1, 5, 64])
def test_dp_single_eigenvalue_is_the_sequential_product(rng, n, n_steps):
    # a = c*I has one eigenvalue (l = 1): one atom at c, weight (e^(b/N))^N
    c = 0.75
    b = random_matrix(rng, n)
    cfg = ApproximantConfig(N=n_steps)
    m = build_measure_dp(c * np.eye(n), b, cfg)
    f = matrix_exp(b / n_steps)
    want = np.eye(n, dtype=np.complex128)
    for _ in range(n_steps):
        want = want @ f
    assert m.locations.tolist() == [c]
    assert m.weights.shape == (1, n, n)
    assert operator_norm(m.weights[0] - want) <= 1e-14 * operator_norm(want)
    # the same build twice gives the same bytes
    assert build_measure_dp(c * np.eye(n), b, cfg).weights.tobytes() == m.weights.tobytes()


def test_dp_decomposes_a_once(rng, monkeypatch):
    # the builder works in the eigenbasis that decompose already found
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(1) or eigh(h))
    a, b = random_instance(rng)
    build_measure_dp(a, b, ApproximantConfig(N=4))
    assert len(calls) == 1


@pytest.mark.parametrize("b_norm", [1.0, 5.0, 10.0])
@pytest.mark.parametrize(
    "multiplicities, n_steps", [([4], 8), ([2, 2], 12), ([2, 1, 1], 8), ([1, 1, 1, 1], 6)]
)
def test_dp_tail_accuracy_against_bruteforce(rng, multiplicities, n_steps, b_norm):
    # the interpolation error is absolute, about eps * e^||b||, whatever the
    # size of the weight, so it is bounded on that scale for l = 1..4
    l = len(multiplicities)
    a = hermitian_with_spectrum(rng, spaced_values(rng, l, min_gap=0.5), multiplicities)
    b = scaled_to_norm(random_matrix(rng, 4), b_norm)
    cfg = ApproximantConfig(N=n_steps)
    m_dp = build_measure_dp(a, b, cfg)
    m_bf = build_measure_bruteforce(a, b, cfg)
    assert np.array_equal(m_dp.locations, m_bf.locations)
    assert np.abs(m_dp.weights - m_bf.weights).max() <= 1e-13 * max(1.0, math.exp(b_norm))


def test_colliding_composition_locations_merge(rng):
    # evenly spaced eigenvalues force distinct compositions onto shared points
    a = np.diag([0.0, 1.0, 2.0]).astype(complex)
    b = random_matrix(rng, 3)
    cfg = ApproximantConfig(N=4)
    m_dp = build_measure_dp(a, b, cfg)
    m_bf = build_measure_bruteforce(a, b, cfg)
    assert len(m_dp) == 9  # locations k/4, k = 0..8
    assert np.abs(m_dp.locations - m_bf.locations).max() <= 1e-12
    assert np.abs(m_dp.weights - m_bf.weights).max() <= 1e-10


@pytest.mark.parametrize("gap, n_steps", [(2e-8, 50), (1.5e-8, 30), (5e-8, 64)])
def test_fused_atoms_span_at_most_merge_tol(rng, gap, n_steps):
    # 0 and gap are too far apart to cluster, but compositions that differ only
    # in how they split between them sit gap/N apart: a chain of steps below
    # merge_tol, gap wide, which must not become one atom
    a = hermitian_with_spectrum(rng, np.array([0.0, gap, 1.0]), np.array([1, 1, 1]))
    b = random_matrix(rng, 3, scale=0.5)
    cfg = ApproximantConfig(N=n_steps)
    m = build_measure_dp(a, b, cfg)
    dec = decompose(a)
    assert len(dec) == 3
    tol = cfg.merge_tol * max(1.0, dec.lambda_max - dec.lambda_min)
    candidates = n_convex_hull(dec.eigenvalues, n_steps)
    # an atom no wider than tol sits within tol of each location fused into it
    nearest = np.abs(candidates[:, np.newaxis] - m.locations[np.newaxis, :]).min(axis=1)
    assert nearest.max() <= tol
    assert operator_norm(moment(m, 0) - matrix_exp(b)) <= 1e-10


@seed(20260816)
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.4, 0.5, 0.99, 1.0, 1.01, 3.0]) | st.floats(0.0, 2.0), min_size=1, max_size=40),
    st.floats(1e-9, 1.0),
)
def test_merge_starts_fuses_runs_no_wider_than_tol(gaps, tol):
    locs = np.cumsum(gaps) * tol
    starts = _merge_starts(locs, tol)
    ends = np.append(starts[1:], locs.size)
    assert starts[0] == 0 and np.all(ends > starts)
    for first, end in zip(starts, ends):
        assert locs[end - 1] - locs[first] <= tol  # no atom spans more than tol
        if end < locs.size:
            assert locs[end] - locs[first] > tol  # an atom takes every location it can
    # where no run of neighbours within tol is wider than tol, the plain gap rule stands
    breaks = np.concatenate(([0], np.flatnonzero(np.diff(locs) > tol) + 1))
    lasts = np.append(breaks[1:], locs.size) - 1
    if np.all(locs[lasts] - locs[breaks] <= tol):
        assert np.array_equal(starts, breaks)


def test_transform_identity_random(rng):
    for _ in range(5):
        a, b = random_instance(rng)
        n_steps = int(rng.integers(2, 9))
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        for t in (-1.0, 0.3, 1.0, 1j):
            ln = lie_approximant(a, b, t, n_steps)
            err = operator_norm(laplace_transform(m, t) - ln)
            assert err <= 1e-9 * max(1.0, operator_norm(ln))


def test_support_and_mass(rng):
    for _ in range(5):
        a, b = random_instance(rng)
        n_steps = int(rng.integers(1, 9))
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        dec = decompose(a)
        lo, hi = support_interval(m)
        assert lo >= dec.lambda_min - 1e-12 and hi <= dec.lambda_max + 1e-12
        hull = n_convex_hull(dec.eigenvalues, n_steps)
        gaps = np.abs(m.locations[:, np.newaxis] - hull[np.newaxis, :]).min(axis=1)
        assert gaps.max() <= 1e-12
        assert operator_norm(moment(m, 0) - matrix_exp(b)) <= 1e-10


def test_commuting_pair_collapses_to_spectral_atoms(rng):
    a, b = commuting_hermitian_pair(rng, 3, scale=1.2)
    m = build_measure_dp(a, b, ApproximantConfig(N=6))
    ref = commuting_case_measure(a, b)
    for lam, w in zip(ref.locations, ref.weights):
        k = int(np.abs(m.locations - lam).argmin())
        assert abs(m.locations[k] - lam) <= 1e-9
        assert np.abs(m.weights[k] - w).max() <= 1e-10
    for t in (-1.0, 0.5, 1.0):
        truth = matrix_exp(t * a + b)
        assert operator_norm(laplace_transform(m, t) - truth) <= 1e-10


def test_builders_reject_non_hermitian_a(rng):
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        build_measure_dp(bad, np.eye(2, dtype=complex), ApproximantConfig(N=2))


def test_enumeration_guard_trips(rng):
    # 3 distinct eigenvalues: 3**40 index tuples, far over the byte budget
    a = hermitian_with_spectrum(rng, spaced_values(rng, 3, min_gap=0.3))
    b = random_matrix(rng, 3)
    with pytest.raises(ResourceLimitError, match=r"3\*\*40 "):
        build_measure_bruteforce(a, b, ApproximantConfig(N=40))


def test_state_guard_trips(rng):
    # 3 distinct eigenvalues: 5001**2 grid points of 144 bytes, over the 2 GiB budget
    a = hermitian_with_spectrum(rng, spaced_values(rng, 3, min_gap=0.3))
    b = random_matrix(rng, 3)
    with pytest.raises(ResourceLimitError, match=r"5001\*\*2 "):
        build_measure_dp(a, b, ApproximantConfig(N=5000))


@pytest.mark.parametrize(
    "case", ["bruteforce", "dp", "tuple-products", "partition-20000", "partition-1e9"]
)
def test_resource_guards_refuse_before_allocating(rng, traced_peak, case):
    # each count is far too large to form, let alone allocate: refused at once
    a = hermitian_with_spectrum(rng, spaced_values(rng, 3, min_gap=0.3))
    b = random_matrix(rng, 3)
    projectors = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    r = np.full((2, 2), 0.5)
    call = {
        "bruteforce": lambda: build_measure_bruteforce(a, b, ApproximantConfig(N=10**9)),
        "dp": lambda: build_measure_dp(a, b, ApproximantConfig(N=10**9)),
        "tuple-products": lambda: tuple_factor_products(np.stack([np.eye(2)] * 3), 10**7),
        "partition-20000": lambda: partition_product_bound(projectors, r, 20000),
        "partition-1e9": lambda: partition_product_bound(projectors, r, 10**9),
    }[case]

    def refuse():
        with pytest.raises(ResourceLimitError):
            call()

    # refusals peaked at 5.6-8.2 KB, the first call of each case included
    assert traced_peak(refuse)[1] < 20 * 2**10


def test_config_validation():
    with pytest.raises(ValueError):
        ApproximantConfig(N=0)
    with pytest.raises(ValueError):
        ApproximantConfig(N=2, cluster_tol=-1.0)
