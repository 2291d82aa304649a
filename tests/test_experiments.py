"""Convergence studies and the 2x2 pair with a signed limit weight."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

import liemeasure.experiments as experiments
from liemeasure.approximant import ApproximantConfig, build_measure_dp
from liemeasure.experiments import (
    COUNTEREXAMPLE_SCHEDULE,
    ConvergencePoint,
    check_counterexample_closed_forms,
    convergence_report_to_json,
    convergence_study,
    counterexample_demo,
    counterexample_derivative,
    counterexample_derivative_det,
    counterexample_eigenvalues,
    counterexample_exponential,
    counterexample_pair,
    counterexample_projectors,
    default_t_grid,
    exp_curve_derivative,
    finite_difference_derivative,
    stahl_trace_study,
    truth_exponential,
    write_convergence_csv,
    write_convergence_json,
)
from liemeasure.linalg import batched_operator_norms, matrix_exp, operator_norm, require_hermitian
from liemeasure.measure import moment, transform_distance
from liemeasure.sampling import noncommuting_hermitian_pair, random_hermitian, random_matrix


def test_default_t_grid_contents():
    grid = default_t_grid()
    assert grid.shape == (23,)
    assert grid[0] == -1.0 and grid[20] == 1.0
    assert grid[21] == 1j and grid[22] == -1j
    assert np.abs(np.diff(grid[:21].real) - 0.1).max() <= 1e-15


def test_truth_exponential_matches_expm(rng):
    a = random_hermitian(rng, 3, scale=1.5)
    b = random_matrix(rng, 3)
    for t in (0.0, 1.0, -0.5, 0.3 + 0.2j):
        want = matrix_exp(t * a + b)
        assert operator_norm(truth_exponential(a, b, t) - want) <= 1e-12


@pytest.mark.parametrize("shape", [(), (7,), (2, 3), (0,)])
def test_truth_exponential_on_a_grid_matches_per_point_expm(rng, shape):
    a = random_hermitian(rng, 3, scale=1.5)
    b = random_matrix(rng, 3)
    t = (rng.uniform(-1, 1, shape) + 1j * rng.choice([0.0, 0.5], shape)).astype(complex)
    got = truth_exponential(a, b, t)
    assert got.shape == shape + (3, 3)
    for idx in np.ndindex(shape):
        assert got[idx].tobytes() == scipy.linalg.expm(t[idx] * a + b).tobytes()


def test_truth_exponential_cross_checks_only_real_hermitian_points(rng):
    a = random_hermitian(rng, 3)
    h = random_hermitian(rng, 3)
    grid = np.array([0.5, -1.0, 1j])
    # a negative tolerance fails every point the cross-check visits
    with pytest.raises(RuntimeError, match=r"^exponential cross-check failed: spectral vs series gap "):
        truth_exponential(a, h, grid, cross_tol=-1.0)
    truth_exponential(a, h, np.array([1j, -2j]), cross_tol=-1.0)  # no real point
    # with a = 0, t*a+b is Hermitian at every t, but only real t are cross-checked
    truth_exponential(np.zeros((3, 3)), h, np.array([1j, -2j]), cross_tol=-1.0)
    truth_exponential(a, random_matrix(rng, 3), grid, cross_tol=-1.0)  # t*a+b not Hermitian
    with pytest.raises(ValueError, match="finite"):
        truth_exponential(a, h, np.array([0.0, np.nan]))


def test_truth_cross_check_names_the_largest_gap_over_every_slab(rng, monkeypatch):
    # slabs of 16 points: the 101 real points of the grid take seven, in ascending order of
    # their gaps, so the largest gap lies in the last slab
    a = random_hermitian(rng, 3)
    h = random_hermitian(rng, 3)
    grid = np.linspace(-1.0, 1.0, 101)
    x = grid[:, np.newaxis, np.newaxis] * a + h
    w, v = np.linalg.eigh((x + x.conj().swapaxes(1, 2)) / 2.0)
    gaps = batched_operator_norms(scipy.linalg.expm(x) - (v * np.exp(w)[:, np.newaxis, :]) @ v.conj().swapaxes(1, 2))
    grid = grid[np.argsort(gaps)]
    whole = truth_exponential(a, h, grid)
    monkeypatch.setattr(experiments, "_SLAB_BYTES", 16 * 16 * 9)
    assert truth_exponential(a, h, grid).tobytes() == whole.tobytes()
    message = rf"^exponential cross-check failed: spectral vs series gap {gaps.max():.3e}$"
    with pytest.raises(RuntimeError, match=message):
        truth_exponential(a, h, grid, cross_tol=-1.0)


def test_exp_curve_derivative_order_zero_is_exp_b(rng):
    a = random_hermitian(rng, 3)
    b = random_matrix(rng, 3)
    assert operator_norm(exp_curve_derivative(a, b, 0) - matrix_exp(b)) <= 1e-12


def test_exp_curve_derivative_against_finite_differences(rng):
    a = random_hermitian(rng, 3, scale=1.0)
    b = random_matrix(rng, 3, scale=1.0)
    d1 = exp_curve_derivative(a, b, 1)
    fd1 = finite_difference_derivative(a, b)
    assert operator_norm(d1 - fd1) <= 1e-7
    # second order: central second difference as an independent check
    h = 1e-3
    fd2 = (
        truth_exponential(a, b, h) - 2 * truth_exponential(a, b, 0.0)
        + truth_exponential(a, b, -h)
    ) / h**2
    assert operator_norm(exp_curve_derivative(a, b, 2) - fd2) <= 1e-5


def test_exp_curve_derivative_rejects_bad_order(rng):
    a = random_hermitian(rng, 2)
    with pytest.raises(ValueError):
        exp_curve_derivative(a, a, -1)


def test_closed_forms_match_spectral_module():
    assert check_counterexample_closed_forms() <= 1e-12


def test_counterexample_eigensystem_values():
    lam_p, lam_m = counterexample_eigenvalues(1.0)
    s = math.sqrt(2.0)
    assert lam_p == pytest.approx(1.0 + s, abs=1e-15)
    assert lam_m == pytest.approx(1.0 - s, abs=1e-15)
    e_p, e_m = counterexample_projectors(0.0)
    assert np.abs(e_p - 0.5 * np.array([[1, 1], [1, 1]])).max() <= 1e-15
    assert np.abs(e_m - 0.5 * np.array([[1, -1], [-1, 1]])).max() <= 1e-15
    a, b = counterexample_pair()
    got = counterexample_exponential(0.7)
    assert operator_norm(got - matrix_exp(0.7 * a + b)) <= 1e-13


def test_counterexample_derivative_frozen_values():
    d = counterexample_derivative()
    want = np.array([[math.e, math.sinh(1.0)], [math.sinh(1.0), 1.0 / math.e]])
    assert np.abs(d - want).max() == 0.0
    det = counterexample_derivative_det()
    assert det == pytest.approx(-0.38109784554181581, abs=1e-15)
    assert det == pytest.approx(float(np.linalg.det(d)), abs=1e-14)
    # D is the slope at t = 0 of the exponential curve itself
    a, b = counterexample_pair()
    assert operator_norm(d - exp_curve_derivative(a, b, 1)) <= 1e-12


def test_counterexample_demo_moments_close_in_on_d():
    res = counterexample_demo((16, 32, 64))
    assert res.det_d < 0 and not res.psd
    assert res.eigs_of_d[0] < 0 < res.eigs_of_d[1]
    errs = [err for _, _, err in res.moment1_by_n]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    for n_steps, m1, err in res.moment1_by_n:
        assert float(np.linalg.det(m1).real) < 0.0
        assert err == pytest.approx(
            operator_norm(m1 - res.d_matrix), abs=1e-14
        )
    assert res.onset_negative_det == 16


def test_counterexample_demo_default_schedule():
    assert COUNTEREXAMPLE_SCHEDULE[0] == 16 and COUNTEREXAMPLE_SCHEDULE[-1] == 512


def test_convergence_study_on_signed_pair(signed_limit_pair):
    a, b = signed_limit_pair
    report = convergence_study(a, b, (4, 8, 16, 32))
    errs = [p.max_transform_err for p in report.points]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert -1.3 <= report.rate_estimate <= -0.7
    for p in report.points:
        assert p.moment0_err <= 1e-10
    assert report.points[0].cauchy_distance is not None
    assert report.points[-1].cauchy_distance is None  # 64 not in the schedule


@pytest.mark.parametrize("grid", [None, np.array([-0.8, 0.0, 0.25, 1.0, 0.5j, -0.5j])])
def test_cauchy_distance_is_the_transform_distance_of_separate_builds(rng, grid):
    a, b = noncommuting_hermitian_pair(rng, 3)
    a = require_hermitian(a)  # the study's own copy of a
    sched = (4, 6, 8, 12, 16, 32)
    report = convergence_study(a, b, sched, t_grid=grid)
    t = default_t_grid() if grid is None else grid
    for p in report.points:
        if 2 * p.N not in sched:
            assert p.cauchy_distance is None
            continue
        m, m2 = (build_measure_dp(a, b, ApproximantConfig(N=n)) for n in (p.N, 2 * p.N))
        assert p.cauchy_distance == transform_distance(m, m2, t)
    assert [p.cauchy_distance is None for p in report.points] == [False, False, False, True, False, True]


def test_convergence_study_moment_errors_shrink(signed_limit_pair):
    a, b = signed_limit_pair
    report = convergence_study(a, b, (8, 32))
    first, last = report.points
    assert last.moment1_err < first.moment1_err
    assert last.moment2_err < first.moment2_err
    assert last.hermitian_dev < first.hermitian_dev


def test_convergence_study_rejects_bad_schedule(signed_limit_pair):
    a, b = signed_limit_pair
    with pytest.raises(ValueError):
        convergence_study(a, b, (8, 8))
    with pytest.raises(ValueError):
        convergence_study(a, b, ())


def test_stahl_trace_study_errors_shrink(rng):
    a, b = noncommuting_hermitian_pair(rng, 3)
    report = stahl_trace_study(a, b, (4, 16, 64))
    errs = [p.max_scalar_err for p in report.points]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_stahl_trace_study_zero_b_counts_multiplicities(rng):
    # b = 0 leaves tr E_j = multiplicity at each eigenvalue, a probability-like
    # non-negative trace measure up to roundoff dust elsewhere
    a = np.diag([1.0, 1.0, 3.0]).astype(complex)
    report = stahl_trace_study(a, np.zeros((3, 3), dtype=complex), (4,))
    assert report.points[0].max_scalar_err <= 1e-10
    assert report.points[0].min_atom_real >= -1e-12


def test_write_convergence_csv(tmp_path, signed_limit_pair):
    a, b = signed_limit_pair
    report = convergence_study(a, b, (4, 8))
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "N,max_transform_err,total_variation,hermitian_dev,"
        "moment0_err,moment1_err,moment2_err"
    )
    assert len(lines) == 3
    assert lines[1].startswith("4,") and lines[2].startswith("8,")
    # the point's fields are the columns, but for the Cauchy distance, which may be None
    names = [f.name for f in fields(ConvergencePoint)]
    assert lines[0].split(",") == names[:-1] and names[-1] == "cauchy_distance"


def test_convergence_json_round_trip(tmp_path, signed_limit_pair):
    a, b = signed_limit_pair
    report = convergence_study(a, b, (4, 8))
    path = tmp_path / "conv.json"
    write_convergence_json(path, report)
    obj = json.loads(path.read_text())
    assert obj == convergence_report_to_json(report)
    assert [p["N"] for p in obj["points"]] == [4, 8]
    assert "rate_estimate" in obj
    assert "cauchy_distance" in obj["points"][0]
    assert all(list(p) == [f.name for f in fields(ConvergencePoint)] for p in obj["points"])


def test_the_report_writes_a_step_count_float64_cannot_hold(tmp_path):
    # a one-cluster pair builds at any N; 2**53 + 1 would print as ...992 through a float
    a, b = 0.5 * np.eye(2), np.array([[0.1, 0.2], [0.0, -0.3]])
    report = convergence_study(a, b, (4, 2**53 + 1))
    write_convergence_csv(tmp_path / "conv.csv", report)
    assert (tmp_path / "conv.csv").read_text().splitlines()[2].startswith("9007199254740993,")
    write_convergence_json(tmp_path / "conv.json", report)
    assert json.loads((tmp_path / "conv.json").read_text())["points"][1]["N"] == 2**53 + 1


def test_moment_convergence_and_measure_agree(signed_limit_pair):
    # the study's reported first-moment error is the measure's own
    a, b = signed_limit_pair
    report = convergence_study(a, b, (8,))
    m = build_measure_dp(a, b, ApproximantConfig(N=8))
    direct = operator_norm(moment(m, 1) - exp_curve_derivative(a, b, 1))
    assert report.points[0].moment1_err == pytest.approx(direct, rel=1e-12)
