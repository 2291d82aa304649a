"""Integer, tolerance and array arguments: one rule each, at every entry point that takes one.

linalg.as_int checks integers, linalg._check_tol tolerances, and linalg._as_axis
and linalg._as_square the arrays of DiscreteMatrixMeasure and SpectralDecomposition.
"""

import math
import re

import numpy as np
import pytest

from liemeasure.approximant import (
    ApproximantConfig,
    commuting_case_measure,
    compositions,
    lie_approximant,
    n_convex_hull,
)
from liemeasure.experiments import convergence_study, exp_curve_derivative
from liemeasure.linalg import as_int, matrix_from_json, tuple_factor_products
from liemeasure.measure import DiscreteMatrixMeasure, measure_from_json, moment
from liemeasure.norms import partition_product_bound, total_variation_bound
from liemeasure.spectral import SpectralDecomposition, decompose, scaled_exp
from liemeasure.verify import run_suite

_A = np.diag([1.0, -1.0]).astype(complex)
_B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_MEASURE = DiscreteMatrixMeasure(np.array([0.0, 1.0]), np.stack([np.eye(2), np.eye(2)]).astype(complex))

# (entry point of one integer argument, the name its refusal gives, the smallest value it takes)
_ENTRY_POINTS = {
    "ApproximantConfig.N": (lambda v: ApproximantConfig(N=v), "N", 1),
    "compositions.total": (lambda v: compositions(v, 2), "total", 0),
    "compositions.parts": (lambda v: compositions(3, v), "parts", 1),
    "n_convex_hull": (lambda v: n_convex_hull([0.0, 1.0], v), "n_steps", 1),
    "lie_approximant": (lambda v: lie_approximant(_A, _B, 0.5, v), "n_steps", 1),
    "exp_curve_derivative": (lambda v: exp_curve_derivative(_A, _B, v), "order", 0),
    "convergence_study": (lambda v: convergence_study(_A, _B, [v, 8]), "schedule[0]", 1),
    "tuple_factor_products": (lambda v: tuple_factor_products(np.stack([_A, _B]), v), "count", 1),
    "matrix_from_json": (lambda v: matrix_from_json({"n": v, "re": [[1.0]]}), 'matrix JSON: "n"', 1),
    "moment": (lambda v: moment(_MEASURE, v), "moment order k", 0),
    "DiscreteMatrixMeasure.N": (lambda v: DiscreteMatrixMeasure(np.zeros(0), np.zeros((0, 1, 1)), N=v), "N", 1),
    "measure_from_json.n": (lambda v: measure_from_json({"n": v, "N": None, "atoms": []}), 'measure JSON: "n"', 1),
    "measure_from_json.N": (lambda v: measure_from_json({"n": 2, "N": v, "atoms": []}), 'measure JSON: "N"', 1),
    "partition_product_bound": (lambda v: partition_product_bound([np.eye(2)], np.ones((2, 2)), v), "count", 1),
    "total_variation_bound": (lambda v: total_variation_bound(v, _B), "n", 1),
    "scaled_exp": (lambda v: scaled_exp(decompose(_A), 0.5, v), "scale", 1),
    "run_suite.trials": (lambda v: run_suite("all", v, 1), "trials", 1),
    "run_suite.max_dim": (lambda v: run_suite("all", 1, 1, max_dim=v), "max_dim", 2),
}


@pytest.mark.parametrize("bad", [True, 2.5, "3", "below"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_integer_arguments_refuse_non_integers_and_small_values(entry, bad):
    call, name, minimum = _ENTRY_POINTS[entry]
    value = minimum - 1 if bad == "below" else bad
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be ") as info:
        call(value)
    want = f"at least {minimum}" if bad == "below" else f"an integer, got {value!r}"
    assert want in str(info.value)


def test_convergence_study_refuses_a_fractional_step_count():
    # 4.5 used to build N = 4
    with pytest.raises(ValueError, match=r"^schedule\[0\] must be an integer, got 4\.5$"):
        convergence_study(_A, _B, [4.5, 8])


def test_as_int():
    for value in (3, np.int64(3), np.uint8(3)):
        got = as_int(value, "k")
        assert got == 3 and type(got) is int
    assert as_int(0, "k", 0) == 0 and as_int(10**30, "k") == 10**30
    for value in (True, np.bool_(True), 3.0, np.float64(3.0), "3", None, [3]):
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            as_int(value, "k")
    with pytest.raises(ValueError, match=r"^k must be at least 1, got 0$"):
        as_int(0, "k")
    with pytest.raises(ValueError, match=r"^k must be at least 2 in context, got 1$"):
        as_int(1, "k", 2, " in context")


# (entry point of one tolerance, the name its refusal gives)
_TOLERANCES = {
    "ApproximantConfig.cluster_tol": (lambda v: ApproximantConfig(N=4, cluster_tol=v), "cluster_tol"),
    "ApproximantConfig.merge_tol": (lambda v: ApproximantConfig(N=4, merge_tol=v), "merge_tol"),
    "decompose": (lambda v: decompose(_A, cluster_tol=v), "cluster_tol"),
    "commuting_case_measure": (lambda v: commuting_case_measure(_A, _B, cluster_tol=v), "cluster_tol"),
    "convergence_study.merge_tol": (lambda v: convergence_study(_A, _B, [2], merge_tol=v), "merge_tol"),
}


@pytest.mark.parametrize("bad", [True, "x", None, math.nan, -1e-9, np.array(1e-9)])
@pytest.mark.parametrize("entry", list(_TOLERANCES))
def test_tolerances_refuse_non_numbers_nan_and_negative_values(entry, bad):
    call, name = _TOLERANCES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative real number, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("good", [0, 0.0, 1e-9, np.float64(1e-9), np.float32(1e-9), 2, math.inf])
@pytest.mark.parametrize("entry", list(_TOLERANCES))
def test_tolerances_take_every_real_number_at_least_zero(entry, good):
    _TOLERANCES[entry][0](good)


_I2 = np.eye(2)
# (container call of one array field, a value of that field it takes)
_ARRAY_FIELDS = {
    "locations": (lambda v: DiscreteMatrixMeasure(v, np.stack([_I2, _I2])), [0.0, 1.0]),
    "weights": (lambda v: DiscreteMatrixMeasure(np.array([0.0, 1.0]), v), np.stack([_I2, _I2])),
    "eigenvalues": (lambda v: SpectralDecomposition(v, _I2, np.array([0, 1])), [0.0, 1.0]),
    "vectors": (lambda v: SpectralDecomposition(np.array([0.0, 1.0]), v, np.array([0, 1])), _I2),
}
_AXES = ("locations", "eigenvalues")
# (field, bad value, the problem its refusal names after "<field>: ")
_ARRAY_REFUSALS = [
    *[(f, [0.0, bad], "entries must be finite") for f in _AXES for bad in (np.nan, np.inf)],
    *[(f, [[0.0, 1.0]], "expected a 1-D array") for f in _AXES],
    *[(f, [1.0, 1.0], "entries must be strictly increasing") for f in _AXES],
    *[(f, [1.0, 0.0], "entries must be strictly increasing") for f in _AXES],
    ("eigenvalues", [], "expected a 1-D array of length >= 1, got shape (0,)"),
    ("weights", np.stack([_I2, [[1.0, np.nan], [0.0, 1.0]]]), "entries must be finite"),
    ("weights", np.stack([_I2, [[1.0, complex(0.0, np.inf)], [0.0, 1.0]]]), "entries must be finite"),
    ("weights", np.ones((2, 2, 3)), "expected a (k, n, n) stack"),
    ("weights", _I2, "expected a (k, n, n) stack"),
    ("weights", np.zeros((2, 0, 0)), "expected a (k, n, n) stack"),
    ("vectors", [[1.0, np.inf], [0.0, 1.0]], "entries must be finite"),
    ("vectors", np.ones((2, 3)), "expected a square matrix"),
    ("vectors", np.ones((1, 2, 2)), "expected a square matrix"),
]


@pytest.mark.parametrize("field, bad, problem", _ARRAY_REFUSALS)
def test_container_arrays_refuse_what_breaks_their_rule(field, bad, problem):
    call, good = _ARRAY_FIELDS[field]
    call(good)
    with pytest.raises(ValueError, match=f"^{field}: {re.escape(problem)}"):
        call(bad)


def test_every_container_array_field_has_each_refusal():
    for field in _ARRAY_FIELDS:
        problems = {problem for f, _, problem in _ARRAY_REFUSALS if f == field}
        assert "entries must be finite" in problems and any(p.startswith("expected a") for p in problems)
        if field in _AXES:
            assert "entries must be strictly increasing" in problems


def test_an_empty_measure_builds_and_keeps_its_dimension():
    m = DiscreteMatrixMeasure(np.zeros(0), np.zeros((0, 3, 3)))
    assert len(m) == 0 and m.dim == 3
    assert not m.locations.flags.writeable and not m.weights.flags.writeable
    with pytest.raises(ValueError, match=r"^locations and weights disagree on the atom count$"):
        DiscreteMatrixMeasure(np.zeros(1), np.zeros((0, 3, 3)))
