"""Integer arguments: one rule, linalg.as_int, at every entry point that takes one."""

import re

import numpy as np
import pytest

from liemeasure.approximant import ApproximantConfig, compositions, lie_approximant, n_convex_hull
from liemeasure.experiments import convergence_study, exp_curve_derivative
from liemeasure.linalg import as_int, matrix_from_json, tuple_factor_products
from liemeasure.measure import DiscreteMatrixMeasure, measure_from_json, moment
from liemeasure.norms import partition_product_bound, total_variation_bound
from liemeasure.spectral import decompose, scaled_exp
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
