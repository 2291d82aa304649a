"""Discrete matrix measures whose Laplace transforms are Lie product approximants.

For Hermitian A and arbitrary B the N-factor product (e^{tA/N} e^{B/N})^N is
the bilateral Laplace transform of a measure with matrix weights supported on
at most a simplex-worth of points inside the spectral interval of A.  This
package builds those measures, checks the norm and domination inequalities
that control them, and tracks their convergence toward a representation of
e^{tA+B}, including the 2x2 example where the limit fails to be non-negative.

Importing the package before numpy sets OPENBLAS_NUM_THREADS to 1 unless it
is already set: the matrices here are small, and OpenBLAS's worker threads,
which scipy's LU solve wakes even for a 4x4 system, spin between calls.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy and scipy load OpenBLAS

from .approximant import (
    ApproximantConfig,
    build_measure_bruteforce,
    build_measure_dp,
    commuting_case_measure,
    composition_locations,
    compositions,
    lie_approximant,
    n_convex_hull,
)
from .experiments import (
    ConvergencePoint,
    ConvergenceReport,
    CounterexampleResult,
    convergence_study,
    counterexample_demo,
    counterexample_pair,
    default_t_grid,
    stahl_trace_study,
    truth_exponential,
    write_convergence_csv,
    write_convergence_json,
)
from .linalg import (
    ResourceLimitError,
    as_matrix,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    read_matrix,
    write_matrix,
)
from .measure import (
    DiscreteMatrixMeasure,
    hermitian_deviation,
    is_nonnegative_measure,
    laplace_transform,
    measure_from_json,
    measure_to_json,
    moment,
    read_measure,
    support_interval,
    total_variation,
    trace_measure,
    transform_distance,
    write_measure,
    write_trace_csv,
)
from .norms import (
    SubordinationWitness,
    check_exp_monotone,
    is_subordinate,
    norm_majorant,
    partition_product_bound,
    rank_one_exp,
    total_variation_bound,
)
from .spectral import SpectralDecomposition, apply_function, decompose, scaled_exp
from .verify import LemmaResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "ApproximantConfig",
    "ConvergencePoint",
    "ConvergenceReport",
    "CounterexampleResult",
    "DiscreteMatrixMeasure",
    "LemmaResult",
    "ResourceLimitError",
    "SpectralDecomposition",
    "SubordinationWitness",
    "apply_function",
    "as_matrix",
    "build_measure_bruteforce",
    "build_measure_dp",
    "check_exp_monotone",
    "commuting_case_measure",
    "composition_locations",
    "compositions",
    "convergence_study",
    "counterexample_demo",
    "counterexample_pair",
    "decompose",
    "default_t_grid",
    "hermitian_deviation",
    "is_nonnegative_measure",
    "is_subordinate",
    "laplace_transform",
    "lie_approximant",
    "matrix_exp",
    "matrix_from_json",
    "matrix_to_json",
    "measure_from_json",
    "measure_to_json",
    "moment",
    "n_convex_hull",
    "norm_majorant",
    "operator_norm",
    "partition_product_bound",
    "rank_one_exp",
    "read_matrix",
    "read_measure",
    "run_suite",
    "scaled_exp",
    "stahl_trace_study",
    "support_interval",
    "total_variation",
    "total_variation_bound",
    "trace_measure",
    "transform_distance",
    "truth_exponential",
    "write_convergence_csv",
    "write_convergence_json",
    "write_matrix",
    "write_measure",
    "write_trace_csv",
]
