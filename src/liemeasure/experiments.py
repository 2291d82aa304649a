"""Convergence studies, trace diagnostics, and the 2x2 non-negativity counterexample.

As the step count N grows, L_N(t) converges to e^(ta+b) and the measures M_N
converge weakly to a representing measure M for it. The studies here measure
that convergence. The counterexample pair a = diag(2, 0), b = [[0,1],[1,0]]
shows the limit measure need not be non-negative: its first moment D, the
derivative of e^(ta+b) at t = 0, has negative determinant, while the traced
(scalar) measure stays non-negative.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .approximant import ApproximantConfig, build_measure_dp, lie_approximant
from .linalg import (
    as_matrix,
    batched_operator_norms,
    canonical_json,
    hermitian_defect,
    is_psd,
    matrix_exp,
    operator_norm,
    require_hermitian,
)
from .measure import (
    DiscreteMatrixMeasure,
    hermitian_deviation,
    laplace_transform,
    moment,
    total_variation,
    trace_measure,
    transform_distance,
)
from .spectral import decompose, apply_function

__all__ = [
    "DEFAULT_SCHEDULE",
    "COUNTEREXAMPLE_SCHEDULE",
    "default_t_grid",
    "truth_exponential",
    "exp_curve_derivative",
    "finite_difference_derivative",
    "ConvergencePoint",
    "ConvergenceReport",
    "convergence_study",
    "TracePoint",
    "StahlTraceReport",
    "stahl_trace_study",
    "counterexample_pair",
    "counterexample_eigenvalues",
    "counterexample_projectors",
    "counterexample_exponential",
    "counterexample_derivative",
    "counterexample_derivative_det",
    "check_counterexample_closed_forms",
    "CounterexampleResult",
    "counterexample_demo",
    "write_convergence_csv",
    "convergence_report_to_json",
    "write_convergence_json",
]

DEFAULT_SCHEDULE = (4, 8, 16, 32, 64, 128, 256, 512)
COUNTEREXAMPLE_SCHEDULE = (16, 32, 64, 128, 256, 512)


def default_t_grid() -> np.ndarray:
    """21 uniform real points on [-1, 1] plus +i and -i."""
    real = np.linspace(-1.0, 1.0, 21).astype(complex)
    return np.concatenate([real, [1j, -1j]])


def truth_exponential(a, b, t, cross_tol: float = 1e-11) -> np.ndarray:
    """e^(t*a+b), cross-checked against the spectral route when t*a+b is Hermitian."""
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    t = complex(t)
    x = t * am + bm
    direct = matrix_exp(x)
    if t.imag == 0.0 and hermitian_defect(x) <= 1e-12 * max(1.0, operator_norm(x)):
        spectral_route = apply_function(decompose(x), math.exp)
        gap = operator_norm(direct - spectral_route)
        if gap > cross_tol * max(1.0, operator_norm(direct)):
            raise RuntimeError(
                f"exponential cross-check failed: spectral vs series gap {gap:.3e}"
            )
    return direct


def exp_curve_derivative(a, b, order: int) -> np.ndarray:
    """d^order/dt^order e^(t*a+b) at t = 0, via a block upper-bidiagonal exponential.

    The exponential of the (order+1) x (order+1) block matrix with b on the
    diagonal and a on the superdiagonal carries (1/order!) times this
    derivative in its upper-right block.
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError("a and b must have the same dimension")
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError("order must be a non-negative integer")
    n = am.shape[0]
    m = order + 1
    big = np.zeros((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        big[i * n : (i + 1) * n, i * n : (i + 1) * n] = bm
        if i + 1 < m:
            big[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = am
    return math.factorial(order) * matrix_exp(big)[:n, (m - 1) * n :]


def finite_difference_derivative(a, b, h: float = 1e-4) -> np.ndarray:
    """Central difference (e^(h*a+b) - e^(-h*a+b)) / (2h) for d/dt e^(ta+b) at 0."""
    if not (h > 0):
        raise ValueError("h must be positive")
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError("a and b must have the same dimension")
    return (matrix_exp(h * am + bm) - matrix_exp(-h * am + bm)) / (2.0 * h)


@dataclass(frozen=True)
class ConvergencePoint:
    N: int
    max_transform_err: float
    total_variation: float
    hermitian_dev: float
    moment0_err: float
    moment1_err: float
    moment2_err: float
    cauchy_distance: float | None = None  # transform distance to the 2N measure


@dataclass(frozen=True)
class ConvergenceReport:
    n_schedule: tuple[int, ...]
    points: list[ConvergencePoint] = field(default_factory=list)
    rate_estimate: float = 0.0


def _check_schedule(n_schedule) -> tuple[int, ...]:
    sched = tuple(int(n) for n in n_schedule)
    if not sched:
        raise ValueError("schedule must be non-empty")
    if any(n < 1 for n in sched) or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly increasing positive integers")
    return sched


def convergence_study(
    a,
    b,
    n_schedule,
    t_grid=None,
    cluster_tol: float = 1e-8,
    merge_tol: float = 1e-9,
) -> ConvergenceReport:
    """Measure the approach of L_N and M_N to e^(ta+b) and its derivatives at 0."""
    sched = _check_schedule(n_schedule)
    grid = default_t_grid() if t_grid is None else np.asarray([complex(t) for t in t_grid])
    if grid.size == 0:
        raise ValueError("t_grid must be non-empty")
    ah = require_hermitian(a, 1e-9, "a")
    bm = as_matrix(b, "b")
    truths = np.stack([truth_exponential(ah, bm, t) for t in grid])
    d_truth = np.stack([exp_curve_derivative(ah, bm, k) for k in range(3)])

    measures: dict[int, DiscreteMatrixMeasure] = {}
    raw = []
    for n_steps in sched:
        cfg = ApproximantConfig(
            N=n_steps, cluster_tol=cluster_tol, merge_tol=merge_tol
        )
        m = build_measure_dp(ah, bm, cfg)
        measures[n_steps] = m
        err = float(batched_operator_norms(lie_approximant(ah, bm, grid, n_steps) - truths).max())
        moments = np.stack([moment(m, k) for k in range(3)])
        mom_err = [float(e) for e in batched_operator_norms(moments - d_truth)]
        raw.append(
            dict(
                N=n_steps,
                max_transform_err=err,
                total_variation=total_variation(m),
                hermitian_dev=hermitian_deviation(m),
                moment0_err=mom_err[0],
                moment1_err=mom_err[1],
                moment2_err=mom_err[2],
            )
        )

    points = []
    for entry in raw:
        twice = 2 * entry["N"]
        cauchy = (
            transform_distance(measures[entry["N"]], measures[twice], grid)
            if twice in measures
            else None
        )
        points.append(ConvergencePoint(cauchy_distance=cauchy, **entry))

    errs = np.array([max(p.max_transform_err, 1e-300) for p in points])
    if len(sched) >= 2:
        slope = float(np.polyfit(np.log(np.array(sched, dtype=float)), np.log(errs), 1)[0])
    else:
        slope = 0.0
    return ConvergenceReport(sched, points, slope)


@dataclass(frozen=True)
class TracePoint:
    N: int
    max_scalar_err: float
    min_atom_real: float


@dataclass(frozen=True)
class StahlTraceReport:
    n_schedule: tuple[int, ...]
    points: list[TracePoint] = field(default_factory=list)


def stahl_trace_study(a, b, n_schedule, t_grid=None) -> StahlTraceReport:
    """Trace the measures of a Hermitian pair and compare against tr e^(ta+b).

    Diagnostic only: reports how far each traced transform sits from the true
    trace and the most negative atom of the traced measure.
    """
    sched = _check_schedule(n_schedule)
    grid = default_t_grid() if t_grid is None else np.asarray([complex(t) for t in t_grid])
    if grid.size == 0:
        raise ValueError("t_grid must be non-empty")
    ah = require_hermitian(a, 1e-9, "a")
    bh = require_hermitian(b, 1e-9, "b")
    truths = np.array([np.trace(truth_exponential(ah, bh, t)) for t in grid])
    points = []
    for n_steps in sched:
        m = build_measure_dp(ah, bh, ApproximantConfig(N=n_steps))
        tm = trace_measure(m)
        err = float(np.abs(laplace_transform(tm, grid)[:, 0, 0] - truths).max())
        points.append(
            TracePoint(n_steps, err, float(tm.weights.real.min()))
        )
    return StahlTraceReport(sched, points)


# ---------------------------------------------------------------------------
# the 2x2 counterexample
# ---------------------------------------------------------------------------

def counterexample_pair() -> tuple[np.ndarray, np.ndarray]:
    """a = diag(2, 0), b = [[0, 1], [1, 0]]."""
    a = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    return a, b


def counterexample_eigenvalues(t: float) -> tuple[float, float]:
    """Eigenvalues t + sqrt(t^2+1) > t - sqrt(t^2+1) of t*a + b."""
    s = math.sqrt(t * t + 1.0)
    return t + s, t - s


def counterexample_projectors(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors of t*a + b for the eigenvalues above, in that order."""
    s = math.sqrt(t * t + 1.0)
    e_plus = np.array(
        [[(s + t) / (2 * s), 1.0 / (2 * s)], [1.0 / (2 * s), (s - t) / (2 * s)]]
    )
    e_minus = np.array(
        [[(s - t) / (2 * s), -1.0 / (2 * s)], [-1.0 / (2 * s), (s + t) / (2 * s)]]
    )
    return e_plus, e_minus


def counterexample_exponential(t: float) -> np.ndarray:
    """e^(t*a+b) from the closed-form eigensystem."""
    lam_p, lam_m = counterexample_eigenvalues(t)
    e_p, e_m = counterexample_projectors(t)
    return math.exp(lam_p) * e_p + math.exp(lam_m) * e_m


def counterexample_derivative() -> np.ndarray:
    """D = d/dt e^(t*a+b) at t = 0: [[e, sinh 1], [sinh 1, 1/e]]."""
    return np.array(
        [[math.e, math.sinh(1.0)], [math.sinh(1.0), 1.0 / math.e]]
    )


def counterexample_derivative_det() -> float:
    """det D = (6 - e^2 - e^(-2)) / 4, negative."""
    return (6.0 - math.exp(2.0) - math.exp(-2.0)) / 4.0


def check_counterexample_closed_forms(t_values=(-1.0, -0.25, 0.0, 0.5, 1.0, 2.0)) -> float:
    """Worst gap between the closed-form eigensystem and a spectral decomposition."""
    a, b = counterexample_pair()
    worst = 0.0
    for t in t_values:
        dec = decompose(float(t) * a + b)
        lam_p, lam_m = counterexample_eigenvalues(float(t))
        e_p, e_m = counterexample_projectors(float(t))
        worst = max(
            worst,
            abs(dec.eigenvalues[0] - lam_m),
            abs(dec.eigenvalues[1] - lam_p),
            float(np.abs(dec.projectors[0] - e_m).max()),
            float(np.abs(dec.projectors[1] - e_p).max()),
        )
    return worst


@dataclass(frozen=True)
class CounterexampleResult:
    d_matrix: np.ndarray
    det_d: float
    eigs_of_d: tuple[float, float]
    psd: bool
    moment1_by_n: list[tuple[int, np.ndarray, float]]
    onset_negative_det: int | None


def counterexample_demo(n_schedule=None) -> CounterexampleResult:
    """Drive the counterexample end to end.

    Checks the closed forms against the spectral module, then follows the
    first moment of M_N toward D along the schedule, recording the error and
    the first N at which the moment's determinant already turns negative.
    """
    sched = _check_schedule(COUNTEREXAMPLE_SCHEDULE if n_schedule is None else n_schedule)
    defect = check_counterexample_closed_forms()
    if defect > 1e-10:
        raise RuntimeError(f"closed-form eigensystem check failed: defect {defect:.3e}")
    a, b = counterexample_pair()
    d = counterexample_derivative()
    det_d = counterexample_derivative_det()
    evs = np.linalg.eigvalsh(d)
    rows = []
    onset = None
    for n_steps in sched:
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        m1 = moment(m, 1)
        err = operator_norm(m1 - d)
        rows.append((n_steps, m1, err))
        if onset is None and float(np.linalg.det(m1).real) < 0.0:
            onset = n_steps
    return CounterexampleResult(
        d_matrix=d,
        det_d=det_d,
        eigs_of_d=(float(evs[0]), float(evs[1])),
        psd=is_psd(d),
        moment1_by_n=rows,
        onset_negative_det=onset,
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = "N,max_transform_err,total_variation,hermitian_dev,moment0_err,moment1_err,moment2_err"


def write_convergence_csv(path, report: ConvergenceReport) -> None:
    lines = [_CSV_HEADER]
    for p in report.points:
        lines.append(
            ",".join(
                [str(p.N)]
                + [
                    f"{v:.17g}"
                    for v in (
                        p.max_transform_err,
                        p.total_variation,
                        p.hermitian_dev,
                        p.moment0_err,
                        p.moment1_err,
                        p.moment2_err,
                    )
                ]
            )
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def convergence_report_to_json(report: ConvergenceReport) -> dict:
    return {
        "n_schedule": list(report.n_schedule),
        "points": [
            {
                "N": p.N,
                "max_transform_err": p.max_transform_err,
                "total_variation": p.total_variation,
                "hermitian_dev": p.hermitian_dev,
                "moment0_err": p.moment0_err,
                "moment1_err": p.moment1_err,
                "moment2_err": p.moment2_err,
                "cauchy_distance": p.cauchy_distance,
            }
            for p in report.points
        ],
        "rate_estimate": report.rate_estimate,
    }


def write_convergence_json(path, report: ConvergenceReport) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(convergence_report_to_json(report)) + "\n")
