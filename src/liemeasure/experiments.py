"""Convergence studies, trace diagnostics, and the 2x2 non-negativity counterexample.

As the step count N grows, L_N(t) converges to e^(ta+b) and the measures M_N
converge weakly to a representing measure M for it. The studies here measure
that convergence. The counterexample pair a = diag(2, 0), b = [[0,1],[1,0]]
shows the limit measure need not be non-negative: its first moment D, the
derivative of e^(ta+b) at t = 0, has negative determinant, while the traced
(scalar) measure stays non-negative.
"""

import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np
import scipy.linalg

from .approximant import MERGE_TOL, ApproximantConfig, _lie_peak_bytes, build_measure_dp, lie_approximant
from .linalg import (
    as_int,
    as_matrix_pair,
    batched_operator_norms,
    canonical_json,
    guarded_count,
    is_psd,
    matrix_exp,
    operator_norm,
    require_hermitian,
)
from .measure import (
    _CHUNK_NUMBERS,
    _transform_peak_bytes,
    _write_rows,
    hermitian_deviation,
    laplace_transform,
    moment,
    total_variation,
    trace_measure,
)
from .spectral import CLUSTER_TOL, decompose

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
    """e^(t*a+b) at a scalar t or at every point of an array t, shape t.shape + (n, n).

    One stacked scipy expm covers the grid. At the real points where t*a+b is
    Hermitian, one stacked eigh cross-checks it against V diag(e^w) V*.
    Refused, before allocating, when _truth_peak_bytes of the grid exceeds
    linalg.BYTE_BUDGET.
    """
    am, bm = as_matrix_pair(a, b)
    t = np.asarray(t, dtype=np.complex128)
    guarded_count("t-grid points", t.size, 1, peak_bytes=lambda points: _truth_peak_bytes(points, am.shape[0]))
    x = t[..., np.newaxis, np.newaxis] * am + bm
    if not np.isfinite(x).all():
        raise ValueError("t*a+b: entries must be finite")
    direct = scipy.linalg.expm(x)
    xs, es = x[t.imag == 0.0], direct[t.imag == 0.0]  # the real points, as (R, n, n)
    hermitian = batched_operator_norms(xs - _adjoints(xs)) <= 1e-12 * np.maximum(
        1.0, batched_operator_norms(xs)
    )
    xs, es = xs[hermitian], es[hermitian]
    w, v = np.linalg.eigh((xs + _adjoints(xs)) / 2.0)
    gaps = batched_operator_norms(es - (v * np.exp(w)[:, np.newaxis, :]) @ _adjoints(v))
    failed = gaps > cross_tol * np.maximum(1.0, batched_operator_norms(es))
    if failed.any():
        raise RuntimeError(
            f"exponential cross-check failed: spectral vs series gap {gaps[failed].max():.3e}"
        )
    return direct


def _truth_peak_bytes(points: int, n: int) -> int:
    """Predicted peak bytes of truth_exponential on a grid of `points`."""
    # eight (n, n) matrices a point at the cross-check: t*a+b, e^(t*a+b), their copies
    # at the Hermitian points, the eigenvectors and three temporaries; one more as
    # slack; and t, the eigenvalues and the per-point norms
    return 16 * points * (9 * n * n + n + 6)


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def exp_curve_derivative(a, b, order: int) -> np.ndarray:
    """d^order/dt^order e^(t*a+b) at t = 0, via a block upper-bidiagonal exponential.

    The exponential of the (order+1) x (order+1) block matrix with b on the
    diagonal and a on the superdiagonal carries (1/order!) times this
    derivative in its upper-right block.
    """
    am, bm = as_matrix_pair(a, b)
    order = as_int(order, "order", 0)
    n = am.shape[0]
    m = order + 1
    big = np.zeros((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        big[i * n : (i + 1) * n, i * n : (i + 1) * n] = bm
        if i + 1 < m:
            big[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = am
    return math.factorial(order) * matrix_exp(big)[:n, (m - 1) * n :]


def finite_difference_derivative(a, b) -> np.ndarray:
    """Central difference (e^(h*a+b) - e^(-h*a+b)) / (2h), h = 1e-4, for d/dt e^(ta+b) at 0."""
    h = 1e-4
    am, bm = as_matrix_pair(a, b)
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
    sched = tuple(as_int(n, f"schedule[{i}]") for i, n in enumerate(n_schedule))
    if not sched or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be non-empty and strictly increasing")
    return sched


def convergence_study(
    a,
    b,
    n_schedule,
    t_grid=None,
    cluster_tol: float = CLUSTER_TOL,
    merge_tol: float = MERGE_TOL,
) -> ConvergenceReport:
    """Measure the approach of L_N and M_N to e^(ta+b) and its derivatives at 0.

    One measure is alive at a time: each M_N is freed before the next build.
    The Cauchy distance from M_N to M_2N is taken from their transforms on the
    grid; M_N's is kept only until M_2N's has taken the distance. Refused,
    before allocating, when _study_peak_bytes of the grid exceeds
    linalg.BYTE_BUDGET; each build guards its own measure.
    """
    sched = _check_schedule(n_schedule)
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=np.complex128).ravel()
    if grid.size == 0:
        raise ValueError("t_grid must be non-empty")
    am, bm = as_matrix_pair(a, b)
    ah = require_hermitian(am, name="a")
    doubled = {n for n in sched if 2 * n in sched}
    # transforms alive as the build of N starts: those of the M < N whose 2M is not yet built
    kept = max(sum(m < n <= 2 * m for m in doubled) for n in sched)
    guarded_count("t-grid points", grid.size, 1,
                  peak_bytes=lambda points: _study_peak_bytes(points, am.shape[0], kept))
    truths = truth_exponential(ah, bm, grid)
    d_truth = np.stack([exp_curve_derivative(ah, bm, k) for k in range(3)])

    paired = doubled | {2 * n for n in doubled}
    transforms: dict[int, np.ndarray] = {}
    points = []
    for n_steps in sched:
        m = build_measure_dp(ah, bm, ApproximantConfig(n_steps, cluster_tol, merge_tol))
        err = float(batched_operator_norms(lie_approximant(ah, bm, grid, n_steps) - truths).max())
        moments = np.stack([moment(m, k) for k in range(3)])
        mom_err = [float(e) for e in batched_operator_norms(moments - d_truth)]
        points.append(ConvergencePoint(n_steps, err, total_variation(m), hermitian_deviation(m), *mom_err))
        if n_steps in paired:
            values = laplace_transform(m, grid)
            if n_steps % 2 == 0 and n_steps // 2 in transforms:
                # transform_distance of M_N/2 and M_N, from their transforms on the grid
                i = sched.index(n_steps // 2)
                distance = float(batched_operator_norms(transforms.pop(n_steps // 2) - values).max())
                points[i] = replace(points[i], cauchy_distance=distance)
            if n_steps in doubled:
                transforms[n_steps] = values
            del values
        del m  # before the next build

    errs = np.array([max(p.max_transform_err, 1e-300) for p in points])
    if len(sched) >= 2:
        slope = float(np.polyfit(np.log(np.array(sched, dtype=float)), np.log(errs), 1)[0])
    else:
        slope = 0.0
    return ConvergenceReport(sched, points, slope)


def _study_peak_bytes(points: int, n: int, kept: int) -> int:
    """Predicted peak bytes of convergence_study's arrays on a grid of `points`, `kept` transforms kept at most.

    The truths stay alive throughout; e^(ta+b) peaks alone, and each build adds
    to the kept transforms lie_approximant's peak, or a transform and its
    difference from the kept one. The transform's coefficients take at most
    60 * _CHUNK_NUMBERS bytes for a measure of up to _CHUNK_NUMBERS / 2
    atoms; a larger measure's are left to laplace_transform's own guard.
    """
    grid = 16 * points * n * n
    transform = _transform_peak_bytes(points, 0, n) + 60 * _CHUNK_NUMBERS + grid
    return max(_truth_peak_bytes(points, n), grid * (1 + kept) + max(_lie_peak_bytes(points, n), transform))


@dataclass(frozen=True)
class TracePoint:
    N: int
    max_scalar_err: float
    min_atom_real: float


@dataclass(frozen=True)
class StahlTraceReport:
    n_schedule: tuple[int, ...]
    points: list[TracePoint] = field(default_factory=list)


def stahl_trace_study(a, b, n_schedule) -> StahlTraceReport:
    """Trace the measures of a Hermitian pair and compare against tr e^(ta+b) on default_t_grid().

    Diagnostic only: reports how far each traced transform sits from the true
    trace and the most negative atom of the traced measure.
    """
    sched = _check_schedule(n_schedule)
    grid = default_t_grid()
    ah = require_hermitian(a, name="a")
    bh = require_hermitian(b, name="b")
    truths = np.trace(truth_exponential(ah, bh, grid), axis1=-2, axis2=-1)
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


def check_counterexample_closed_forms() -> float:
    """Worst gap between the closed-form eigensystem and a spectral decomposition, t in {-1, -1/4, 0, 1/2, 1, 2}."""
    a, b = counterexample_pair()
    worst = 0.0
    for t in (-1.0, -0.25, 0.0, 0.5, 1.0, 2.0):
        dec = decompose(t * a + b)
        lam_p, lam_m = counterexample_eigenvalues(t)
        e_p, e_m = counterexample_projectors(t)
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

def write_convergence_csv(path, report: ConvergenceReport) -> None:
    """The report's points as CSV, one row per N, with every field of ConvergencePoint but cauchy_distance.

    N is written as the exact integer, every other column at 17 significant digits.
    """
    names = [f.name for f in fields(ConvergencePoint)][:-1]  # the last, cauchy_distance, may be None
    rows = np.array([astuple(p)[:-1] for p in report.points], dtype=object).reshape(-1, len(names))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(names) + "\n")
        _write_rows(fh, "%d" + ",%.17g" * (len(names) - 1) + "\n", [rows])


def convergence_report_to_json(report: ConvergenceReport) -> dict:
    return {
        "n_schedule": list(report.n_schedule),
        "points": [asdict(p) for p in report.points],
        "rate_estimate": report.rate_estimate,
    }


def write_convergence_json(path, report: ConvergenceReport) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(convergence_report_to_json(report)) + "\n")
