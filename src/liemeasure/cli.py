"""Command line front end.

Subcommands: measure, transform, verify, converge, counterexample, plot.
Exit codes: 0 success, 1 usage error, 2 invalid input, 3 resource guard
tripped, 4 verification failure.
"""

import argparse
import functools
import io
import math
import re
import sys

import numpy as np

from .approximant import MERGE_TOL, ApproximantConfig, build_measure_bruteforce, build_measure_dp, lie_approximant
from .experiments import (
    COUNTEREXAMPLE_SCHEDULE,
    DEFAULT_SCHEDULE,
    _check_schedule,
    convergence_study,
    counterexample_demo,
    default_t_grid,
    truth_exponential,
    write_convergence_csv,
    write_convergence_json,
)
from .linalg import (
    LATTICE_LIMIT,
    ResourceLimitError,
    as_matrix_pair,
    batched_operator_norms,
    canonical_json,
    guarded_count,
    read_matrix,
)
from .measure import (
    _write_rows,
    laplace_transform,
    read_measure,
    support_interval,
    total_variation,
    trace_measure,
    write_measure,
    write_trace_csv,
)
from .norms import total_variation_bound
from .spectral import CLUSTER_TOL
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "console_main"]

_FLOAT = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_GRID_RE = re.compile(rf"^({_FLOAT}):({_FLOAT}):({_FLOAT})(?:\+({_FLOAT})i)?$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract here reserves 2 for
    # invalid input files, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def parse_t_grid(spec: str) -> np.ndarray:
    """Parse "start:stop:step" with an optional "+ci" imaginary pair suffix.

    A value that reads as inf is malformed; a count past LATTICE_LIMIT, one
    past the float range too, is refused before any point is formed.
    """
    m = _GRID_RE.match(spec.strip())
    if m is None:
        raise _UsageError(f"bad t grid {spec!r}; expected start:stop:step[+ci]")
    start, stop, step = float(m.group(1)), float(m.group(2)), float(m.group(3))
    imag = 0.0 if m.group(4) is None else float(m.group(4))
    if not all(map(math.isfinite, (start, stop, step, imag))):
        raise _UsageError(f"bad t grid {spec!r}; start, stop, step and c must be finite")
    if step <= 0:
        raise _UsageError("t grid step must be positive")
    if stop < start:
        raise _UsageError("t grid stop must not precede start")
    steps = (stop - start) / step  # inf once the count leaves the float range
    count = math.floor(steps + 1e-9) + 1 if math.isfinite(steps) else steps
    guarded_count("t-grid points", count + 2 * (imag != 0.0), 1, LATTICE_LIMIT)
    points = (start + np.arange(count) * step).astype(complex)
    if imag != 0.0:
        points = np.append(points, [complex(0.0, imag), complex(0.0, -imag)])
    return points


def parse_schedule(spec: str) -> tuple[int, ...]:
    try:
        values = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"bad schedule {spec!r}; expected comma separated integers") from None
    try:
        return _check_schedule(values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


# ----------------------------------------------------------------- commands

def cmd_measure(args) -> int:
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    cfg = ApproximantConfig(
        N=args.steps, cluster_tol=args.cluster_tol, merge_tol=args.merge_tol
    )
    build = build_measure_bruteforce if args.method == "brute" else build_measure_dp
    m = build(a, b, cfg)
    write_measure(args.out, m)
    if args.trace_csv is not None:
        write_trace_csv(args.trace_csv, m)
    lo, hi = support_interval(m)
    print(
        f"atoms={len(m)} support=[{_fmt(lo)},{_fmt(hi)}]"
        f" tv={_fmt(total_variation(m))}"
        f" tv_bound={_fmt(total_variation_bound(m.dim, b))}"
    )
    return 0


def cmd_transform(args) -> int:
    if bool(args.a) != bool(args.b):
        raise _UsageError("transform: give both --a and --b, or neither")
    grid = parse_t_grid(args.tgrid) if args.tgrid else default_t_grid()
    m = read_measure(args.measure)
    if args.a:
        a, b = as_matrix_pair(read_matrix(args.a), read_matrix(args.b))
        if a.shape[0] != m.dim:
            raise ValueError(f"the measure is {m.dim}x{m.dim} but a and b are {a.shape[0]}x{a.shape[0]}")
    values = laplace_transform(m, grid)
    err_ln = err_truth = np.full(grid.size, math.nan)
    if args.a:
        if m.N is not None:
            err_ln = batched_operator_norms(values - lie_approximant(a, b, grid, m.N))
        err_truth = batched_operator_norms(values - truth_exponential(a, b, grid))
    buf = io.StringIO()
    buf.write("t_re,t_im,err_vs_LN,err_vs_truth\n")
    _write_rows(buf, "%.17g,%.17g,%.17g,%.17g\n", [np.stack([grid.real, grid.imag, err_ln, err_truth], axis=1)])
    _write_text(args.out, buf.getvalue())
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, trials=args.trials, seed=args.seed, max_dim=args.max_dim)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name} trials={res.trials}"
            f" worst_margin={_fmt(res.worst_margin)}"
        )
        if not res.passed:
            failed = True
            print(canonical_json(res.failure))
    return 4 if failed else 0


def cmd_converge(args) -> int:
    schedule = parse_schedule(args.schedule) if args.schedule else DEFAULT_SCHEDULE
    grid = parse_t_grid(args.tgrid) if args.tgrid else None
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    report = convergence_study(
        a, b, schedule, t_grid=grid,
        cluster_tol=args.cluster_tol, merge_tol=args.merge_tol,
    )
    if args.format == "json":
        write_convergence_json(args.out, report)
    else:
        write_convergence_csv(args.out, report)
    print(f"rate_estimate={_fmt(report.rate_estimate)}")
    return 0


def cmd_counterexample(args) -> int:
    schedule = parse_schedule(args.schedule) if args.schedule else COUNTEREXAMPLE_SCHEDULE
    res = counterexample_demo(schedule)
    d = res.d_matrix
    print(
        "D = [["
        f"{_fmt(d[0, 0].real)}, {_fmt(d[0, 1].real)}], ["
        f"{_fmt(d[1, 0].real)}, {_fmt(d[1, 1].real)}]]"
    )
    print(f"det(D) = {_fmt(res.det_d)}")
    print(f"eigs(D) = {_fmt(res.eigs_of_d[0])}, {_fmt(res.eigs_of_d[1])}")
    print(f"psd = {res.psd}")
    for n_steps, m1, err in res.moment1_by_n:
        det = float(np.linalg.det(m1).real)
        print(
            f"N={n_steps} |moment1 - D| = {_fmt(err)}"
            f" det(moment1) = {_fmt(det)}"
        )
    onset = res.onset_negative_det
    print(f"onset_negative_det = {onset if onset is not None else 'none'}")
    ok = res.det_d < 0 and not res.psd
    return 0 if ok else 4


def cmd_plot(args) -> int:
    m = read_measure(args.measure)
    norms = batched_operator_norms(m.weights)
    traces = trace_measure(m).weights[:, 0, 0]
    dat_path = args.out + ".dat"
    gp_path = args.out + ".gp"
    columns = (m.locations, norms, traces.real, traces.imag)
    with open(dat_path, "w", encoding="ascii") as fh:
        fh.write("# lambda\topnorm\ttrace_re\ttrace_im\n")
        _write_rows(fh, "%.17g\t%.17g\t%.17g\t%.17g\n", [c.reshape(len(m), 1) for c in columns])
    lo, hi = support_interval(m)
    pad = 0.05 * max(hi - lo, 1.0)
    dat_name = dat_path.rsplit("/", 1)[-1]
    script = "\n".join([
        'set xlabel "support location"',
        'set ylabel "atom size"',
        f"set xrange [{_fmt(lo - pad)}:{_fmt(hi + pad)}]",
        "set key top left",
        f'plot "{dat_name}" using 1:2 with impulses lw 2 title "operator norm", \\',
        f'     "{dat_name}" using 1:2 with points pt 7 notitle, \\',
        f'     "{dat_name}" using 1:3 with points pt 6 title "trace (real part)"',
        "",
    ])
    _write_text(gp_path, script)
    print(f"wrote {dat_path} and {gp_path}")
    return 0


# ------------------------------------------------------------------- parser

# built once: a parser is a web of reference cycles, which only the garbage
# collector's full passes free, and those run rarely while a JSON read pauses it
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="liemeasure", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tols(p):
        p.add_argument("--cluster-tol", type=float, default=CLUSTER_TOL,
                       help="relative gap below which eigenvalues merge")
        p.add_argument("--merge-tol", type=float, default=MERGE_TOL,
                       help="relative gap below which atoms merge")

    p = sub.add_parser("measure", help="build the discrete measure for one (A, B, N)")
    p.add_argument("--a", required=True, help="Hermitian matrix JSON file")
    p.add_argument("--b", required=True, help="matrix JSON file")
    p.add_argument("--steps", type=int, required=True, metavar="N",
                   help="number of product factors")
    p.add_argument("--method", choices=("dp", "brute"), default="dp")
    add_tols(p)
    p.add_argument("--out", required=True, help="measure JSON output path")
    p.add_argument("--trace-csv", help="optional per-atom trace CSV output path")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("transform", help="evaluate the transform of a stored measure")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--a", help="Hermitian matrix JSON file; with --b, enables error columns")
    p.add_argument("--b", help="matrix JSON file; with --a, enables error columns")
    p.add_argument("--tgrid", help="start:stop:step[+ci], default -1:1:0.1+1i")
    p.add_argument("--out", help="CSV output path, default stdout")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="run randomized checks of the inequalities")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="tabulate approximation error against N")
    p.add_argument("--a", required=True, help="Hermitian matrix JSON file")
    p.add_argument("--b", required=True, help="matrix JSON file")
    p.add_argument("--schedule", help="comma separated N values, strictly increasing")
    p.add_argument("--tgrid", help="start:stop:step[+ci], default -1:1:0.1+1i")
    add_tols(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True, help="report output path")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser(
        "counterexample",
        help="reproduce the 2x2 pair whose limit measure has a signed weight",
    )
    p.add_argument("--schedule", help="comma separated N values for the moment table")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("plot", help="write gnuplot data and script for a measure")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--out", required=True, metavar="STEM",
                   help="output stem; writes STEM.dat and STEM.gp")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
