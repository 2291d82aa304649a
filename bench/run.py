"""liemeasure benchmark: closed-loop CLI workloads, end to end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload measure-generic --seed 1 --seconds 40 --trace 0

One client in one process repeats its workload's op, a short sequence of CLI
calls, back to back for `--seconds` of op time. With `--trace 0` it reports
the end-to-end metrics; with `--trace 1` every other op runs under the
outside-in tracer of `spans.py`, and it reports the per-layer metrics. Human-readable lines come first; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Runtime files go to `.bench_work/` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 2
SETUP_PROBES = 5
TOP_SPANS = 12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="only prepare the workload in DIR and exit (times set-up from outside)")
    return p.parse_args(argv)


def _import_program():
    """Import liemeasure from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "liemeasure" / "__init__.py").is_file():
        raise SystemExit(f"bench: no liemeasure sources in {src}")
    sys.path.insert(0, str(src))
    import liemeasure

    if Path(liemeasure.__file__).resolve().parent != (src / "liemeasure").resolve():
        raise SystemExit(f"bench: imported liemeasure from {liemeasure.__file__}, not {src}")


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _run_window(wl, outdir, seconds, tracer=None):
    """Closed loop: start the next op only after the last one ends, until op time reaches `seconds`.

    With a tracer, odd ops run traced and even ops untraced, so the two sides
    see the same machine conditions and their ratio is the tracing overhead.
    One untimed full-size op comes first: the first op of a process grows its
    heap and runs measurably slower than the ops after it.
    """
    from workloads import digest, keep_copy

    wl.run_op(outdir)
    min_ops = 2 * MIN_OPS if tracer else MIN_OPS
    records = []
    busy = 0.0
    while busy < seconds or (len(records) < min_ops and busy < 4 * seconds):
        op = len(records)
        traced = tracer is not None and op % 2 == 1
        files = wl.output_paths(outdir)
        for p in files.values():  # a command that exits 0 without writing must not pass on stale files
            p.unlink(missing_ok=True)
        if traced:
            tracer.op = op
            tracer.install()
        start = time.perf_counter()
        try:
            codes, stdout, error = wl.run_op(outdir)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        busy += elapsed
        present = all(p.is_file() for p in files.values())
        records.append({
            "op": op, "seconds": elapsed, "codes": codes, "stdout": stdout, "error": error,
            "digest": digest(stdout, files.values()) if present else None, "traced": traced,
        })
        if op == 0 and present and not any(codes):
            records[-1]["kept"] = keep_copy(files, outdir.parent / "reference")
    return records


def _gate(wl, records, workdir):
    """Mark each op failed or passed; return the run-level problems.

    Ops whose stdout and files match op 0 byte for byte share op 0's verdict,
    so the workload gates run once, on the copy kept from op 0.
    """
    problems = []
    ref = next((r for r in records if "kept" in r), None)
    if ref is None:
        ref_fails = ["op 0 produced no outputs"]
    else:
        try:
            ref_fails = wl.check(ref["stdout"], ref["kept"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ref_fails = [f"malformed output: {exc!r}"]
    for r in records:
        reasons = []
        if any(r["codes"]):
            reasons.append(f"exit codes {r['codes']}: {r['error']}")
        elif ref is None or r["digest"] != ref["digest"]:
            reasons.append("stdout or files differ from op 0")
        else:
            reasons.extend(ref_fails)
        r["failures"] = reasons
    if ref is not None and not ref_fails:
        problems += [f"gate self-test: {p}" for p in wl.self_test(ref["kept"], workdir / "self-test")]
    return problems


def _setup_probes(args, workdir):
    """Median wall time of fresh interpreters that import and prepare the workload."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-probe", str(workdir / f"probe{k}")]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {done.stderr.strip()}")
    return statistics.median(times), times


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    import workloads

    if args.workload == "all":
        # one process per workload, so each reports its own peak RSS
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, Path(args.setup_probe))
        return 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    wl = workloads.prepare(args.workload, args.seed, workdir)
    env = _environment(args)
    outdir = workdir / "op"
    metrics = {}
    notes = []

    if args.trace:
        import spans

        tracer = spans.Tracer()
        records = _run_window(wl, outdir, args.seconds, tracer)
        tracer.write(workdir / "spans.csv")
        walls = {r["op"]: r["seconds"] for r in records if r["traced"]}
        layer, count_problems, every_self = tracer.layer_metrics(walls)
        metrics.update(layer)
        metrics.update(tracer.accuracy(workloads.DEFAULT_GRID))
        plain = statistics.median(r["seconds"] for r in records if not r["traced"])
        metrics["trace.overhead_frac"] = (statistics.median(walls.values()) / plain - 1.0, "ratio")
        notes += count_problems
    else:
        records = _run_window(wl, outdir, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = [r["seconds"] for r in records]
        metrics["ops_per_s"] = (len(times) / sum(times), "1/s")
        metrics["op_p50_s"] = (statistics.median(times), "s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")

    notes += _gate(wl, records, workdir)
    if not args.trace:
        setup, probe_times = _setup_probes(args, workdir)
        metrics["setup_s"] = (setup, "s")
        env["setup_probe_s"] = probe_times

    failed = sum(bool(r["failures"]) for r in records)
    env["ops"] = len(records)
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"op digest {records[0]['digest']}")
    if args.trace:
        wall = metrics["trace.op_s"][0]
        print(f"top span self times per traced op, of {wall:.4g} s:")
        for name, value in sorted(every_self.items(), key=lambda kv: -kv[1])[:TOP_SPANS]:
            print(f"  {name:44s} {value:9.4f} s {100 * value / wall:6.1f}%")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"op samples = {len(records)}")
    print(f"ops_failed_frac = {failed / len(records):.6g} ({failed}/{len(records)})")
    for r in records:
        for reason in r["failures"]:
            print(f"FAILED op {r['op']}: {reason}")
    for note in notes:
        print(f"PROBLEM {note}")
    (workdir / "run.json").write_text(json.dumps({
        "env": env, "digests": [r["digest"] for r in records],
        "op_seconds": [r["seconds"] for r in records],
        "failures": {r["op"]: r["failures"] for r in records if r["failures"]},
        "problems": notes, "metrics": {k: v for k, (v, _) in metrics.items()},
    }, indent=1, sort_keys=True) + "\n")
    for sub in workdir.iterdir():  # op outputs, copies and probes; inputs and records stay
        if sub.is_dir():
            shutil.rmtree(sub)
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
