"""Outside-in tracer for the traced run, and the per-layer metrics it yields.

`Tracer.install` wraps every public function of the traced liemeasure
modules and rebinds each wrapper wherever a liemeasure module holds the
original, including the `from .x import y` aliases, so calls between modules
are seen too. Each call records a span (name, start, end, parent span, op id)
in memory; self time is a span's duration minus the time its child spans
cover, derived once the run ends. Untraced runs never call `install`.
"""

import csv
import functools
import importlib
import inspect
import math
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np
import scipy.linalg
from liemeasure.spectral import decompose  # bound before any wrapping, so never traced
from liemeasure.verify import SUITES
from workloads import lie_approximants

MODULES = ("cli", "approximant", "spectral", "linalg", "measure", "norms", "experiments", "verify")
BUILDERS = ("approximant.build_measure_dp", "approximant.build_measure_bruteforce")

# spans whose self time, call count or both are reported per op
SELF_TIME = (
    "approximant.build_measure_dp", "linalg.canonical_json", "measure.write_measure",
    "measure.read_measure", "measure.write_trace_csv", "linalg.batched_operator_norms",
    "measure.total_variation", "measure.laplace_transform", "measure.moment",
    "measure.hermitian_deviation", "measure.transform_distance", "approximant.lie_approximant",
    "experiments.truth_exponential", "experiments.convergence_study",
    "experiments.counterexample_demo", "spectral.decompose", "linalg.matrix_exp",
    "approximant.build_measure_bruteforce", "linalg.tuple_factor_products", "verify.run_lemma",
    "norms.total_variation_bound", "cli.main",
)
CALLS = (
    "approximant.build_measure_dp", "measure.laplace_transform", "approximant.lie_approximant",
    "spectral.decompose", "linalg.matrix_exp", "approximant.build_measure_bruteforce",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent span index, op id)
        self.stack: list[int] = []
        self.op = -1
        self.builds: list = []  # (op, builder name, a, b, cfg, measure)
        self.counters = defaultdict(int)  # (op, metric name) -> computed count
        self.suite_seconds = defaultdict(float)  # (op, verify suite) -> time in its lemmas
        self._wrappers: dict = {}  # id(original) -> (original, wrapper)
        self._patches: list = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if not self._wrappers:
            for short in MODULES:
                mod = importlib.import_module(f"liemeasure.{short}")
                for attr, obj in vars(mod).items():
                    if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "liemeasure":
                continue
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = _COUNT_HOOKS.get(name)
        signature = inspect.signature(fn) if count else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.op)
            if count is not None:
                count(tracer, name, signature.bind(*args, **kwargs).arguments, result, end - start)
            return result

        return wrapper

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        """Write every span as CSV: name, start_s, end_s, parent, op."""
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for i, (name_id, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, self.names[name_id], repr(start), repr(end), parent, op])

    def layer_metrics(self, op_walls: dict[int, float]) -> tuple[dict, list[str], dict]:
        """Per-op means of span self times and counts over the traced ops.

        Returns (metrics, problems, self time per op of every span name). A
        count that differs between ops is a problem: the ops are identical,
        so every count must repeat exactly.
        """
        ops = sorted(op_walls)
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        name_id = table[:, 0].astype(int)
        parent = table[:, 3].astype(int)
        op = table[:, 4].astype(int)
        duration = table[:, 2] - table[:, 1]
        covered = np.zeros(len(table))
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self_time = duration - covered

        ids = {name: i for i, name in enumerate(self.names)}
        column = np.searchsorted(ops, op)
        self_grid = np.zeros((len(self.names), len(ops)))
        calls_grid = np.zeros((len(self.names), len(ops)), dtype=np.int64)
        np.add.at(self_grid, (name_id, column), self_time)
        np.add.at(calls_grid, (name_id, column), 1)

        metrics = {}
        problems = []
        n_ops = len(ops)
        for name in SELF_TIME:
            total = float(self_grid[ids[name]].sum()) if name in ids else 0.0
            metrics[f"{name}.self_s"] = (total / n_ops, "s")
        for name in CALLS:
            per_op = dict(zip(ops, calls_grid[ids[name]].tolist())) if name in ids else {}
            metrics[f"{name}.calls"] = (_repeated(per_op, ops, f"{name}.calls", problems), "count")

        counts = self._builder_counts(ops, problems)
        for key, unit in (("linalg.canonical_json.bytes", "B"), ("measure.read_measure.bytes", "B"),
                          ("linalg.batched_operator_norms.matrices", "count")):
            per_op = {o: self.counters[(o, key)] for o in ops}
            metrics[key] = (_repeated(per_op, ops, key, problems), unit)
        metrics.update(counts)
        for suite in SUITES:
            total = sum(self.suite_seconds[(o, suite)] for o in ops)
            metrics[f"verify.suite.{suite}.s"] = (total / n_ops, "s")

        wall = sum(op_walls.values())
        dp_self = metrics["approximant.build_measure_dp.self_s"][0] * n_ops
        metrics["approximant.build_measure_dp.share"] = (dp_self / wall, "ratio")
        metrics["trace.op_s"] = (float(np.median([op_walls[o] for o in ops])), "s")
        metrics["trace.unattributed_frac"] = (1.0 - float(self_time.sum()) / wall, "ratio")
        every = {name: float(self_grid[i].sum()) / n_ops for i, name in enumerate(self.names)}
        return metrics, problems, every

    def _builder_counts(self, ops, problems) -> dict:
        """Computed counts of the DP builds, from their inputs and outputs.

        l is the number of eigenvalue clusters of A at the build's cluster_tol.
        """
        per_op = {o: defaultdict(int) for o in ops}
        for op, builder, a, _, cfg, m in self.builds:
            if builder != "approximant.build_measure_dp":
                continue
            n, N = a.shape[0], int(cfg.N)
            l = len(decompose(a, cfg.cluster_tol))
            c = per_op[op]
            c["dp_gemm_flops"] += sum(l * (p + 1) ** (l - 1) * 8 * n**3 for p in range(N))
            c["lattice_cells"] += (N + 1) ** (l - 1)
            c["compositions"] += math.comb(N + l - 1, l - 1)
            c["lattice_bytes"] = max(c["lattice_bytes"], 2 * (N + 1) ** (l - 1) * n * n * 16)
            c["atoms_out"] += len(m)
        units = {"dp_gemm_flops": "flop", "lattice_cells": "count", "compositions": "count",
                 "lattice_bytes": "B", "atoms_out": "count"}
        out = {}
        for key, unit in units.items():
            name = f"approximant.{key}"
            out[name] = (_repeated({o: per_op[o][key] for o in ops}, ops, name, problems), unit)
        comps = out["approximant.compositions"][0]
        out["approximant.lattice_useful_ratio"] = (comps / max(out["approximant.lattice_cells"][0], 1), "ratio")
        out["approximant.merge_ratio"] = (out["approximant.atoms_out"][0] / max(comps, 1), "ratio")
        return out

    def accuracy(self, grid) -> dict:
        """Worst relative mass and transform residuals over the builds of one traced op.

        mass: ||M_0 - e^B|| / max(1, ||e^B||); transform: max over the grid of
        ||sum_k e^(t mu_k) W_k - L_N(t)|| / max(1, ||L_N(t)||).
        """
        first = min((b[0] for b in self.builds), default=None)
        mass = transform = 0.0
        for op, _, a, b, cfg, m in self.builds:
            if op != first:
                continue
            eb = scipy.linalg.expm(b)
            mass = max(mass, _norm(m.weights.sum(axis=0) - eb) / max(1.0, _norm(eb)))
            ln = lie_approximants(a, b, int(cfg.N), grid)
            values = np.exp(np.outer(grid, m.locations)) @ m.weights.reshape(len(m), -1)
            gaps = np.linalg.norm(values.reshape(ln.shape) - ln, 2, axis=(1, 2))
            transform = max(transform, float((gaps / np.maximum(1.0, np.linalg.norm(ln, 2, axis=(1, 2)))).max()))
        return {"approximant.mass_residual": (mass, "ratio"),
                "approximant.transform_residual": (transform, "ratio")}


def _norm(m) -> float:
    return float(np.linalg.norm(m, 2))


def _repeated(per_op: dict, ops, name, problems):
    values = [per_op.get(o, 0) for o in ops]
    if len(set(values)) > 1:
        problems.append(f"{name} differs between identical ops: {values}")
    return values[0]


# ------------------------------------------------- counts at span boundaries

def _count_build(tracer, name, args, result, seconds):
    tracer.builds.append((tracer.op, name, args["a"], args["b"], args["cfg"], result))


def _count_json_bytes(tracer, name, args, result, seconds):
    tracer.counters[(tracer.op, "linalg.canonical_json.bytes")] += len(result)


def _count_read_bytes(tracer, name, args, result, seconds):
    tracer.counters[(tracer.op, "measure.read_measure.bytes")] += os.path.getsize(args["path"])


def _count_svds(tracer, name, args, result, seconds):
    tracer.counters[(tracer.op, "linalg.batched_operator_norms.matrices")] += len(result)


_LEMMA_SUITE = {fn.__name__: suite for suite, fns in SUITES.items() for fn in fns}


def _time_suite(tracer, name, args, result, seconds):
    tracer.suite_seconds[(tracer.op, _LEMMA_SUITE[args["fn"].__name__])] += seconds


_COUNT_HOOKS = {
    **{name: _count_build for name in BUILDERS},
    "linalg.canonical_json": _count_json_bytes,
    "measure.read_measure": _count_read_bytes,
    "linalg.batched_operator_norms": _count_svds,
    "verify.run_lemma": _time_suite,
}
