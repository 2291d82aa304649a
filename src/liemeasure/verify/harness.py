"""The verify harness: draw every trial, evaluate the trials in stacks, report the first failure.

run_trials draws every trial's case first, with the rng calls, in the
order, of a loop that draws and checks one trial at a time; it then hands
the cases of each shape to the lemma's stacked evaluation, a slab of them
at a time, and reports the first failing trial. The builder lemmas share
Build cases and blocks, which stack builds of one (n, l, N) through the
builders' stacked cores.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..approximant import (
    _SLAB_BYTES,
    ApproximantConfig,
    _prepare,
    _slab_block,
    _torus_measures,
    _torus_peak_bytes,
)
from ..linalg import matrix_to_json


@dataclass(frozen=True)
class LemmaResult:
    name: str
    trials: int
    worst_margin: float
    passed: bool
    failure: dict | None = None


def as_payload(**items) -> dict:
    """items, each array as its matrix JSON; canonical_json writes a numpy number as Python's."""
    return {key: matrix_to_json(v) if isinstance(v, np.ndarray) else v for key, v in items.items()}


def report(name: str, margins, payload) -> LemmaResult:
    """The first trial whose margin is not >= 0, or a pass; payload(i) replays trial i."""
    margins = np.asarray(margins, dtype=float)
    failing = np.flatnonzero(~(margins >= 0))
    if not failing.size:
        return LemmaResult(name, margins.size, float(margins.min(initial=math.inf)), True, None)
    i = int(failing[0])
    margin = float(margins[i])
    failure = {"lemma": name, "trial": i, "margin": margin if math.isfinite(margin) else None}
    failure.update(payload(i))
    return LemmaResult(name, i + 1, float(margins[: i + 1].min()), False, failure)


def groups(keys) -> list[list[int]]:
    """Indices of equal keys, one list per key in order of first appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return list(out.values())


# (n, n) matrices an evaluation holds per case, about: its inputs, their stacked
# products and norms, or, beside a lemma's builds, the pair, e^(b/N) and the eigenbasis
CASE_MATRICES = 16


def run_trials(name: str, rng, trials: int, draw, key, margins_of, payload) -> LemmaResult:
    """Draw every trial, evaluate the trials of each key together, report the first failure.

    draw(rng) makes one trial's case; key(case) is a tuple whose first entry
    is the matrix dimension n; margins_of(cases) gives the margins of a list
    of cases that share a key, at most one slab of CASE_MATRICES each;
    payload(case) is a failure's replay.
    """
    cases = [draw(rng) for _ in range(trials)]
    margins = np.empty(trials)
    for idx in groups(map(key, cases)):
        per = _slab_block(CASE_MATRICES, key(cases[idx[0]])[0])[0]
        for start in range(0, len(idx), per):
            part = idx[start:start + per]
            margins[part] = margins_of([cases[i] for i in part])
    return report(name, margins, lambda i: payload(cases[i]))


def dim(case) -> tuple[int]:
    return (len(case[0]),)


def stack(cases, field: int = 0) -> np.ndarray:
    return np.stack([case[field] for case in cases])


class Build(NamedTuple):
    """One builder trial: the pair and the step count."""

    a: np.ndarray
    b: np.ndarray
    N: int


def build_lemma(name: str, rng, trials: int, draw, margins_of) -> LemmaResult:
    """run_trials over Build cases, evaluated by (n, N)."""
    return run_trials(name, rng, trials, draw, lambda c: (len(c.a), c.N), margins_of,
                      lambda c: as_payload(a=c.a, b=c.b, N=c.N))


def blocks(cases: list[Build], peak_bytes):
    """(positions, decompositions, steps, config) of builds that share n and N, block by block.

    One _prepare serves every case. A block holds cases of one cluster count
    l, as many as the predicted peak_bytes(l, N, n) of one build fit one
    slab, so a block's stacked builds peak at about one slab, or at one
    build's own peak when that is larger.
    """
    cfg = ApproximantConfig(N=cases[0].N)
    decs, steps = _prepare(stack(cases, 0), stack(cases, 1), cfg)
    n = steps.shape[1]
    for idx in groups(len(d) for d in decs):
        per = max(1, _SLAB_BYTES // peak_bytes(len(decs[idx[0]]), cfg.N, n))
        for start in range(0, len(idx), per):
            part = idx[start:start + per]
            yield part, [decs[i] for i in part], steps[part], cfg


def built_margins(cases: list[Build], margin, peak_bytes=_torus_peak_bytes, core=_torus_measures) -> np.ndarray:
    """margin(i, decomposition, measure) of every case i, through a stacked builder core.

    A block's measures are freed before the next block is built.
    """
    out = np.empty(len(cases))
    for part, decs, steps, cfg in blocks(cases, peak_bytes):
        out[part] = [margin(i, dec, m) for i, dec, m in zip(part, decs, core(decs, steps, cfg))]
    return out
