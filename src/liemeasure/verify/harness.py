"""The verify harness: draw every trial, evaluate the trials in stacks, report the first failure.

run_trials draws every trial first, with the rng calls, in the order, of a
loop that draws and checks one trial at a time. A draw holds only the raw
numbers of those calls; no matrix is formed while the lemma draws. It then
takes the draws of each shape a linalg._slabs slab at a time, forms their
fields through the stacked formers of `sampling` (each field stacked along a
first axis, one entry per draw), hands the fields to the lemma's stacked
evaluation, and reports the first failing trial. The builder lemmas get
(a, b, N) fields and blocks, which stack builds of one (n, l, N) through
the builders' stacked cores.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..approximant import ApproximantConfig, _prepare, _torus_measures, _torus_peak_bytes
from ..linalg import _slabs, matrix_to_json
from ..sampling import form_matrices


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


# (n, n) matrices an evaluation holds per draw, about: its inputs, their stacked
# products and norms, or, beside a lemma's builds, the pair, e^(b/N) and the eigenbasis
CASE_MATRICES = 16


def draw_trials(rng, trials: int, draw) -> list:
    """The draw phase: draw(rng) of every trial, in trial order."""
    return [draw(rng) for _ in range(trials)]


def fields(draws) -> tuple:
    """Each item of draws of one shape, stacked along a new first axis."""
    return tuple(np.array(field) for field in zip(*draws))


def run_trials(name: str, rng, trials: int, draw, key, margins_of, payload, form=fields) -> LemmaResult:
    """Draw every trial, form and evaluate the trials of each key together, report the first failure.

    draw(rng) makes one trial's draw with rng calls alone; key(draw) is a
    tuple whose first entry is the matrix dimension n; form(draws) makes a
    tuple of fields of a list of draws that share a key, in stacked calls,
    each field stacked along a first axis with one entry per draw (by
    default, fields: each item of the draws stacked); margins_of(*fields)
    gives their margins, at most one slab of draws of CASE_MATRICES each;
    payload(*case) is a failure's replay, whose case is entry 0 of each
    field of its draw formed alone.
    """
    draws = draw_trials(rng, trials, draw)
    margins = np.empty(trials)
    for idx in groups(map(key, draws)):
        n = key(draws[idx[0]])[0]
        for block, _ in _slabs(len(idx), 1, CASE_MATRICES * 16 * n * n):
            part = idx[block]
            margins[part] = margins_of(*form([draws[i] for i in part]))
    return report(name, margins, lambda i: payload(*(field[0] for field in form([draws[i]]))))


def dim(draw) -> tuple[int]:
    """(n,) of a draw whose first item is n long: an (n, n) matrix or n values."""
    return (len(draw[0]),)


def matrix_dim(draw) -> tuple[int]:
    """(n,) of a draw_matrix draw."""
    return (len(draw[1]),)


def matrices(draws) -> np.ndarray:
    """The stacked random_matrix of draw_matrix draws of one shape."""
    return form_matrices(*fields(draws))


class BuildDraw(NamedTuple):
    """One builder trial as drawn: the dimension, the draws of the pair, the step count."""

    n: int
    a: tuple
    b: tuple | None
    N: int


def build_lemma(name: str, rng, trials: int, draw, form_pairs, margins_of) -> LemmaResult:
    """run_trials over (a, b, N) fields, evaluated by (n, N).

    draw(rng) gives a BuildDraw; form_pairs(draws) gives the stacked a and b
    of a list of BuildDraws; margins_of(a, b, N) gets the (k, n, n) stacks a
    and b and the (k,) step counts N, all equal.
    """
    def form(draws):
        return (*form_pairs(draws), np.array([d.N for d in draws]))

    return run_trials(name, rng, trials, draw, lambda d: (d.n, d.N), margins_of,
                      lambda a, b, N: as_payload(a=a, b=b, N=N), form)


def blocks(a: np.ndarray, b: np.ndarray, N: np.ndarray, peak_bytes):
    """(positions, decompositions, steps, config) of the builds of (a, b, N) fields, block by block.

    One _prepare serves the whole stack, whose step counts N are equal. A
    block holds builds of one cluster count l, as many as the predicted
    peak_bytes(l, N, n) of one build fit one slab, so a block's stacked
    builds peak at about one slab, or at one build's own peak when that is
    larger.
    """
    cfg = ApproximantConfig(N=int(N[0]))
    decs, steps = _prepare(a, b, cfg)
    n = steps.shape[1]
    for idx in groups(len(d) for d in decs):
        for block, _ in _slabs(len(idx), 1, peak_bytes(len(decs[idx[0]]), cfg.N, n)):
            part = idx[block]
            yield part, [decs[i] for i in part], steps[part], cfg


def built_margins(a, b, N, margin, peak_bytes=_torus_peak_bytes, core=_torus_measures) -> np.ndarray:
    """margin(i, decomposition, measure) of every build i of (a, b, N) fields, through a stacked builder core.

    A block's measures are freed before the next block is built.
    """
    out = np.empty(len(a))
    for part, decs, steps, cfg in blocks(a, b, N, peak_bytes):
        out[part] = [margin(i, dec, m) for i, dec, m in zip(part, decs, core(decs, steps, cfg))]
    return out
