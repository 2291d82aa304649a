"""Randomized verification suites for the inequalities behind the construction.

Each lemma runs in two phases. The draw phase makes exactly the rng calls,
in exactly the order, of a loop that draws and checks one trial at a time,
and keeps only their raw numbers: it runs no linear algebra. The evaluate
phase then groups the trials by shape, forms each group's random instances
through the stacked formers of `sampling` (one QR per group for its
unitaries), and computes every margin through stacked calls: one SVD, eigh
or expm per group, and the builders' stacked cores over instances that
share (n, l, N), a slab of matrices at a time. Each margin is bit for bit
the one a lone trial gives.

A trial fails unless its margin is >= 0, so a NaN margin fails too. A lemma
reports its first failing trial i: trials = i + 1, the worst margin over
trials 0..i, and a serializable replay payload of trial i (a non-finite
margin in it is written as null). Later trials cannot change the report.
Suites group the lemmas the way the CLI exposes them, one module each:
norms, subordination, bounds, spectral, approximant; harness holds the two
phases and the report.
"""

import numpy as np

from ..linalg import as_int
from .approximant import (
    lemma_commuting_exactness,
    lemma_dp_vs_bruteforce,
    lemma_support_in_hull,
    lemma_total_mass,
    lemma_transform_identity,
)
from .bounds import lemma_partition_product_bound, lemma_tuple_norm_regrouping, lemma_tv_bound
from .harness import LemmaResult
from .norms import (
    lemma_entry_sum_dominates_norm,
    lemma_inverse_triangle,
    lemma_nonneg_entry_sum_bound,
    lemma_submultiplicative,
)
from .spectral import (
    lemma_eigen_identity,
    lemma_projector_algebra,
    lemma_rayleigh_containment,
    lemma_scaled_exp_agreement,
    lemma_spectral_reconstruction,
)
from .subordination import (
    lemma_exp_monotone,
    lemma_majorant_dominates,
    lemma_majorant_norm_identities,
    lemma_norm_monotone,
    lemma_sum_product_closure,
)

__all__ = ["LemmaResult", "SUITES", "SUITE_NAMES", "run_suite", "run_lemma"]


SUITES: dict[str, list] = {
    "norms": [
        lemma_entry_sum_dominates_norm,
        lemma_nonneg_entry_sum_bound,
        lemma_inverse_triangle,
        lemma_submultiplicative,
    ],
    "subordination": [
        lemma_majorant_dominates,
        lemma_majorant_norm_identities,
        lemma_norm_monotone,
        lemma_sum_product_closure,
        lemma_exp_monotone,
    ],
    "bounds": [
        lemma_tv_bound,
        lemma_partition_product_bound,
        lemma_tuple_norm_regrouping,
    ],
    "spectral": [
        lemma_projector_algebra,
        lemma_spectral_reconstruction,
        lemma_eigen_identity,
        lemma_scaled_exp_agreement,
        lemma_rayleigh_containment,
    ],
    "approximant": [
        lemma_dp_vs_bruteforce,
        lemma_transform_identity,
        lemma_support_in_hull,
        lemma_total_mass,
        lemma_commuting_exactness,
    ],
}

SUITE_NAMES = tuple(SUITES) + ("all",)

_LEMMA_INDEX = {
    fn: idx
    for idx, fn in enumerate(fn for fns in SUITES.values() for fn in fns)
}


def run_lemma(fn, trials: int, seed: int, max_dim: int = 4) -> LemmaResult:
    """Run one lemma with a generator derived from (seed, lemma index)."""
    rng = np.random.default_rng([seed, _LEMMA_INDEX[fn]])
    return fn(rng, trials, max_dim)


def run_suite(suite: str, trials: int, seed: int, max_dim: int = 4) -> list[LemmaResult]:
    """Run the lemmas of one suite, or of all; max_dim may be 1 only for the norms suite."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    trials = as_int(trials, "trials")
    max_dim = as_int(max_dim, "max_dim", 1 if names == ["norms"] else 2, f" for suite {suite!r}")
    return [run_lemma(fn, trials, seed, max_dim) for name in names for fn in SUITES[name]]
