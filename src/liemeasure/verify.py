"""Randomized verification suites for the inequalities behind the construction.

Each lemma runs a seeded trial loop and reports the worst margin seen; a
negative margin is a violation and carries a serializable replay payload.
Suites group the lemmas the way the CLI exposes them: norms, subordination,
bounds, spectral, approximant.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .approximant import (
    ApproximantConfig,
    build_measure_bruteforce,
    build_measure_dp,
    commuting_case_measure,
    lie_approximant,
    n_convex_hull,
)
from .linalg import (
    batched_operator_norms,
    entry_abs_sum,
    matrix_exp,
    matrix_to_json,
    operator_norm,
    tuple_factor_products,
)
from .measure import laplace_transform, moment, total_variation
from .norms import (
    check_exp_monotone,
    inverse_triangle_sum,
    is_subordinate,
    norm_majorant,
    partition_product_bound,
    rank_one_exp,
    total_variation_bound,
)
from .spectral import decompose, scaled_exp

__all__ = ["LemmaResult", "SUITES", "SUITE_NAMES", "run_suite", "run_lemma"]


@dataclass(frozen=True)
class LemmaResult:
    name: str
    trials: int
    worst_margin: float
    passed: bool
    failure: dict | None = None


def _payload(**items) -> dict:
    out = {}
    for key, value in items.items():
        if isinstance(value, np.ndarray):
            out[key] = matrix_to_json(value)
        elif isinstance(value, (np.integer,)):
            out[key] = int(value)
        elif isinstance(value, (np.floating,)):
            out[key] = float(value)
        else:
            out[key] = value
    return out


def _run(name: str, trials: int, gen) -> LemmaResult:
    worst = math.inf
    for i in range(trials):
        margin, payload = gen(i)
        worst = min(worst, margin)
        if margin < 0:
            failure = {"lemma": name, "trial": i, "margin": margin}
            failure.update(payload())
            return LemmaResult(name, i + 1, worst, False, failure)
    return LemmaResult(name, trials, worst, True, None)


def _witness_margin(witness, majorant) -> float:
    return witness.slack + 1e-12 * max(1.0, float(np.linalg.norm(majorant, 2)))


# -------------------------------------------------------------- norms suite

def lemma_entry_sum_dominates_norm(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(1, max_dim + 1))
        m = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 3.0)))
        margin = entry_abs_sum(m) + 1e-12 - operator_norm(m)
        return margin, lambda: _payload(m=m)

    return _run("entry-sum-dominates-norm", trials, gen)


def lemma_nonneg_entry_sum_bound(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(1, max_dim + 1))
        s = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 3.0)))
        margin = n * operator_norm(s) + 1e-10 - float(s.sum())
        return margin, lambda: _payload(s=s)

    return _run("nonneg-entry-sum-bound", trials, gen)


def lemma_inverse_triangle(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(1, max_dim + 1))
        parts = [
            sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 2.0)))
            for _ in range(int(rng.integers(2, 6)))
        ]
        lhs, rhs = inverse_triangle_sum(parts)
        return rhs + 1e-10 - lhs, lambda: _payload(part0=parts[0], count=len(parts))

    return _run("inverse-triangle", trials, gen)


def lemma_submultiplicative(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(1, max_dim + 1))
        a = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        b = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        margin = operator_norm(a) * operator_norm(b) + 1e-10 - operator_norm(a @ b)
        return margin, lambda: _payload(a=a, b=b)

    return _run("submultiplicative-norm", trials, gen)


# ------------------------------------------------------ subordination suite

def lemma_majorant_dominates(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(1, max_dim + 1))
        b = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        s = norm_majorant(b)
        w = is_subordinate(b, s)
        return _witness_margin(w, s), lambda: _payload(b=b)

    return _run("majorant-dominates", trials, gen)


def lemma_majorant_norm_identities(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        b = sampling.scaled_to_norm(
            sampling.random_matrix(rng, n), float(rng.uniform(0.05, 5.0))
        )
        r = norm_majorant(b)
        c = operator_norm(b)
        norm_gap = abs(operator_norm(r) - n * c)
        closed = rank_one_exp(r)
        series = matrix_exp(r).real
        enorm = math.exp(n * c)
        exp_norm_gap = abs(operator_norm(closed) - enorm)
        form_gap = operator_norm(closed - series)
        margin = min(
            1e-12 * max(1.0, n * c) - norm_gap,
            1e-11 * max(1.0, enorm) - exp_norm_gap,
            1e-11 * max(1.0, enorm) - form_gap,
        )
        return margin, lambda: _payload(b=b)

    return _run("majorant-norm-identities", trials, gen)


def lemma_norm_monotone(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(1, max_dim + 1))
        s = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        m = sampling.random_subordinate_to(rng, s)
        margin = operator_norm(s) + 1e-10 - operator_norm(m)
        return margin, lambda: _payload(m=m, s=s)

    return _run("norm-monotone-under-domination", trials, gen)


def lemma_sum_product_closure(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(1, max_dim + 1))
        chain = int(rng.integers(2, 5))
        dominators = [
            sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5)))
            for _ in range(chain)
        ]
        dominated = [sampling.random_subordinate_to(rng, s) for s in dominators]
        sum_s = np.add.reduce(np.stack(dominators), axis=0)
        sum_m = np.add.reduce(np.stack(dominated), axis=0)
        prod_s = dominators[0]
        prod_m = dominated[0]
        for s, m in zip(dominators[1:], dominated[1:]):
            prod_s = prod_s @ s
            prod_m = prod_m @ m
        w_sum = is_subordinate(sum_m, sum_s)
        w_prod = is_subordinate(prod_m, prod_s)
        margin = min(_witness_margin(w_sum, sum_s), _witness_margin(w_prod, prod_s))
        return margin, lambda: _payload(s0=dominators[0], m0=dominated[0], chain=chain)

    return _run("domination-sum-product-closure", trials, gen)


def lemma_exp_monotone(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        x = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        y = sampling.random_subordinate_to(rng, x)
        w = check_exp_monotone(x, y)
        return _witness_margin(w, matrix_exp(x).real), lambda: _payload(x=x, y=y)

    return _run("exp-preserves-domination", trials, gen)


# ------------------------------------------------------------- bounds suite

def lemma_tv_bound(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        a = sampling.random_hermitian(rng, n, scale=2.0)
        b = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        n_steps = int(rng.integers(1, 7))
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        margin = total_variation_bound(n, b) + 1e-8 - total_variation(m)
        return margin, lambda: _payload(a=a, b=b, N=n_steps)

    return _run("total-variation-bound", trials, gen)


def lemma_partition_product_bound(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        parts = int(rng.integers(1, 4))
        n_steps = int(rng.integers(1, 6))
        projectors = sampling.random_diagonal_partition(rng, n, parts)
        r = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.2)))
        sum_norms, bound = partition_product_bound(projectors, r, n_steps)
        factors = np.matmul(
            projectors.astype(np.complex128), matrix_exp(r / n_steps)
        )
        _, prods = tuple_factor_products(factors, n_steps)
        telescoped = np.add.reduce(prods, axis=0)
        telescope_gap = operator_norm(telescoped - matrix_exp(r))
        margin = min(bound + 1e-8 - sum_norms, 1e-9 - telescope_gap)
        return margin, lambda: _payload(r=r, parts=parts, N=n_steps)

    return _run("partition-product-bound", trials, gen)


def lemma_tuple_norm_regrouping(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        a = sampling.random_hermitian(rng, n, scale=2.0)
        b = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        n_steps = int(rng.integers(1, 6))
        m = build_measure_bruteforce(a, b, ApproximantConfig(N=n_steps))
        margin = m.tuple_norm_sum + 1e-10 - total_variation(m)
        return margin, lambda: _payload(a=a, b=b, N=n_steps)

    return _run("tuple-norm-regrouping", trials, gen)


# ----------------------------------------------------------- spectral suite

def _gapped_hermitian(rng, max_dim, min_gap):
    n = int(rng.integers(2, max_dim + 1))
    lam = sampling.spaced_values(rng, n, min_gap=max(min_gap, 0.05))
    return sampling.hermitian_with_spectrum(rng, lam)


def lemma_projector_algebra(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a = _gapped_hermitian(rng, max_dim, min_gap)
        dec = decompose(a)
        pr = dec.projectors
        worst = operator_norm(np.add.reduce(pr, axis=0) - np.eye(dec.source_dim))
        for j in range(len(dec)):
            worst = max(worst, operator_norm(pr[j] @ pr[j] - pr[j]))
            worst = max(worst, operator_norm(pr[j] - pr[j].conj().T))
            for k in range(j + 1, len(dec)):
                worst = max(worst, operator_norm(pr[j] @ pr[k]))
        return 1e-10 - worst, lambda: _payload(a=a)

    return _run("projector-algebra", trials, gen)


def lemma_spectral_reconstruction(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a = _gapped_hermitian(rng, max_dim, min_gap)
        dec = decompose(a)
        rebuilt = np.einsum("j,jpq->pq", dec.eigenvalues.astype(complex), dec.projectors)
        return 1e-10 - operator_norm(rebuilt - a), lambda: _payload(a=a)

    return _run("spectral-reconstruction", trials, gen)


def lemma_eigen_identity(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a = _gapped_hermitian(rng, max_dim, min_gap)
        dec = decompose(a)
        worst = 0.0
        for lam, proj in zip(dec.eigenvalues, dec.projectors):
            worst = max(worst, operator_norm(a @ proj - lam * proj))
        tol = 1e-9 * max(1.0, operator_norm(a))
        return tol - worst, lambda: _payload(a=a)

    return _run("eigen-identity", trials, gen)


def lemma_scaled_exp_agreement(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a = _gapped_hermitian(rng, max_dim, min_gap)
        dec = decompose(a)
        t = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        scale = int(rng.integers(1, 9))
        gap = operator_norm(scaled_exp(dec, t, scale) - matrix_exp((t / scale) * a))
        return 1e-11 - gap, lambda: _payload(a=a, t_re=t.real, t_im=t.imag, scale=scale)

    return _run("scaled-exp-agreement", trials, gen)


def lemma_rayleigh_containment(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a = _gapped_hermitian(rng, max_dim, min_gap)
        dec = decompose(a)
        v = sampling.unit_disc_entries(rng, a.shape[0])
        v = v / np.linalg.norm(v)
        q = float(np.real(v.conj() @ a @ v))
        margin = min(q - dec.lambda_min + 1e-10, dec.lambda_max - q + 1e-10)
        return margin, lambda: _payload(a=a)

    return _run("rayleigh-containment", trials, gen)


# -------------------------------------------------------- approximant suite

def _random_builder_instance(rng, max_dim, min_gap):
    n = int(rng.integers(2, min(max_dim, 4) + 1))
    l = int(rng.integers(1, min(n, 3) + 1))
    lam = sampling.spaced_values(rng, l, min_gap=max(min_gap, 0.15))
    mult = np.ones(l, dtype=int)
    for _ in range(n - l):
        mult[int(rng.integers(0, l))] += 1
    a = sampling.hermitian_with_spectrum(rng, lam, mult)
    b = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.2, 1.5)))
    return a, b


def lemma_dp_vs_bruteforce(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a, b = _random_builder_instance(rng, max_dim, min_gap)
        n_steps = int(rng.integers(1, 7))
        cfg = ApproximantConfig(N=n_steps)
        m_dp = build_measure_dp(a, b, cfg)
        m_bf = build_measure_bruteforce(a, b, cfg)
        if len(m_dp) != len(m_bf):
            return -1.0, lambda: _payload(a=a, b=b, N=n_steps)
        loc_gap = float(np.abs(m_dp.locations - m_bf.locations).max())
        w_gap = float(np.abs(m_dp.weights - m_bf.weights).max())
        margin = min(1e-12 - loc_gap, 1e-10 - w_gap)
        return margin, lambda: _payload(a=a, b=b, N=n_steps)

    return _run("dp-vs-bruteforce", trials, gen)


def lemma_transform_identity(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a, b = _random_builder_instance(rng, max_dim, min_gap)
        n_steps = int(rng.choice([4, 8, 16]))
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        ts = np.array([-1.0, -0.3, 0.0, 0.7, 1.0, 1j, -1j])
        ln = lie_approximant(a, b, ts, n_steps)
        gaps = batched_operator_norms(laplace_transform(m, ts) - ln)
        margin = float((1e-9 * np.maximum(1.0, batched_operator_norms(ln)) - gaps).min())
        return margin, lambda: _payload(a=a, b=b, N=n_steps)

    return _run("transform-identity", trials, gen)


def lemma_support_in_hull(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a, b = _random_builder_instance(rng, max_dim, min_gap)
        n_steps = int(rng.integers(1, 9))
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        dec = decompose(a)
        hull = n_convex_hull(dec.eigenvalues, n_steps)
        inside = min(
            float(m.locations.min() - dec.lambda_min),
            float(dec.lambda_max - m.locations.max()),
        )
        hull_gap = float(
            np.abs(m.locations[:, np.newaxis] - hull[np.newaxis, :]).min(axis=1).max()
        )
        margin = min(inside + 1e-12, 1e-12 - hull_gap)
        return margin, lambda: _payload(a=a, b=b, N=n_steps)

    return _run("support-in-hull", trials, gen)


def lemma_total_mass(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        a, b = _random_builder_instance(rng, max_dim, min_gap)
        n_steps = int(rng.integers(1, 9))
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        gap = operator_norm(moment(m, 0) - matrix_exp(b))
        return 1e-10 - gap, lambda: _payload(a=a, b=b, N=n_steps)

    return _run("total-mass", trials, gen)


def lemma_commuting_exactness(rng, trials, max_dim, min_gap=0.0):
    def gen(i):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        a, b = sampling.commuting_hermitian_pair(rng, n, scale=1.5)
        n_steps = int(rng.choice([1, 3, 8]))
        m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
        ref = commuting_case_measure(a, b)
        ts = np.array([-1.0, 0.0, 0.5, 1.0])
        truths = np.stack([matrix_exp(t * a + b) for t in ts])
        worst = float(batched_operator_norms(laplace_transform(m, ts) - truths).max())
        # every reference atom must appear with the right weight; atoms from
        # mixed index tuples survive only as numerical dust and must be empty
        matched = np.zeros(len(m), dtype=bool)
        for lam, w in zip(ref.locations, ref.weights):
            k = int(np.abs(m.locations - lam).argmin())
            if abs(float(m.locations[k]) - lam) > 1e-9:
                worst = math.inf
                break
            matched[k] = True
            worst = max(worst, float(np.abs(m.weights[k] - w).max()))
        else:
            if not matched.all():
                worst = max(worst, float(np.abs(m.weights[~matched]).max()))
        return 1e-10 - worst, lambda: _payload(a=a, b=b, N=n_steps)

    return _run("commuting-exactness", trials, gen)


# ---------------------------------------------------------------- registry

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


def run_lemma(fn, trials: int, seed: int, max_dim: int = 4, min_gap: float = 0.0) -> LemmaResult:
    """Run one lemma with a generator derived from (seed, lemma index)."""
    rng = np.random.default_rng([seed, _LEMMA_INDEX[fn]])
    return fn(rng, trials, max_dim, min_gap)


def run_suite(
    suite: str, trials: int, seed: int, max_dim: int = 4, min_gap: float = 0.0
) -> list[LemmaResult]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    results = []
    for name in names:
        for fn in SUITES[name]:
            results.append(run_lemma(fn, trials, seed, max_dim, min_gap))
    return results
