"""The subordination suite: entrywise domination under majorants, sums, products and exponentials."""

import math

import numpy as np

from .. import sampling
from ..linalg import batched_operator_norms, matrix_exp
from ..norms import _exp_monotone, _majorants, _subordinations, rank_one_exp
from .harness import as_payload, dim, fields, matrices, matrix_cases, matrix_dim, run_trials, stack


def _dominated(draws) -> list:
    """(s, m) of (s, fractions, phases) draws, m = random_subordinate_to(rng, s) of one s or a stack of them."""
    s, fraction, phase = fields(draws)
    return list(zip(s, sampling.form_subordinate(s, fraction, phase)))


def lemma_majorant_dominates(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))

    def margins(cases):
        b = stack(cases)
        return _subordinations(b, _majorants(b))[3]

    return run_trials("majorant-dominates", rng, trials, draw, matrix_dim, margins,
                      lambda c: as_payload(b=c[0]), matrix_cases)


def lemma_majorant_norm_identities(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        return sampling.draw_matrix(rng, n), float(rng.uniform(0.05, 5.0))

    def form(draws):
        b = sampling.scaled_to_norm(matrices([d[0] for d in draws]), np.array([d[1] for d in draws]))
        return [(x,) for x in b]

    def margins(cases):
        b = stack(cases)
        k, n = b.shape[:2]
        c = batched_operator_norms(b)
        r = _majorants(b)
        closed = np.stack([rank_one_exp(x) for x in r])
        series = matrix_exp(r.astype(np.complex128)).real
        norms = batched_operator_norms(np.concatenate([r, closed, closed - series])).reshape(3, k)
        out = []
        for cb, nr, nclosed, form_gap in zip(c.tolist(), *norms.tolist()):
            enorm = math.exp(n * cb)
            out.append(min(
                1e-12 * max(1.0, n * cb) - abs(nr - n * cb),
                1e-11 * max(1.0, enorm) - abs(nclosed - enorm),
                1e-11 * max(1.0, enorm) - form_gap,
            ))
        return out

    return run_trials("majorant-norm-identities", rng, trials, draw, lambda d: matrix_dim(d[0]),
                      margins, lambda c: as_payload(b=c[0]), form)


def lemma_norm_monotone(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        s = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        return (s, *sampling.draw_polar(rng, s.shape))

    def margins(cases):
        norms = batched_operator_norms(np.concatenate([stack(cases, 1), stack(cases, 0)]))
        ns, nm = norms.reshape(2, len(cases))
        return ns + 1e-10 - nm

    return run_trials("norm-monotone-under-domination", rng, trials, draw, dim, margins,
                      lambda c: as_payload(m=c[0], s=c[1]),
                      lambda draws: [(m, s) for s, m in _dominated(draws)])


def lemma_sum_product_closure(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        chain = int(rng.integers(2, 5))
        dominators = [
            sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5)))
            for _ in range(chain)
        ]
        fractions, phases = zip(*[sampling.draw_polar(rng, s.shape) for s in dominators])
        return dominators, fractions, phases

    def margins(cases):
        # (k, chain, n, n) dominators and dominated; sums and products of each chain in order
        s, m = stack(cases, 0), stack(cases, 1)
        sum_s, sum_m = np.add.reduce(s, axis=1), np.add.reduce(m, axis=1)
        prod_s, prod_m = s[:, 0], m[:, 0]
        for j in range(1, s.shape[1]):
            prod_s = prod_s @ s[:, j]
            prod_m = prod_m @ m[:, j]
        by_sum = _subordinations(sum_m, sum_s)[3]
        by_prod = _subordinations(prod_m, prod_s)[3]
        # min(by_sum, by_prod) as Python takes it, a NaN included
        return np.where(by_prod < by_sum, by_prod, by_sum)

    return run_trials("domination-sum-product-closure", rng, trials, draw,
                      lambda c: (len(c[0][0]), len(c[0])), margins,
                      lambda c: as_payload(s0=c[0][0], m0=c[1][0], chain=len(c[0])), _dominated)


def lemma_exp_monotone(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        x = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        return (x, *sampling.draw_polar(rng, x.shape))

    def margins(cases):
        return _exp_monotone(stack(cases, 0), stack(cases, 1))[3]

    return run_trials("exp-preserves-domination", rng, trials, draw, dim, margins,
                      lambda c: as_payload(x=c[0], y=c[1]), _dominated)
