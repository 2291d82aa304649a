"""The subordination suite: entrywise domination under majorants, sums, products and exponentials."""

import math

import numpy as np

from .. import sampling
from ..linalg import batched_operator_norms, matrix_exp
from ..norms import _exp_monotone, _majorants, _subordinations, rank_one_exp
from .harness import as_payload, dim, fields, matrices, matrix_dim, run_trials


def _dominated(draws) -> tuple:
    """(s, m) of (s, fractions, phases) draws, m = random_subordinate_to(rng, s) of one s or a stack of them."""
    s, fraction, phase = fields(draws)
    return s, sampling.form_subordinate(s, fraction, phase)


def lemma_majorant_dominates(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))

    def margins(b):
        return _subordinations(b, _majorants(b))[3]

    return run_trials("majorant-dominates", rng, trials, draw, matrix_dim, margins,
                      lambda b: as_payload(b=b), lambda draws: (matrices(draws),))


def lemma_majorant_norm_identities(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        return sampling.draw_matrix(rng, n), float(rng.uniform(0.05, 5.0))

    def form(draws):
        return (sampling.scaled_to_norm(matrices([d[0] for d in draws]), np.array([d[1] for d in draws])),)

    def margins(b):
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
                      margins, lambda b: as_payload(b=b), form)


def lemma_norm_monotone(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        s = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        return (s, *sampling.draw_polar(rng, s.shape))

    def margins(s, m):
        ns, nm = batched_operator_norms(np.concatenate([s, m])).reshape(2, len(s))
        return ns + 1e-10 - nm

    return run_trials("norm-monotone-under-domination", rng, trials, draw, dim, margins,
                      lambda s, m: as_payload(m=m, s=s), _dominated)


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

    def margins(s, m):
        # (k, chain, n, n) dominators and dominated; sums and products of each chain in order
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
                      lambda s, m: as_payload(s0=s[0], m0=m[0], chain=len(s)), _dominated)


def lemma_exp_monotone(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        x = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        return (x, *sampling.draw_polar(rng, x.shape))

    return run_trials("exp-preserves-domination", rng, trials, draw, dim,
                      lambda x, y: _exp_monotone(x, y)[3], lambda x, y: as_payload(x=x, y=y), _dominated)
