"""The subordination suite: entrywise domination under majorants, sums, products and exponentials."""

import math

import numpy as np

from .. import sampling
from ..linalg import batched_operator_norms, matrix_exp, operator_norm
from ..norms import check_exp_monotone, is_subordinate, norm_majorant, rank_one_exp
from .harness import as_payload, dim, run_trials, stack


def _witness_margin(witness, majorant) -> float:
    return witness.slack + 1e-12 * max(1.0, operator_norm(majorant))



def lemma_majorant_dominates(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return (sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0))),)

    def margins(cases):
        out = []
        for (b,) in cases:
            s = norm_majorant(b)
            out.append(_witness_margin(is_subordinate(b, s), s))
        return out

    return run_trials("majorant-dominates", rng, trials, draw, dim, margins,
                      lambda c: as_payload(b=c[0]))


def lemma_majorant_norm_identities(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        b = sampling.scaled_to_norm(sampling.random_matrix(rng, n), float(rng.uniform(0.05, 5.0)))
        return (b,)

    def margins(cases):
        b = stack(cases)
        k, n = b.shape[:2]
        c = batched_operator_norms(b)
        r = np.stack([norm_majorant(x) for x in b])
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

    return run_trials("majorant-norm-identities", rng, trials, draw, dim, margins,
                      lambda c: as_payload(b=c[0]))


def lemma_norm_monotone(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        s = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        return sampling.random_subordinate_to(rng, s), s

    def margins(cases):
        norms = batched_operator_norms(np.concatenate([stack(cases, 1), stack(cases, 0)]))
        ns, nm = norms.reshape(2, len(cases))
        return ns + 1e-10 - nm

    return run_trials("norm-monotone-under-domination", rng, trials, draw, dim, margins,
                      lambda c: as_payload(m=c[0], s=c[1]))


def lemma_sum_product_closure(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        chain = int(rng.integers(2, 5))
        dominators = [
            sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5)))
            for _ in range(chain)
        ]
        return dominators, [sampling.random_subordinate_to(rng, s) for s in dominators]

    def margins(cases):
        out = []
        for dominators, dominated in cases:
            sum_s = np.add.reduce(np.stack(dominators), axis=0)
            sum_m = np.add.reduce(np.stack(dominated), axis=0)
            prod_s = dominators[0]
            prod_m = dominated[0]
            for s, m in zip(dominators[1:], dominated[1:]):
                prod_s = prod_s @ s
                prod_m = prod_m @ m
            w_sum = is_subordinate(sum_m, sum_s)
            w_prod = is_subordinate(prod_m, prod_s)
            out.append(min(_witness_margin(w_sum, sum_s), _witness_margin(w_prod, prod_s)))
        return out

    return run_trials("domination-sum-product-closure", rng, trials, draw,
                      lambda c: (len(c[0][0]), len(c[0])), margins,
                      lambda c: as_payload(s0=c[0][0], m0=c[1][0], chain=len(c[0])))


def lemma_exp_monotone(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 6) + 1))
        x = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        return x, sampling.random_subordinate_to(rng, x)

    def margins(cases):
        ex = matrix_exp(stack(cases, 0).astype(np.complex128)).real
        return [
            _witness_margin(check_exp_monotone(x, y), e) for (x, y), e in zip(cases, ex)
        ]

    return run_trials("exp-preserves-domination", rng, trials, draw, dim, margins,
                      lambda c: as_payload(x=c[0], y=c[1]))
