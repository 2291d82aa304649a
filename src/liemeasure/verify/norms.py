"""The norms suite: operator norms against entry sums, the reverse triangle bound, submultiplicativity."""

import numpy as np

from .. import sampling
from ..linalg import batched_operator_norms, entry_abs_sum
from ..norms import _inverse_triangle_sums
from .harness import as_payload, dim, matrices, matrix_dim, run_trials


def lemma_entry_sum_dominates_norm(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 3.0)))

    def margins(m):
        return np.array([entry_abs_sum(x) for x in m]) + 1e-12 - batched_operator_norms(m)

    return run_trials("entry-sum-dominates-norm", rng, trials, draw, matrix_dim, margins,
                      lambda m: as_payload(m=m), lambda draws: (matrices(draws),))


def lemma_nonneg_entry_sum_bound(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return (sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 3.0))),)

    def margins(s):
        n = s.shape[1]
        return n * batched_operator_norms(s) + 1e-10 - s.reshape(len(s), -1).sum(axis=1)

    return run_trials("nonneg-entry-sum-bound", rng, trials, draw, dim, margins,
                      lambda s: as_payload(s=s))


def lemma_inverse_triangle(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return [
            sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 2.0)))
            for _ in range(int(rng.integers(2, 6)))
        ]

    def margins(parts):
        lhs, rhs = _inverse_triangle_sums(parts)
        return rhs + 1e-10 - lhs

    return run_trials("inverse-triangle", rng, trials, draw, lambda d: (len(d[0]), len(d)), margins,
                      lambda parts: as_payload(part0=parts[0], count=len(parts)),
                      lambda draws: (np.array(draws),))


def lemma_submultiplicative(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        a = sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        b = sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        return a, b

    def form(draws):
        return matrices([d[0] for d in draws]), matrices([d[1] for d in draws])

    def margins(a, b):
        norms = batched_operator_norms(np.concatenate([a, b, a @ b]))
        na, nb, nab = norms.reshape(3, len(a))
        return na * nb + 1e-10 - nab

    return run_trials("submultiplicative-norm", rng, trials, draw,
                      lambda d: matrix_dim(d[0]), margins, lambda a, b: as_payload(a=a, b=b), form)
