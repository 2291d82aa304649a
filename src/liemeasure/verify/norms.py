"""The norms suite: operator norms against entry sums, the reverse triangle bound, submultiplicativity."""

import numpy as np

from .. import sampling
from ..linalg import batched_operator_norms, entry_abs_sum
from ..norms import _inverse_triangle_sums
from .harness import as_payload, dim, groups, matrices, matrix_cases, matrix_dim, run_trials, stack


def lemma_entry_sum_dominates_norm(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 3.0)))

    def margins(cases):
        m = stack(cases)
        return np.array([entry_abs_sum(x) for x in m]) + 1e-12 - batched_operator_norms(m)

    return run_trials("entry-sum-dominates-norm", rng, trials, draw, matrix_dim, margins,
                      lambda c: as_payload(m=c[0]), matrix_cases)


def lemma_nonneg_entry_sum_bound(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return (sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 3.0))),)

    def margins(cases):
        s = stack(cases)
        n = s.shape[1]
        return n * batched_operator_norms(s) + 1e-10 - s.reshape(len(s), -1).sum(axis=1)

    return run_trials("nonneg-entry-sum-bound", rng, trials, draw, dim, margins,
                      lambda c: as_payload(s=c[0]))


def lemma_inverse_triangle(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        return [
            sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 2.0)))
            for _ in range(int(rng.integers(2, 6)))
        ]

    def margins(cases):
        out = np.empty(len(cases))
        for idx in groups(map(len, cases)):
            lhs, rhs = _inverse_triangle_sums(np.array([cases[i] for i in idx]))
            out[idx] = rhs + 1e-10 - lhs
        return out

    return run_trials("inverse-triangle", rng, trials, draw, dim, margins,
                      lambda c: as_payload(part0=c[0], count=len(c)))


def lemma_submultiplicative(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(1, max_dim + 1))
        a = sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        b = sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        return a, b

    def form(draws):
        return list(zip(matrices([d[0] for d in draws]), matrices([d[1] for d in draws])))

    def margins(cases):
        a, b = stack(cases, 0), stack(cases, 1)
        norms = batched_operator_norms(np.concatenate([a, b, a @ b]))
        na, nb, nab = norms.reshape(3, len(cases))
        return na * nb + 1e-10 - nab

    return run_trials("submultiplicative-norm", rng, trials, draw,
                      lambda d: matrix_dim(d[0]), margins, lambda c: as_payload(a=c[0], b=c[1]), form)
