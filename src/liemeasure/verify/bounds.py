"""The bounds suite: the total-variation bound, the partition product bound, tuple-norm regrouping."""

import numpy as np

from .. import sampling
from ..approximant import _SLAB_BYTES, _grouped_measures, _tuple_products
from ..linalg import _tuple_norm_sums, _tuple_peak_bytes
from ..measure import total_variation
from ..norms import _partition_products, total_variation_bound
from .harness import Build, as_payload, build_lemma, built_margins, run_trials, stack


def lemma_tv_bound(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        a = sampling.random_hermitian(rng, n, scale=2.0)
        b = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        return Build(a, b, int(rng.integers(1, 7)))

    def margins(cases):
        def margin(i, dec, m):
            return total_variation_bound(len(cases[i].a), cases[i].b) + 1e-8 - total_variation(m)

        return built_margins(cases, margin)

    return build_lemma("total-variation-bound", rng, trials, draw, margins)


def lemma_partition_product_bound(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        parts = int(rng.integers(1, 4))
        n_steps = int(rng.integers(1, 6))
        projectors = sampling.random_diagonal_partition(rng, n, parts)
        r = sampling.random_nonneg(rng, n, scale=float(rng.uniform(0.1, 1.2)))
        return projectors, r, n_steps

    def margins(cases):
        projectors, r = stack(cases, 0), stack(cases, 1)
        n_steps = cases[0][2]
        k, l, n = projectors.shape[:3]
        out = np.empty(k)
        per = max(1, _SLAB_BYTES // _tuple_peak_bytes(l, n_steps, n))
        for start in range(0, k, per):
            part = slice(start, start + per)
            sums, bounds, gaps = _partition_products(projectors[part], r[part], n_steps)
            out[part] = np.minimum(bounds + 1e-8 - sums, 1e-9 - gaps)
        return out

    return run_trials("partition-product-bound", rng, trials, draw,
                      lambda c: (len(c[1]), len(c[0]), c[2]), margins,
                      lambda c: as_payload(r=c[1], parts=len(c[0]), N=c[2]))


def lemma_tuple_norm_regrouping(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        a = sampling.random_hermitian(rng, n, scale=2.0)
        b = sampling.random_matrix(rng, n, scale=float(rng.uniform(0.1, 1.5)))
        return Build(a, b, int(rng.integers(1, 6)))

    def regrouped(decs, steps, cfg):
        prods = _tuple_products(decs, steps, cfg.N)
        return zip(_grouped_measures(prods, decs, cfg), _tuple_norm_sums(prods))

    def margin(i, dec, built):
        m, norm_sum = built
        return norm_sum + 1e-10 - total_variation(m)

    return build_lemma("tuple-norm-regrouping", rng, trials, draw,
                       lambda cases: built_margins(cases, margin, _tuple_peak_bytes, regrouped))
