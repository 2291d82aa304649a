"""The approximant suite: the builders against each other, the transform, the support, the mass, commuting pairs."""

import numpy as np

from .. import sampling
from ..approximant import (
    _bruteforce_measures,
    _commuting_measure,
    _lie_approximants,
    _torus_measures,
    _torus_peak_bytes,
    n_convex_hull,
)
from ..linalg import _hermitian_stack, _tuple_peak_bytes, batched_operator_norms, matrix_exp, operator_norm
from ..measure import laplace_transform, moment
from .harness import Build, build_lemma, built_margins, stack


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


def _builder_draw(max_dim, min_gap, steps):
    """draw(rng) of a random builder instance and then steps(rng), its step count."""
    def draw(rng):
        a, b = _random_builder_instance(rng, max_dim, min_gap)
        return Build(a, b, steps(rng))

    return draw


def lemma_dp_vs_bruteforce(rng, trials, max_dim, min_gap=0.0):
    def both(decs, steps, cfg):
        return zip(_torus_measures(decs, steps, cfg), _bruteforce_measures(decs, steps, cfg))

    def margin(i, dec, measures):
        m_dp, m_bf = measures
        if len(m_dp) != len(m_bf):
            return -1.0
        loc_gap = float(np.abs(m_dp.locations - m_bf.locations).max())
        w_gap = float(np.abs(m_dp.weights - m_bf.weights).max())
        return min(1e-12 - loc_gap, 1e-10 - w_gap)

    def peak(l, n_steps, n):
        return _torus_peak_bytes(l, n_steps, n) + _tuple_peak_bytes(l, n_steps, n)

    draw = _builder_draw(max_dim, min_gap, lambda rng: int(rng.integers(1, 7)))
    return build_lemma("dp-vs-bruteforce", rng, trials, draw,
                       lambda cases: built_margins(cases, margin, peak, both))


_TRANSFORM_POINTS = np.array([-1.0, -0.3, 0.0, 0.7, 1.0, 1j, -1j])


def lemma_transform_identity(rng, trials, max_dim, min_gap=0.0):
    def margins(cases):
        a, b = stack(cases, 0), stack(cases, 1)
        ln = _lie_approximants(_hermitian_stack(a, name="a"), b, _TRANSFORM_POINTS, cases[0].N)
        tol = 1e-9 * np.maximum(1.0, batched_operator_norms(ln.reshape(-1, *a.shape[1:])))
        tol = tol.reshape(ln.shape[:2])

        def margin(i, dec, m):
            gaps = batched_operator_norms(laplace_transform(m, _TRANSFORM_POINTS) - ln[i])
            return float((tol[i] - gaps).min())

        return built_margins(cases, margin)

    draw = _builder_draw(max_dim, min_gap, lambda rng: int(rng.choice([4, 8, 16])))
    return build_lemma("transform-identity", rng, trials, draw, margins)


def lemma_support_in_hull(rng, trials, max_dim, min_gap=0.0):
    def margin(i, dec, m):
        hull = n_convex_hull(dec.eigenvalues, m.N)
        inside = min(
            float(m.locations.min() - dec.lambda_min),
            float(dec.lambda_max - m.locations.max()),
        )
        hull_gap = float(
            np.abs(m.locations[:, np.newaxis] - hull[np.newaxis, :]).min(axis=1).max()
        )
        return min(inside + 1e-12, 1e-12 - hull_gap)

    draw = _builder_draw(max_dim, min_gap, lambda rng: int(rng.integers(1, 9)))
    return build_lemma("support-in-hull", rng, trials, draw,
                       lambda cases: built_margins(cases, margin))


def lemma_total_mass(rng, trials, max_dim, min_gap=0.0):
    def margins(cases):
        eb = matrix_exp(stack(cases, 1))
        return built_margins(cases, lambda i, dec, m: 1e-10 - operator_norm(moment(m, 0) - eb[i]))

    draw = _builder_draw(max_dim, min_gap, lambda rng: int(rng.integers(1, 9)))
    return build_lemma("total-mass", rng, trials, draw, margins)


_COMMUTING_POINTS = np.array([-1.0, 0.0, 0.5, 1.0])


def lemma_commuting_exactness(rng, trials, max_dim, min_gap=0.0):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        a, b = sampling.commuting_hermitian_pair(rng, n, scale=1.5)
        return Build(a, b, int(rng.choice([1, 3, 8])))

    def margins(cases):
        a, b = stack(cases, 0), stack(cases, 1)
        eb = matrix_exp(b)
        # e^(ta+b) at each point t, a point's stack of every case at a time
        ts = _COMMUTING_POINTS[:, np.newaxis, np.newaxis, np.newaxis]
        truths = matrix_exp((ts * a + b).reshape(-1, *a.shape[1:])).reshape(len(ts), *a.shape)
        # commuting_case_measure(a, b), from the build's own decomposition of a
        return built_margins(
            cases, lambda i, dec, m: margin(_commuting_measure(dec, eb[i]), truths[:, i], m)
        )

    def margin(ref, truths, m):
        values = laplace_transform(m, _COMMUTING_POINTS)
        worst = float(batched_operator_norms(values - truths).max())
        # every reference atom must appear at its own location with the right
        # weight; atoms from mixed index tuples survive only as numerical dust
        # and must be empty
        nearest = np.abs(m.locations - ref.locations[:, np.newaxis]).argmin(axis=1)
        gaps = np.abs(m.locations[nearest] - ref.locations)
        if (gaps > 1e-9).any():
            return 1e-10 - float(gaps[np.argmax(gaps > 1e-9)])
        worst = max(worst, float(np.abs(m.weights[nearest] - ref.weights).max()))
        dust = np.ones(len(m), dtype=bool)
        dust[nearest] = False
        if dust.any():
            worst = max(worst, float(np.abs(m.weights[dust]).max()))
        return 1e-10 - worst

    return build_lemma("commuting-exactness", rng, trials, draw, margins)
