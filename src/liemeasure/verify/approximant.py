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
from .harness import BuildDraw, build_lemma, built_margins, fields, groups, matrices


def _builder_draw(max_dim, steps):
    """draw(rng) of a random builder instance and then steps(rng), its step count.

    The instance is hermitian_with_spectrum(rng, spaced_values(rng, l, 0.15), mult)
    with l clusters of random multiplicities, n = 2..4, and a random_matrix b;
    its draw keeps the unsorted values, the cluster that each of the n - l
    extra eigenvalues joins, and the draws of the unitary and of b.
    """
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        l = int(rng.integers(1, min(n, 3) + 1))
        spectrum = sampling.draw_spaced(rng, l)
        joins = [int(rng.integers(0, l)) for _ in range(n - l)]
        a = spectrum, joins, sampling.draw_unitary(rng, n)
        b = sampling.draw_matrix(rng, n, scale=float(rng.uniform(0.2, 1.5)))
        return BuildDraw(n, a, b, steps(rng))

    return draw


def _builder_pairs(draws):
    """The stacked a and b of _builder_draw draws: the spectra of each cluster count in one call, then one QR for all."""
    spectra, joins, unitaries = zip(*(d.a for d in draws))
    diag = np.empty((len(draws), draws[0].n))
    for idx in groups(map(len, spectra)):
        lam = sampling.form_spaced(np.array([spectra[i] for i in idx]), 0.15)
        # np.repeat(lam, mult), mult[j] = 1 + the extra eigenvalues that join cluster j
        labels = np.array([sorted([*range(lam.shape[1]), *joins[i]]) for i in idx])
        diag[idx] = np.take_along_axis(lam, labels, axis=1)
    a = sampling.form_with_spectrum(diag, sampling.form_unitaries(*fields(unitaries)))
    return a, matrices([d.b for d in draws])


def lemma_dp_vs_bruteforce(rng, trials, max_dim):
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

    draw = _builder_draw(max_dim, lambda rng: int(rng.integers(1, 7)))
    return build_lemma("dp-vs-bruteforce", rng, trials, draw, _builder_pairs,
                       lambda a, b, N: built_margins(a, b, N, margin, peak, both))


_TRANSFORM_POINTS = np.array([-1.0, -0.3, 0.0, 0.7, 1.0, 1j, -1j])


def lemma_transform_identity(rng, trials, max_dim):
    def margins(a, b, N):
        ln = _lie_approximants(_hermitian_stack(a, name="a"), b, _TRANSFORM_POINTS, int(N[0]))
        tol = 1e-9 * np.maximum(1.0, batched_operator_norms(ln.reshape(-1, *a.shape[1:])))
        tol = tol.reshape(ln.shape[:2])

        def margin(i, dec, m):
            gaps = batched_operator_norms(laplace_transform(m, _TRANSFORM_POINTS) - ln[i])
            return float((tol[i] - gaps).min())

        return built_margins(a, b, N, margin)

    draw = _builder_draw(max_dim, lambda rng: int(rng.choice([4, 8, 16])))
    return build_lemma("transform-identity", rng, trials, draw, _builder_pairs, margins)


def lemma_support_in_hull(rng, trials, max_dim):
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

    draw = _builder_draw(max_dim, lambda rng: int(rng.integers(1, 9)))
    return build_lemma("support-in-hull", rng, trials, draw, _builder_pairs,
                       lambda a, b, N: built_margins(a, b, N, margin))


def lemma_total_mass(rng, trials, max_dim):
    def margins(a, b, N):
        eb = matrix_exp(b)
        return built_margins(a, b, N, lambda i, dec, m: 1e-10 - operator_norm(moment(m, 0) - eb[i]))

    draw = _builder_draw(max_dim, lambda rng: int(rng.integers(1, 9)))
    return build_lemma("total-mass", rng, trials, draw, _builder_pairs, margins)


_COMMUTING_POINTS = np.array([-1.0, 0.0, 0.5, 1.0])


def lemma_commuting_exactness(rng, trials, max_dim):
    def draw(rng):
        n = int(rng.integers(2, min(max_dim, 4) + 1))
        pair = sampling.draw_commuting_pair(rng, n, scale=1.5)
        return BuildDraw(n, pair, None, int(rng.choice([1, 3, 8])))

    def form_pairs(draws):
        return sampling.form_commuting_pairs(*fields(d.a for d in draws))

    def margins(a, b, N):
        eb = matrix_exp(b)
        # e^(ta+b) at each point t, a point's stack of every trial at a time
        ts = _COMMUTING_POINTS[:, np.newaxis, np.newaxis, np.newaxis]
        truths = matrix_exp((ts * a + b).reshape(-1, *a.shape[1:])).reshape(len(ts), *a.shape)
        # commuting_case_measure(a, b), from the build's own decomposition of a
        return built_margins(
            a, b, N, lambda i, dec, m: margin(_commuting_measure(dec, eb[i]), truths[:, i], m)
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

    return build_lemma("commuting-exactness", rng, trials, draw, form_pairs, margins)
