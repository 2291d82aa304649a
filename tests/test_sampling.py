"""The generators' draws and stacked formers: a stack forms each instance bit for bit as it forms alone."""

import numpy as np
import pytest

from liemeasure import sampling
from liemeasure.linalg import operator_norm

DIMS = [1, 2, 3, 4, 5, 6]


def _same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _stacked(draws):
    """Each field of the draws stacked along a new first axis."""
    return [np.array(field) for field in zip(*draws)]


def _each_alone(former, draws, stacked_out):
    for i, draw in enumerate(draws):
        alone = former(*draw)
        if isinstance(alone, tuple):
            for got, want in zip(stacked_out, alone):
                _same(got[i], want)
        else:
            _same(stacked_out[i], alone)


@pytest.mark.parametrize("n", DIMS)
def test_stacked_unitaries_equal_one_at_a_time_bit_for_bit(rng, n):
    draws = [sampling.draw_unitary(rng, n) for _ in range(40)]
    u = sampling.form_unitaries(*_stacked(draws))
    _each_alone(sampling.form_unitaries, draws, u)
    assert np.allclose(u @ u.conj().swapaxes(1, 2), np.eye(n))


@pytest.mark.parametrize("n", DIMS)
def test_stacked_spectra_and_hermitian_forms_equal_one_at_a_time_bit_for_bit(rng, n):
    spectra = [sampling.draw_spaced(rng, n) for _ in range(40)]
    lam = sampling.form_spaced(np.array(spectra), 0.15)
    for got, raw in zip(lam, spectra):
        _same(got, sampling.form_spaced(raw, 0.15))
    assert (np.diff(lam, axis=1) >= 0.15 - 1e-12).all()
    # repeated eigenvalues: the first value n times... down to each value once
    for mult in ([n], [1] * n, [n - 1, 1] if n > 1 else [1], [1, n - 1] if n > 1 else [1]):
        values = np.repeat(rng.uniform(-2.0, 2.0, len(mult)), mult)
        diag = np.stack([values] * 30)
        u = sampling.form_unitaries(*_stacked([sampling.draw_unitary(rng, n) for _ in range(30)]))
        a = sampling.form_with_spectrum(diag, u)
        for got, d, ui in zip(a, diag, u):
            _same(got, sampling.form_with_spectrum(d, ui))
        _same(sampling.form_hermitian(a), a)


@pytest.mark.parametrize("n", DIMS)
def test_stacked_disc_matrices_equal_one_at_a_time_bit_for_bit(rng, n):
    draws = [sampling.draw_matrix(rng, n, float(rng.uniform(0.1, 3.0))) for _ in range(40)]
    m = sampling.form_matrices(*_stacked(draws))
    _each_alone(sampling.form_matrices, draws, m)
    h = sampling.form_hermitian(m)
    for got, mi in zip(h, m):
        _same(got, sampling.form_hermitian(mi))
    polar = [sampling.draw_polar(rng, n) for _ in range(40)]
    _each_alone(sampling.form_disc, polar, sampling.form_disc(*_stacked(polar)))
    assert (np.abs(m) <= np.array([d[0] for d in draws])[:, None, None]).all()


@pytest.mark.parametrize("n", DIMS)
def test_stacked_scaling_equals_one_at_a_time_and_keeps_a_zero_matrix(rng, n):
    m = sampling.form_matrices(*_stacked([sampling.draw_matrix(rng, n) for _ in range(20)]))
    zero = np.zeros((n, n), dtype=complex)
    zero.real[0, 0] = -0.0
    zero.imag[-1, 0] = -0.0
    m[[3, 11]] = zero
    targets = rng.uniform(0.05, 5.0, len(m))
    scaled = sampling.scaled_to_norm(m, targets)
    for i, (got, mi, target) in enumerate(zip(scaled, m, targets)):
        _same(got, sampling.scaled_to_norm(mi, float(target)))
        if i not in (3, 11):
            _same(got, mi * (float(target) / operator_norm(mi)))
    # a zero matrix comes back as it went in, signs of zero included
    _same(scaled[3], zero)
    _same(scaled[11], zero)


@pytest.mark.parametrize("n", DIMS)
def test_stacked_commuting_pairs_dominated_and_partitions_equal_one_at_a_time(rng, n):
    pairs = [sampling.draw_commuting_pair(rng, n, 1.5) for _ in range(30)]
    a, b = sampling.form_commuting_pairs(*_stacked(pairs))
    _each_alone(sampling.form_commuting_pairs, pairs, (a, b))
    assert np.allclose(a @ b, b @ a)

    s = rng.uniform(0.0, 2.0, (30, 3, n, n))
    polar = [sampling.draw_polar(rng, (3, n, n)) for _ in range(30)]
    fraction, phase = _stacked(polar)
    m = sampling.form_subordinate(s, fraction, phase)
    for got, si, (f, p) in zip(m, s, polar):
        _same(got, sampling.form_subordinate(si, f, p))
        _same(got[1], sampling.form_subordinate(si[1], f[1], p[1]))
    assert (np.abs(m) <= s).all()

    weights = [sampling.draw_partition(rng, n, parts) for parts in (1, 3) for _ in range(15)]
    for same_parts in (weights[:15], weights[15:]):
        projectors = sampling.form_partitions(np.array(same_parts))
        for got, w in zip(projectors, same_parts):
            _same(got, sampling.form_partitions(w))
        assert np.allclose(projectors.sum(axis=1), np.eye(n))


def test_each_generator_is_its_draw_then_its_former(rng):
    seed = int(rng.integers(2**31))
    pairs = [
        (lambda g: sampling.random_unitary(g, 3), lambda g: sampling.form_unitaries(*sampling.draw_unitary(g, 3))),
        (lambda g: sampling.random_matrix(g, 4, 0.7), lambda g: sampling.form_matrices(*sampling.draw_matrix(g, 4, 0.7))),
        (lambda g: sampling.spaced_values(g, 5, 0.2), lambda g: sampling.form_spaced(sampling.draw_spaced(g, 5), 0.2)),
        (lambda g: sampling.random_diagonal_partition(g, 3, 2),
         lambda g: sampling.form_partitions(sampling.draw_partition(g, 3, 2))),
        (lambda g: sampling.hermitian_with_spectrum(g, [-1.0, 0.5], [2, 1]),
         lambda g: sampling.form_with_spectrum(np.array([-1.0, -1.0, 0.5]),
                                               sampling.form_unitaries(*sampling.draw_unitary(g, 3)))),
    ]
    for generator, drawn in pairs:
        first, second = np.random.default_rng(seed), np.random.default_rng(seed)
        _same(generator(first), drawn(second))
        # and both leave the generator in the same state
        assert first.integers(2**63) == second.integers(2**63)
