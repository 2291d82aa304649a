"""Spectral decomposition into distinct eigenvalues and their projectors."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liemeasure.linalg import matrix_exp, operator_norm
from liemeasure.sampling import hermitian_with_spectrum, random_hermitian, spaced_values
from liemeasure.spectral import SpectralDecomposition, apply_function, decompose, scaled_exp


def test_decompose_known_2x2():
    # [[2,1],[1,0]] has eigenvalues 1 +- sqrt(2); projectors worked out by hand
    m = np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex)
    dec = decompose(m)
    s = math.sqrt(2.0)
    assert dec.eigenvalues == pytest.approx([1.0 - s, 1.0 + s], abs=1e-12)
    e_minus = np.array([[(s - 1) / (2 * s), -1 / (2 * s)], [-1 / (2 * s), (s + 1) / (2 * s)]])
    e_plus = np.array([[(s + 1) / (2 * s), 1 / (2 * s)], [1 / (2 * s), (s - 1) / (2 * s)]])
    assert np.abs(dec.projectors[0] - e_minus).max() <= 1e-12
    assert np.abs(dec.projectors[1] - e_plus).max() <= 1e-12
    assert len(dec) == 2
    assert dec.lambda_min == pytest.approx(1.0 - s)
    assert dec.lambda_max == pytest.approx(1.0 + s)


def test_decompose_clusters_near_degenerate():
    a = np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex)
    dec = decompose(a, cluster_tol=1e-8)
    assert len(dec) == 2
    # the merged projector has rank 2
    assert np.trace(dec.projectors[0]).real == pytest.approx(2.0, abs=1e-12)
    assert np.trace(dec.projectors[1]).real == pytest.approx(1.0, abs=1e-12)


def test_decompose_keeps_the_eigenbasis_and_cluster_labels(rng):
    a = hermitian_with_spectrum(rng, [-1.0, 0.5, 2.0], [2, 1, 2])
    dec = decompose(a)
    v = dec.vectors
    assert dec.labels.tolist() == [0, 0, 1, 2, 2]
    assert np.abs(v.conj().T @ v - np.eye(5)).max() <= 1e-12
    for j, proj in enumerate(dec.projectors):
        block = v[:, dec.labels == j]
        assert np.abs(block @ block.conj().T - proj).max() <= 1e-12


def test_decompose_keeps_separated_eigenvalues():
    a = np.diag([1.0, 1.0 + 1e-3, 5.0]).astype(complex)
    assert len(decompose(a, cluster_tol=1e-8)) == 3


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_projector_identities_random(rng):
    for _ in range(15):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n, scale=3.0)
        dec = decompose(a)
        total = np.add.reduce(dec.projectors, axis=0)
        assert operator_norm(total - np.eye(n)) <= 1e-10
        rebuilt = np.einsum("j,jpq->pq", dec.eigenvalues.astype(complex), dec.projectors)
        assert operator_norm(rebuilt - a) <= 1e-10 * max(1.0, operator_norm(a))
        for j in range(len(dec)):
            pj = dec.projectors[j]
            assert operator_norm(pj @ pj - pj) <= 1e-10
            assert operator_norm(pj - pj.conj().T) <= 1e-10
            for k in range(j + 1, len(dec)):
                assert operator_norm(pj @ dec.projectors[k]) <= 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_projectors_are_hermitian_bit_for_bit(rng, n):
    # gapped spectra, and clusters of random multiplicities: E_j equals E_j* exactly
    for _ in range(10):
        l = int(rng.integers(1, n + 1))
        mult = np.bincount(np.concatenate([np.arange(l), rng.integers(0, l, n - l)]), minlength=l)
        for a in (hermitian_with_spectrum(rng, spaced_values(rng, n, 0.05)),
                  hermitian_with_spectrum(rng, spaced_values(rng, l, 0.15), mult)):
            pr = decompose(a).projectors
            assert np.array_equal(pr, pr.conj().swapaxes(-1, -2))


def test_multiplicities_show_up_in_projector_traces(rng):
    lam = spaced_values(rng, 3, min_gap=0.5)
    a = hermitian_with_spectrum(rng, lam, multiplicities=np.array([2, 1, 3]))
    dec = decompose(a)
    assert len(dec) == 3
    traces = [round(float(np.trace(p).real)) for p in dec.projectors]
    assert traces == [2, 1, 3]


def test_apply_function_exp_matches_expm(rng):
    a = random_hermitian(rng, 4, scale=1.5)
    dec = decompose(a)
    got = apply_function(dec, lambda lam: cmath.exp(lam))
    assert operator_norm(got - matrix_exp(a)) <= 1e-11


def test_apply_function_identity_and_square(rng):
    a = random_hermitian(rng, 3, scale=2.0)
    dec = decompose(a)
    assert operator_norm(apply_function(dec, lambda lam: lam) - a) <= 1e-10
    assert operator_norm(apply_function(dec, lambda lam: lam * lam) - a @ a) <= 1e-10


def test_scaled_exp_matches_expm(rng):
    a = random_hermitian(rng, 4, scale=2.0)
    dec = decompose(a)
    for t in (1.0, -0.5, 2.0 + 1.0j, 1j):
        for scale in (1, 3, 8):
            want = matrix_exp((complex(t) / scale) * a)
            assert operator_norm(scaled_exp(dec, t, scale) - want) <= 1e-11


def test_scaled_exp_rejects_bad_scale(rng):
    dec = decompose(random_hermitian(rng, 2))
    with pytest.raises(ValueError):
        scaled_exp(dec, 1.0, 0)
    with pytest.raises(ValueError):
        scaled_exp(dec, 1.0, -3)


def test_spectral_decomposition_validates_ordering():
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2), np.array([0, 1]))


@pytest.mark.parametrize("eigenvalues", [[np.nan], [1.0, np.inf], [-np.inf, 1.0]])
def test_spectral_decomposition_refuses_non_finite_eigenvalues(eigenvalues):
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        SpectralDecomposition(np.array(eigenvalues), np.eye(len(eigenvalues)), np.arange(len(eigenvalues)))


@pytest.mark.parametrize(
    "vectors, labels, message",
    [
        (np.eye(3)[:, :2], np.array([0, 1, 1]), "square"),
        (np.eye(3), np.array([0, 1]), "one per column"),
        (np.eye(3), np.array([0, 2, 2]), "every cluster"),
        (np.eye(3), np.array([0.0, 1.0, 1.0]), "integers"),
        (np.where(np.eye(3) == 0, np.nan, 1.0), np.array([0, 1, 1]), "vectors must be finite"),
        (np.diag([1.0, complex(1.0, np.inf), 1.0]), np.array([0, 1, 1]), "vectors must be finite"),
    ],
)
def test_spectral_decomposition_validates_the_frame(vectors, labels, message):
    with pytest.raises(ValueError, match=message):
        SpectralDecomposition(np.array([1.0, 2.0]), vectors, labels)


def test_spectral_decomposition_is_read_only(rng):
    dec = decompose(hermitian_with_spectrum(rng, [-1.0, 2.0], [2, 1]))
    for field in (dec.vectors, dec.eigenvalues, dec.labels, dec.projectors):
        with pytest.raises(ValueError):
            field[0] = 0
    assert dec.source_dim == 3


def _slice_decomposition(a, cluster_tol=1e-8):
    """Cluster means and projectors as decompose built them from slices of eigh's output (the reference)."""
    h = (a + a.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    gap = cluster_tol * max(1.0, float(np.abs(w).max()))
    starts = [0] + [i for i in range(1, w.size) if w[i] - w[i - 1] > gap] + [w.size]
    means, out = [], []
    for s, e in zip(starts[:-1], starts[1:]):
        means.append(float(np.mean(w[s:e])))
        block = v[:, s:e]
        p = block @ block.conj().T
        out.append((p + p.conj().T) / 2.0)
    return np.array(means), np.stack(out)


@seed(20260816)
@settings(max_examples=200, deadline=None)
@given(
    multiplicities=st.lists(st.integers(1, 3), min_size=1, max_size=6).filter(lambda m: sum(m) <= 6),
    draw=st.integers(0, 2**32 - 1),
)
def test_derived_projectors_match_the_slice_formula_bit_for_bit(multiplicities, draw):
    # clusters of fewer than 8 eigenvalues, where np.mean also sums in ascending order
    rng = np.random.default_rng(draw)
    lam = spaced_values(rng, len(multiplicities), min_gap=0.1)
    a = hermitian_with_spectrum(rng, lam, multiplicities)
    dec = decompose(a)
    means, projectors = _slice_decomposition(a)
    assert len(dec) == len(multiplicities)
    assert dec.eigenvalues.tobytes() == means.tobytes()
    assert dec.projectors.shape == projectors.shape
    assert dec.projectors.tobytes() == projectors.tobytes()
