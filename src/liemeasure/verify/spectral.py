"""The spectral suite: projector algebra, reconstruction, eigen-identities, scaled exponentials."""

import numpy as np

from .. import sampling
from ..linalg import batched_operator_norms, matrix_exp
from ..spectral import CLUSTER_TOL, _decompose_stack, scaled_exp
from .harness import LemmaResult, as_payload, dim, fields, groups, run_trials


def _spectral_lemma(name, rng, trials, max_dim, margins_of, extra=None, form_extras=lambda *items: items,
                    payload=lambda a, *extras: as_payload(a=a)) -> LemmaResult:
    """A lemma on one gapped Hermitian a per trial, and the items of extra(rng, n) drawn right after it.

    a is hermitian_with_spectrum(rng, spaced_values(rng, n, 0.05)) for n in
    2..max_dim; form_extras(*items) forms the extra fields from the stacked
    extra items of one size (by default, the items themselves).
    margins_of(a, decompositions, *extras) gets the stacked a of one size,
    its decompositions and the extra fields; payload(a, *extras) gets one
    trial's entry of each.
    """
    def draw(rng):
        n = int(rng.integers(2, max_dim + 1))
        spectrum, unitary = sampling.draw_spaced(rng, n), sampling.draw_unitary(rng, n)
        return spectrum, *unitary, *(() if extra is None else extra(rng, n))

    def form(draws):
        spectra, re, im, *items = fields(draws)
        lam = sampling.form_spaced(spectra, 0.05)
        return sampling.form_with_spectrum(lam, sampling.form_unitaries(re, im)), *form_extras(*items)

    def margins(a, *extras):
        return margins_of(a, _decompose_stack(a, CLUSTER_TOL), *extras)

    return run_trials(name, rng, trials, draw, dim, margins, payload, form)


def _cluster_groups(decs):
    """Indices of the decompositions that share a cluster count, and their stacked projectors."""
    for idx in groups(map(len, decs)):
        yield idx, np.stack([decs[i].projectors for i in idx])


def lemma_projector_algebra(rng, trials, max_dim):
    def margins_of(a, decs):
        n = a.shape[1]
        out = np.empty(len(a))
        for idx, pr in _cluster_groups(decs):
            l = pr.shape[1]
            pairs = [(j, k) for j in range(l) for k in range(j + 1, l)]
            defects = [
                (np.add.reduce(pr, axis=1) - np.eye(n))[:, np.newaxis],
                pr @ pr - pr,
                pr[:, [j for j, _ in pairs]] @ pr[:, [k for _, k in pairs]],
            ]
            norms = batched_operator_norms(np.concatenate(defects, axis=1).reshape(-1, n, n)).reshape(len(idx), -1)
            out[idx] = 1e-10 - norms.max(axis=1)
        return out

    return _spectral_lemma("projector-algebra", rng, trials, max_dim, margins_of)


def lemma_spectral_reconstruction(rng, trials, max_dim):
    def margins_of(a, decs):
        rebuilt = np.stack([
            np.einsum("j,jpq->pq", dec.eigenvalues.astype(complex), dec.projectors) for dec in decs
        ])
        return 1e-10 - batched_operator_norms(rebuilt - a)

    return _spectral_lemma("spectral-reconstruction", rng, trials, max_dim, margins_of)


def lemma_eigen_identity(rng, trials, max_dim):
    def margins_of(a, decs):
        tol = 1e-9 * np.maximum(1.0, batched_operator_norms(a))
        out = np.empty(len(a))
        for idx, pr in _cluster_groups(decs):
            lam = np.stack([decs[i].eigenvalues for i in idx])[:, :, np.newaxis, np.newaxis]
            defect = a[idx, np.newaxis] @ pr - lam * pr
            worst = batched_operator_norms(defect.reshape(-1, *a.shape[1:])).reshape(len(idx), -1)
            out[idx] = tol[idx] - worst.max(axis=1)
        return out

    return _spectral_lemma("eigen-identity", rng, trials, max_dim, margins_of)


def lemma_scaled_exp_agreement(rng, trials, max_dim):
    def extra(rng, n):
        return complex(rng.uniform(-2, 2), rng.uniform(-1, 1)), int(rng.integers(1, 9))

    def margins_of(a, decs, t, scale):
        t, scale = t.tolist(), scale.tolist()
        scales = np.array([x / y for x, y in zip(t, scale)])
        exact = np.stack([scaled_exp(dec, x, y) for dec, x, y in zip(decs, t, scale)])
        return 1e-11 - batched_operator_norms(exact - matrix_exp(scales[:, np.newaxis, np.newaxis] * a))

    def payload(a, t, scale):
        return as_payload(a=a, t_re=t.real, t_im=t.imag, scale=scale)

    return _spectral_lemma("scaled-exp-agreement", rng, trials, max_dim, margins_of,
                           extra, payload=payload)


def lemma_rayleigh_containment(rng, trials, max_dim):
    def unit_vectors(radius2, angle):
        """unit_disc_entries(rng, n) over its norm, np.linalg.norm's dot products in stacked form."""
        v = sampling.form_disc(radius2, angle)
        norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
        return (v / norms[:, np.newaxis],)

    def margins_of(a, decs, vs):
        out = []
        for ai, dec, v in zip(a, decs, vs):
            q = float(np.real(v.conj() @ ai @ v))
            out.append(min(q - dec.lambda_min + 1e-10, dec.lambda_max - q + 1e-10))
        return out

    return _spectral_lemma("rayleigh-containment", rng, trials, max_dim, margins_of,
                           sampling.draw_polar, unit_vectors)
