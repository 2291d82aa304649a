"""Acceptance checks, one test per criterion.

Shared instance pools are module-scoped so the expensive builds happen once;
each criterion prints a single summary line when it passes.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from liemeasure.approximant import (
    ApproximantConfig,
    build_measure_bruteforce,
    build_measure_dp,
    commuting_case_measure,
    lie_approximant,
    n_convex_hull,
)
from liemeasure.experiments import (
    counterexample_demo,
    counterexample_derivative,
    counterexample_derivative_det,
    counterexample_pair,
    default_t_grid,
    exp_curve_derivative,
    truth_exponential,
)
from liemeasure.linalg import batched_operator_norms, is_psd, matrix_exp, operator_norm, write_matrix
from liemeasure.measure import laplace_transform, moment, total_variation
from liemeasure.norms import total_variation_bound
from liemeasure.sampling import (
    commuting_hermitian_pair,
    hermitian_with_spectrum,
    noncommuting_hermitian_pair,
    random_hermitian,
    random_matrix,
    spaced_values,
)
from liemeasure.spectral import SpectralDecomposition, decompose
from liemeasure.verify import (
    lemma_entry_sum_dominates_norm,
    lemma_exp_monotone,
    lemma_inverse_triangle,
    lemma_majorant_dominates,
    lemma_majorant_norm_identities,
    lemma_nonneg_entry_sum_bound,
    lemma_norm_monotone,
    lemma_partition_product_bound,
    lemma_sum_product_closure,
    run_lemma,
)
import liemeasure.cli as cli

SEED = 20260816
REAL_GRID = np.linspace(-1.0, 1.0, 21)


@dataclass(frozen=True)
class Instance:
    a: np.ndarray
    b: np.ndarray
    n_steps: int
    measure: object
    dec: SpectralDecomposition


def _signed_pair():
    return counterexample_pair()


@pytest.fixture(scope="module")
def oracle_instances():
    """Fifty seeded pairs sweeping n <= 4, l <= 3, N in {1, 2, 3, 5, 8}."""
    rng = np.random.default_rng([SEED, 1])
    combos = [(n, l) for n in (1, 2, 3, 4) for l in range(1, min(n, 3) + 1)]
    steps = (1, 2, 3, 5, 8)
    out = []
    for k in range(50):
        n, l = combos[k % len(combos)]
        n_steps = steps[k % len(steps)]
        lam = spaced_values(rng, l, min_gap=0.2)
        mult = np.ones(l, dtype=int)
        for _ in range(n - l):
            mult[int(rng.integers(0, l))] += 1
        a = hermitian_with_spectrum(rng, lam, mult)
        b = random_matrix(rng, n, scale=float(rng.uniform(0.3, 1.5)))
        cfg = ApproximantConfig(N=n_steps)
        m_dp = build_measure_dp(a, b, cfg)
        m_bf = build_measure_bruteforce(a, b, cfg)
        out.append((Instance(a, b, n_steps, m_dp, decompose(a)), m_bf))
    return out


@pytest.fixture(scope="module")
def transform_instances():
    """The signed 2x2 pair plus twenty seeded pairs, each at N in {8, 64}."""
    rng = np.random.default_rng([SEED, 2])
    pairs = [_signed_pair()]
    for k in range(20):
        n = 2 + k % 2
        a = random_hermitian(rng, n, scale=1.5)
        b = random_matrix(rng, n) if k % 2 else random_hermitian(rng, n)
        pairs.append((a, b))
    out = []
    for a, b in pairs:
        for n_steps in (8, 64):
            m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
            out.append(Instance(a, b, n_steps, m, decompose(a)))
    return out


@pytest.fixture(scope="module")
def all_instances(oracle_instances, transform_instances):
    return [inst for inst, _ in oracle_instances] + transform_instances


@pytest.fixture(scope="module")
def hermitian_pairs():
    """The signed pair and ten non-commuting Hermitian pairs, n = 3, norms <= 2."""
    rng = np.random.default_rng([SEED, 7])
    return [_signed_pair()] + [noncommuting_hermitian_pair(rng, 3) for _ in range(10)]


def test_acceptance_01_dp_equals_bruteforce(oracle_instances):
    for inst, m_bf in oracle_instances:
        m_dp = inst.measure
        assert len(m_dp) == len(m_bf)
        assert np.abs(m_dp.locations - m_bf.locations).max() <= 1e-10
        assert np.abs(m_dp.weights - m_bf.weights).max() <= 1e-10
    print("ACCEPTANCE 1: PASS - dp and bruteforce builders agree on 50 pairs")


def test_acceptance_02_transform_identity(transform_instances):
    grid = default_t_grid()
    for inst in transform_instances:
        for t in grid:
            ln = lie_approximant(inst.a, inst.b, t, inst.n_steps)
            err = operator_norm(laplace_transform(inst.measure, t) - ln)
            assert err <= 1e-9 * max(1.0, operator_norm(ln))
    print("ACCEPTANCE 2: PASS - transform reproduces the product approximant")


def test_acceptance_03_total_variation_bound(all_instances):
    for inst in all_instances:
        bound = total_variation_bound(inst.measure.dim, inst.b)
        assert total_variation(inst.measure) <= bound + 1e-8
    print("ACCEPTANCE 3: PASS - total variation within n*e^(n*norm(B))")


def test_acceptance_04_support_containment(all_instances):
    for inst in all_instances:
        locs = inst.measure.locations
        assert locs.min() >= inst.dec.lambda_min - 1e-12
        assert locs.max() <= inst.dec.lambda_max + 1e-12
        hull = n_convex_hull(inst.dec.eigenvalues, inst.n_steps)
        gaps = np.abs(locs[:, np.newaxis] - hull[np.newaxis, :]).min(axis=1)
        assert gaps.max() <= 1e-12
    print("ACCEPTANCE 4: PASS - every atom sits on the N-convex hull")


def test_acceptance_05_total_mass(all_instances):
    for inst in all_instances:
        assert operator_norm(moment(inst.measure, 0) - matrix_exp(inst.b)) <= 1e-10
    print("ACCEPTANCE 5: PASS - total mass equals e^B")


def test_acceptance_06_commuting_exactness():
    rng = np.random.default_rng([SEED, 6])
    grid = default_t_grid()
    for trial in range(5):
        n = 2 + trial % 2
        a, b = commuting_hermitian_pair(rng, n, scale=1.2)
        ref = commuting_case_measure(a, b)
        for n_steps in (1, 5, 17):
            m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
            matched = np.zeros(len(m), dtype=bool)
            for lam, w in zip(ref.locations, ref.weights):
                k = int(np.abs(m.locations - lam).argmin())
                assert abs(float(m.locations[k]) - lam) <= 1e-10
                matched[k] = True
                assert np.abs(m.weights[k] - w).max() <= 1e-10
            if not matched.all():
                assert np.abs(m.weights[~matched]).max() <= 1e-10
            for t in grid:
                err = operator_norm(
                    laplace_transform(m, t) - truth_exponential(a, b, t)
                )
                assert err <= 1e-10
    print("ACCEPTANCE 6: PASS - commuting pairs reproduce e^(tA+B) exactly")


def test_acceptance_07_lie_convergence(hermitian_pairs):
    schedule = (8, 16, 32, 64, 128, 256)
    for a, b in hermitian_pairs:
        errs = []
        for n_steps in schedule:
            worst = max(
                operator_norm(
                    lie_approximant(a, b, t, n_steps) - truth_exponential(a, b, t)
                )
                for t in REAL_GRID
            )
            errs.append(worst)
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        slope = float(np.polyfit(np.log(schedule), np.log(errs), 1)[0])
        assert -1.3 <= slope <= -0.7
    print("ACCEPTANCE 7: PASS - first-order convergence of the approximants")


def test_acceptance_08_signed_limit_counterexample():
    a, b = _signed_pair()
    d_closed = counterexample_derivative()
    d_computed = exp_curve_derivative(a, b, 1)
    assert operator_norm(d_computed - d_closed) <= 1e-12
    det = counterexample_derivative_det()
    assert abs(det - (6.0 - math.exp(2.0) - math.exp(-2.0)) / 4.0) <= 1e-15
    assert abs(float(np.linalg.det(d_closed).real) - det) <= 1e-12
    assert det < 0
    assert not is_psd(d_closed)
    res = counterexample_demo((16, 32, 64, 128, 256, 512))
    errs = [err for _, _, err in res.moment1_by_n]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 0.02
    print("ACCEPTANCE 8: PASS - the limit's first moment is indefinite")


def test_acceptance_09_lemma_suites():
    lemmas = [
        lemma_entry_sum_dominates_norm,
        lemma_nonneg_entry_sum_bound,
        lemma_inverse_triangle,
        lemma_majorant_norm_identities,
        lemma_sum_product_closure,
        lemma_exp_monotone,
        lemma_majorant_dominates,
        lemma_norm_monotone,
        lemma_partition_product_bound,
    ]
    for fn in lemmas:
        res = run_lemma(fn, trials=1000, seed=SEED, max_dim=6)
        assert res.passed, f"{res.name} failed: {res.failure}"
        assert res.trials == 1000
    print("ACCEPTANCE 9: PASS - 9 norm and domination lemmas, 1000 trials each")


def test_acceptance_10_hermitian_limit_diagnostic(hermitian_pairs):
    for a, b in hermitian_pairs:
        devs = {}
        for n_steps in (8, 256):
            m = build_measure_dp(a, b, ApproximantConfig(N=n_steps))
            values = laplace_transform(m, REAL_GRID)
            devs[n_steps] = float(batched_operator_norms(values.conj().swapaxes(1, 2) - values).max())
        assert devs[256] < 0.2 * devs[8]
    print("ACCEPTANCE 10: PASS - transforms turn Hermitian as N grows")


def test_acceptance_11_cli_determinism(tmp_path, capsys):
    a, b = _signed_pair()
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_matrix(a_path, a)
    write_matrix(b_path, b)

    def run_twice(argv, out_paths):
        captured, files = [], []
        for _ in range(2):
            assert cli.main(argv) == 0
            captured.append(capsys.readouterr().out)
            files.append([open(p, "rb").read() for p in out_paths])
        assert captured[0] == captured[1]
        assert files[0] == files[1]

    m_path = str(tmp_path / "m.json")
    trace_path = str(tmp_path / "m.csv")
    run_twice(
        ["measure", "--a", a_path, "--b", b_path, "--steps", "8",
         "--out", m_path, "--trace-csv", trace_path],
        [m_path, trace_path],
    )
    t_path = str(tmp_path / "t.csv")
    run_twice(
        ["transform", "--measure", m_path, "--a", a_path, "--b", b_path,
         "--out", t_path],
        [t_path],
    )
    c_path = str(tmp_path / "c.csv")
    run_twice(
        ["converge", "--a", a_path, "--b", b_path, "--schedule", "4,8",
         "--out", c_path],
        [c_path],
    )
    stem = str(tmp_path / "fig")
    run_twice(["plot", "--measure", m_path, "--out", stem], [stem + ".dat", stem + ".gp"])
    run_twice(["verify", "--suite", "norms", "--trials", "60", "--seed", "3"], [])
    run_twice(["counterexample", "--schedule", "16,32"], [])
    print("ACCEPTANCE 11: PASS - every subcommand is byte-deterministic")
