"""The verify harness: draw phase, first-failure reporter, stacked cores and memory."""

import contextlib
import json
import math

import numpy as np
import pytest
import scipy.linalg

import liemeasure.approximant as approximant
import liemeasure.verify as verify
import liemeasure.verify.approximant as approximant_suite
import liemeasure.verify.bounds as bounds_suite
import liemeasure.verify.norms as norms_suite
import liemeasure.verify.spectral as spectral_suite
import liemeasure.verify.subordination as subordination_suite
from liemeasure import sampling
from liemeasure.approximant import (
    ApproximantConfig,
    _bruteforce_measures,
    _prepare,
    _torus_measures,
    build_measure_bruteforce,
    build_measure_dp,
    lie_approximant,
)
from liemeasure.cli import main
from liemeasure.linalg import (
    BYTE_BUDGET,
    ResourceLimitError,
    _hermitian_stack,
    _tuple_norm_sums,
    _tuple_peak_bytes,
    canonical_json,
    tuple_factor_products,
)
from liemeasure.measure import DiscreteMatrixMeasure
from liemeasure.sampling import hermitian_with_spectrum, random_hermitian, random_matrix, spaced_values
from liemeasure.spectral import _decompose_stack, decompose
from liemeasure.verify import SUITES, _LEMMA_INDEX, run_lemma, run_suite
from liemeasure.verify import harness
from liemeasure.verify.harness import report

# rng.integers(2**63) after each lemma's 50 trials at seeds 1 and 2, as the
# one-trial-at-a-time loop left its generator: the draw phase makes the same calls
DRAW_PINS = {
    "lemma_entry_sum_dominates_norm": (8525138102741684514, 7100285896775182578),
    "lemma_nonneg_entry_sum_bound": (5153187643059679965, 3239146743943295429),
    "lemma_inverse_triangle": (5680751852648428474, 9094368708858912383),
    "lemma_submultiplicative": (4327160470356493630, 3334930154329179371),
    "lemma_majorant_dominates": (1550356226266095657, 1935730126271735826),
    "lemma_majorant_norm_identities": (8651613542062372917, 4795869531614359771),
    "lemma_norm_monotone": (8399093805876796948, 616956775432898416),
    "lemma_sum_product_closure": (228913178741377241, 7700029033964967641),
    "lemma_exp_monotone": (8852076647519600229, 8023578328465660433),
    "lemma_tv_bound": (613912243536066350, 7390911950471469781),
    "lemma_partition_product_bound": (6565461563843121855, 3398890334472805035),
    "lemma_tuple_norm_regrouping": (6105420019296524916, 6221700701966626490),
    "lemma_projector_algebra": (7281073698029140645, 4358723922670186111),
    "lemma_spectral_reconstruction": (4661537175849993602, 669371468120948517),
    "lemma_eigen_identity": (5372283003795505296, 5351683324908966871),
    "lemma_scaled_exp_agreement": (8781439162597359922, 5266758650905092373),
    "lemma_rayleigh_containment": (2872752002540807887, 2334037277623276000),
    "lemma_dp_vs_bruteforce": (2176957299452430689, 2638165942725703473),
    "lemma_transform_identity": (1515633031736992682, 2612195464857065088),
    "lemma_support_in_hull": (8355700341871143486, 3188492874918765642),
    "lemma_total_mass": (795112728448837682, 1183545255129992577),
    "lemma_commuting_exactness": (4419819840126511647, 6179854978958155125),
}

LEMMAS = [fn for fns in SUITES.values() for fn in fns]


def test_every_lemma_is_pinned():
    assert sorted(DRAW_PINS) == sorted(fn.__name__ for fn in LEMMAS)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("fn", LEMMAS, ids=lambda fn: fn.__name__)
def test_draw_phase_leaves_the_generator_where_the_trial_loop_did(fn, seed):
    rng = np.random.default_rng([seed, _LEMMA_INDEX[fn]])
    assert fn(rng, 50, 4).passed
    assert int(rng.integers(2**63)) == DRAW_PINS[fn.__name__][seed - 1]


def _linear_algebra_routines():
    """(module, name) of every function of numpy.linalg and scipy.linalg."""
    for module in (np.linalg, scipy.linalg):
        for name in dir(module):
            obj = getattr(module, name)
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type):
                yield module, name


@contextlib.contextmanager
def _no_linear_algebra():
    """Every numpy.linalg and scipy.linalg function raises while the block runs."""
    saved = list(_linear_algebra_routines())
    assert len(saved) > 100

    def refuse(*args, **kwargs):
        raise AssertionError("a linear-algebra routine ran while a lemma drew")

    originals = [(module, name, getattr(module, name)) for module, name in saved]
    try:
        for module, name in saved:
            setattr(module, name, refuse)
        yield
    finally:
        for module, name, obj in originals:
            setattr(module, name, obj)


def test_no_linear_algebra_runs_while_a_lemma_draws(monkeypatch):
    drawn = []

    def guarded(rng, trials, draw):
        with _no_linear_algebra():
            draws = real(rng, trials, draw)
        drawn.append(len(draws))
        return draws

    real = harness.draw_trials
    monkeypatch.setattr(harness, "draw_trials", guarded)
    # the guard works: a formed instance needs a QR
    with _no_linear_algebra(), pytest.raises(AssertionError, match="while a lemma drew"):
        sampling.random_unitary(np.random.default_rng(1), 2)
    for max_dim in (2, 6):
        results = run_suite("all", 30, 3, max_dim)
        assert all(res.passed for res in results) and len(results) == 22
    assert drawn == [30] * 44


def test_a_failure_replays_the_case_its_stack_evaluated(monkeypatch):
    # a replay forms its trial alone; it must be the case that was formed in a stack
    checked = []

    def spy(name, rng, trials, draw, key, margins_of, payload, form=list):
        copy = np.random.default_rng()
        copy.bit_generator.state = rng.bit_generator.state
        draws = [draw(copy) for _ in range(trials)]
        for idx in harness.groups(map(key, draws)):
            for i, case in zip(idx, form([draws[j] for j in idx])):
                assert canonical_json(payload(case)) == canonical_json(payload(form([draws[i]])[0]))
        checked.append(name)
        return real(name, rng, trials, draw, key, margins_of, payload, form)

    real = harness.run_trials
    for module in (harness, norms_suite, subordination_suite, bounds_suite, spectral_suite):
        monkeypatch.setattr(module, "run_trials", spy)
    results = run_suite("all", 40, 5, 6)
    assert all(res.passed for res in results)
    assert checked == [res.name for res in results]


# ---------------------------------------------------------------- reporter

def test_reporter_names_the_first_failure_and_ignores_later_trials():
    asked = []

    def payload(i):
        asked.append(i)
        return {"index": i}

    for margins in ([0.5, 0.2, -1.0, -3.0, math.nan], [0.5, 0.2, -1.0, 7.0, -100.0]):
        asked.clear()
        res = report("x", margins, payload)
        assert (res.passed, res.trials, res.worst_margin) == (False, 3, -1.0)
        assert res.failure == {"lemma": "x", "trial": 2, "margin": -1.0, "index": 2}
        assert asked == [2]


def test_reporter_passes_with_the_smallest_margin():
    res = report("x", [0.5, 0.0, 2.0], lambda i: pytest.fail("no failure, no payload"))
    assert (res.passed, res.trials, res.worst_margin, res.failure) == (True, 3, 0.0, None)


def test_a_nan_margin_fails_and_its_payload_serializes():
    res = report("x", [float("nan")] * 3, lambda i: {})
    assert not res.passed and res.trials == 1 and math.isnan(res.worst_margin)
    assert res.failure == {"lemma": "x", "trial": 0, "margin": None}
    assert canonical_json(res.failure) == '{"lemma":"x","trial":0,"margin":null}'
    res = report("x", [1.0, -math.inf], lambda i: {})
    assert (res.trials, res.worst_margin, res.failure["margin"]) == (2, -math.inf, None)


def test_a_nan_margin_prints_a_fail_line_and_a_null_payload_and_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(bounds_suite, "total_variation_bound", lambda n, b: math.nan)
    assert main(["verify", "--suite", "bounds", "--trials", "3"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL total-variation-bound trials=1 worst_margin=nan"
    failure = json.loads(lines[1])
    assert failure["lemma"] == "total-variation-bound" and failure["margin"] is None
    assert [line.split()[0] for line in lines[2:]] == ["PASS", "PASS"]


def test_commuting_exactness_reports_a_finite_margin_for_a_missing_atom(monkeypatch):
    shifted = approximant._commuting_measure

    def moved(dec, eb):
        ref = shifted(dec, eb)
        return DiscreteMatrixMeasure(ref.locations + 1e-6, ref.weights)

    monkeypatch.setattr(approximant_suite, "_commuting_measure", moved)
    res = run_lemma(verify.lemma_commuting_exactness, 5, 1)
    assert not res.passed and res.trials == 1
    margin = res.failure["margin"]
    assert math.isfinite(margin) and margin == pytest.approx(1e-10 - 1e-6, abs=1e-11)
    canonical_json(res.failure)


# ------------------------------------------------ stacked cores, bit for bit

def _instances(rng, count):
    """Random pairs of n = 2..4 with l = 1..3 clusters, and step counts 1..6."""
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        l = int(rng.integers(1, min(n, 3) + 1))
        mult = np.ones(l, dtype=int)
        mult[int(rng.integers(0, l))] += n - l
        a = hermitian_with_spectrum(rng, spaced_values(rng, l, min_gap=0.2), mult)
        out.append((a, random_matrix(rng, n), int(rng.integers(1, 7)), l))
    # make sure l = 1 and N = 1 both occur, together and apart
    out += [(hermitian_with_spectrum(rng, [0.3], [n]), random_matrix(rng, n), steps, 1)
            for n, steps in ((2, 1), (3, 1), (3, 4), (4, 1))]
    return out


def _same_measure(got, want):
    assert got.locations.tobytes() == want.locations.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert (got.N, got.source) == (want.N, want.source)


def test_stacked_builders_equal_single_builds_bit_for_bit(rng):
    groups = {}
    for a, b, steps, l in _instances(rng, 60):
        groups.setdefault((len(a), l, steps), []).append((a, b))
    assert len(groups) > 10 and any(len(pairs) > 1 for pairs in groups.values())
    for (n, l, steps), pairs in groups.items():
        cfg = ApproximantConfig(N=steps)
        decs, step = _prepare(np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]), cfg)
        assert {len(d) for d in decs} == {l}
        for (a, b), m in zip(pairs, _torus_measures(decs, step, cfg)):
            _same_measure(m, build_measure_dp(a, b, cfg))
        for (a, b), m in zip(pairs, _bruteforce_measures(decs, step, cfg)):
            _same_measure(m, build_measure_bruteforce(a, b, cfg))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_stacked_decompose_equals_single_calls_bit_for_bit(rng, n):
    stack = [random_hermitian(rng, n) for _ in range(20)]
    # repeated eigenvalues too, so clusters of several columns occur
    if n > 1:
        stack += [hermitian_with_spectrum(rng, [-1.0, 0.5], [n - 1, 1]) for _ in range(5)]
    for got, a in zip(_decompose_stack(np.stack(stack), 1e-8), stack):
        want = decompose(a)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


@pytest.mark.parametrize("t", [0.7, np.array([-1.0, 0.0, 0.3, 1j, -1j]), np.zeros((2, 3))])
def test_stacked_lie_approximants_equal_single_calls_bit_for_bit(rng, t):
    a = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    b = np.stack([random_matrix(rng, 3) for _ in range(4)])
    got = approximant._lie_approximants(_hermitian_stack(a, "a"), b, t, 6)
    assert got.shape == (4,) + np.shape(t) + (3, 3)
    for x, y, values in zip(a, b, got):
        assert values.tobytes() == lie_approximant(x, y, t, 6).tobytes()


def test_stacked_tuple_products_equal_single_calls_bit_for_bit(rng):
    factors = np.stack([np.stack([random_matrix(rng, 3) for _ in range(2)]) for _ in range(4)])
    prods = tuple_factor_products(factors, 5)
    assert prods.shape == (4, 32, 3, 3)
    sums = _tuple_norm_sums(prods)
    for f, got, got_sum in zip(factors, prods, sums):
        want = tuple_factor_products(f, 5)
        assert got.tobytes() == want.tobytes()
        assert got_sum.tobytes() == _tuple_norm_sums(want[np.newaxis])[0].tobytes()


@pytest.mark.parametrize("stacked", ["torus", "tuples"])
def test_stacked_builds_are_refused_before_allocating(rng, traced_peak, stacked):
    # one build fits the byte budget; three of them stacked do not
    if stacked == "torus":
        a = np.stack([hermitian_with_spectrum(rng, [-1.0, 0.0, 1.0]) for _ in range(3)])
        b = np.stack([random_matrix(rng, 3) for _ in range(3)])
        cfg = ApproximantConfig(N=2000)
        decs, steps = _prepare(a, b, cfg)
        one = approximant._torus_peak_bytes(3, 2000, 3)
        call = lambda: _torus_measures(decs, steps, cfg)
        message = r"^torus grid points: 2001\*\*2 would need \d+ bytes, over the budget"
    else:
        factors = np.stack([np.stack([np.eye(2, dtype=complex)] * 2)] * 3)
        one = _tuple_peak_bytes(2, 23, 2)
        call = lambda: tuple_factor_products(factors, 23)
        message = r"^index tuples: 2\*\*23 would need \d+ bytes, over the budget"
    assert 3 * one > BYTE_BUDGET > one

    def refused():
        with pytest.raises(ResourceLimitError, match=message):
            call()

    _, peak = traced_peak(refused)
    assert peak < 64 * 1024


@pytest.mark.parametrize("seed", [1, 2])
def test_batching_does_not_change_the_results(monkeypatch, seed):
    # a one-byte slab: every block of _slabs holds one case, one build or one torus point
    default = run_suite("all", 60, seed)
    monkeypatch.setattr(approximant, "_SLAB_BYTES", 1)
    assert run_suite("all", 60, seed) == default


# ------------------------------------------------------------------ memory

@pytest.mark.parametrize("trials", [200, 1000])
def test_verify_all_peak_is_bounded(traced_peak, trials):
    results, peak = traced_peak(lambda: run_suite("all", trials, 1))
    assert all(res.passed for res in results) and len(results) == 22
    assert peak <= 3 * 1024**2
