"""The torus builder's slabs, the byte budget's peak-bytes predictions, and bounded measure I/O and t-grids."""

import math

import numpy as np
import pytest

import liemeasure.approximant as approximant
import liemeasure.linalg as linalg
from liemeasure.approximant import (
    ApproximantConfig,
    _lie_peak_bytes,
    build_measure_bruteforce,
    build_measure_dp,
    composition_locations,
    compositions,
    lie_approximant,
    n_convex_hull,
)
from liemeasure.cli import main
from liemeasure.experiments import (
    _study_peak_bytes,
    _truth_peak_bytes,
    convergence_study,
    counterexample_demo,
    counterexample_pair,
    stahl_trace_study,
    truth_exponential,
)
from liemeasure.linalg import BYTE_BUDGET, ResourceLimitError, _tuple_peak_bytes, guarded_count
from liemeasure.measure import (
    DiscreteMatrixMeasure,
    _transform_peak_bytes,
    laplace_transform,
    read_measure,
    write_measure,
)
from liemeasure.sampling import hermitian_with_spectrum, random_hermitian, random_matrix, spaced_values

# a grid size per cluster count, kept small: (N+1)**(l-1) points
STEPS = {1: 9, 2: 12, 3: 6, 4: 4}


def _pair(rng, n, l):
    mult = np.ones(l, dtype=int)
    mult[-1] += n - l
    a = hermitian_with_spectrum(rng, spaced_values(rng, l, min_gap=0.2), mult)
    return a, random_matrix(rng, n)


def _one_shot(a, b, n_steps):
    """Locations and weights by the whole-grid formula: one matrix power, one ifftn."""
    decs, steps = approximant._prepare(a[np.newaxis], b[np.newaxis], ApproximantConfig(N=n_steps))
    dec, step = decs[0], steps[0]
    l, n = len(dec), len(dec.vectors)
    shape = (n_steps + 1,) * (l - 1)
    points = (n_steps + 1) ** (l - 1)
    idx = np.indices(shape).reshape(l - 1, points)
    sums = idx.sum(axis=0)
    valid = sums <= n_steps
    counts = np.hstack([idx.T[valid], (n_steps - sums[valid])[:, np.newaxis]])
    vecs = dec.vectors
    expo = np.vstack([idx, np.zeros((1, points), dtype=idx.dtype)])[dec.labels].T
    roots = np.exp(-2j * np.pi * np.arange(n_steps + 1) / (n_steps + 1))
    values = np.linalg.matrix_power(
        roots[expo][:, :, np.newaxis] * (vecs.conj().T @ step @ vecs), n_steps
    )
    coeffs = np.fft.ifftn(values.reshape(shape + (n, n)), axes=tuple(range(l - 1)))
    weights = vecs @ coeffs.reshape(points, n, n)[valid] @ vecs.conj().T
    locs = composition_locations(counts, dec.eigenvalues, n_steps)
    order = np.argsort(locs, kind="stable")
    return locs[order], weights[order]


# the grid ends below a slab boundary, exactly at one, or one point past one;
# a one-point grid (l = 1) cannot pass a boundary
SLAB_CASES = [
    (n, l, offset)
    for l in range(1, 5)
    for n in range(l, 6)
    for offset in ((1, 0, -1) if l > 1 else (1, 0))
]


@pytest.mark.parametrize("n, l, slab_offset", SLAB_CASES)
def test_slab_builder_matches_the_one_shot_formula_byte_for_byte(rng, monkeypatch, n, l, slab_offset):
    n_steps = STEPS[l]
    slab = (n_steps + 1) ** (l - 1) + slab_offset
    monkeypatch.setattr(linalg, "_SLAB_BYTES", 16 * n * n * slab)
    assert next(linalg._slabs(1, slab + 1, 16 * n * n)) == (slice(0, 1), slice(0, slab))
    a, b = _pair(rng, n, l)
    locs, weights = _one_shot(a, b, n_steps)
    m = build_measure_dp(a, b, ApproximantConfig(N=n_steps, merge_tol=0.0))
    assert len(m) == len(locs)
    assert m.locations.tobytes() == locs.tobytes()
    assert m.weights.tobytes() == weights.tobytes()


def test_compositions_match_the_grid_formula():
    for total in range(0, 9):
        for parts in range(1, 6):
            idx = np.indices((total + 1,) * (parts - 1)).reshape(parts - 1, (total + 1) ** (parts - 1))
            sums = idx.sum(axis=0)
            want = np.hstack([idx.T[sums <= total], (total - sums[sums <= total])[:, np.newaxis]])
            got = compositions(total, parts)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (total, parts)


def test_measure_keeps_the_builders_array_read_only(rng, tmp_path):
    # generic spectrum: nothing fuses, so the weights are the builder's own output array
    a, b = _pair(rng, 3, 3)
    m = build_measure_dp(a, b, ApproximantConfig(N=8))
    assert len(m) == 45 and m.weights.base is not None
    assert not m.weights.flags.writeable and not m.locations.flags.writeable
    with pytest.raises(ValueError):
        m.weights[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        m.locations[0] = 0.0
    # two clusters: the weights are the builder's grid, rotated and reversed in place
    a, b = _pair(rng, 3, 2)
    m = build_measure_dp(a, b, ApproximantConfig(N=64))
    assert len(m) == 65 and m.weights.base is not None and m.locations.base is not None
    assert not m.weights.flags.writeable and not m.locations.flags.writeable
    with pytest.raises(ValueError):
        m.weights[-1, 0, 0] = 1.0
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_measure(first, m)
    again = read_measure(first)
    assert again.locations.tobytes() == m.locations.tobytes()
    assert again.weights.tobytes() == m.weights.tobytes()
    write_measure(second, again)
    assert second.read_bytes() == first.read_bytes()


def _summed_torus_peak_bytes(l, n_steps, n, k=1):
    """The torus builder's earlier prediction: every phase's arrays summed as if all alive at once."""
    points = (n_steps + 1) ** (l - 1)
    atoms = math.comb(n_steps + l - 1, l - 1)
    slab = next(linalg._slabs(1, k * points, 16 * n * n))[1].stop
    matrices = k * (points if atoms == points else points + atoms) + 4 * slab + 6 * k
    roots = n_steps + 1 if l > 1 else 1
    index = 8 * (n + l) * slab + approximant._compositions_peak_bytes(n_steps, l) + 24 * k * atoms
    return 16 * n * n * matrices + 16 * roots + index


@pytest.mark.parametrize(
    "n, l, n_steps", [(8, 2, 1024), (3, 3, 128), (4, 4, 24), (2, 2, 20000), (5, 3, 60), (12, 2, 20000)]
)
def test_torus_peak_bytes_prediction(rng, traced_peak, n, l, n_steps):
    a, b = _pair(rng, n, l)
    _, peak = traced_peak(lambda: build_measure_dp(a, b, ApproximantConfig(N=n_steps)))
    predicted = approximant._torus_peak_bytes(l, n_steps, n)
    assert peak <= predicted <= 2 * peak
    if (n, l, n_steps) == (2, 2, 20000):  # the grid phase, with no index array beside it
        assert predicted <= 1.05 * peak
    if n == 12:  # the collapse's flag per weight entry outgrew the summed prediction's slack
        assert _summed_torus_peak_bytes(l, n_steps, n) < peak


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_torus_peak_bytes_never_exceeds_the_summed_prediction(l, k):
    # up to n = 8; past it, two-cluster builds of large N need more than the sum, as the
    # n = 12 case of test_torus_peak_bytes_prediction traces
    for n in range(l, 9):
        for n_steps in (1, 2, 7, 64, 1000, 10**5, 10**7):
            summed = _summed_torus_peak_bytes(l, n_steps, n, k)
            assert approximant._torus_peak_bytes(l, n_steps, n, k) <= summed, (n, n_steps)
            if l == 2:  # ties: the atoms are gathered beside the grid, as a second array
                gathered = approximant._torus_peak_bytes(l, n_steps, n, k, True)
                assert gathered <= summed + 16 * n * n * k * (n_steps + 1), (n, n_steps)


def test_the_guard_admits_a_two_cluster_build_whose_grid_is_its_output(rng, monkeypatch, traced_peak):
    # n = 8, l = 2, N = 1024: counted as a grid plus an output of 1,025 matrices each, this
    # build was predicted at 16*64*(1025 + 1025 + 4*256) + 16*1025 = 3,164,176 bytes
    a, b = _pair(rng, 8, 2)
    cfg = ApproximantConfig(N=1024)
    unpatched, peak = traced_peak(lambda: build_measure_dp(a, b, cfg))
    assert peak < 2 * 16 * 64 * 1025  # one grid and its slabs, not a grid and an output
    budget = (approximant._torus_peak_bytes(2, 1024, 8) + 3_164_176) // 2
    assert approximant._torus_peak_bytes(2, 1024, 8) < budget < 3_164_176
    monkeypatch.setattr(linalg, "BYTE_BUDGET", budget)
    m = build_measure_dp(a, b, cfg)
    assert m.locations.tobytes() == unpatched.locations.tobytes()
    assert m.weights.tobytes() == unpatched.weights.tobytes()
    # three clusters at the same budget: a grid and an output, still refused
    a, b = _pair(rng, 3, 3)
    need = approximant._torus_peak_bytes(3, 128, 3)
    with pytest.raises(
        ResourceLimitError,
        match=rf"^torus grid points: 129\*\*2 would need {need} bytes, over the budget of {budget} bytes$",
    ):
        build_measure_dp(a, b, ApproximantConfig(N=128))


def test_a_two_cluster_build_out_of_location_order_is_guarded_as_two_arrays(rng, monkeypatch):
    # eigenvalues 1 and 1 + 2**-52 (kept apart by cluster_tol=0): rounding ties the
    # locations, so the atoms are gathered into a second array beside the grid
    a, b = np.diag([1.0, 1.0 + 2.0**-52]), random_matrix(rng, 2)
    cfg = ApproximantConfig(N=1024, cluster_tol=0.0)
    assert len(build_measure_dp(a, b, cfg)) == 1  # every location fuses into one atom
    one_grid = approximant._torus_peak_bytes(2, 1024, 2)
    monkeypatch.setattr(linalg, "BYTE_BUDGET", one_grid)
    assert len(build_measure_dp(*_pair(rng, 2, 2), cfg)) == 1025
    need = approximant._torus_peak_bytes(2, 1024, 2, gathered=True, fused=1)
    assert need > one_grid
    with pytest.raises(ResourceLimitError, match=rf"^torus grid points: 1025 would need {need} bytes, over"):
        build_measure_dp(a, b, cfg)


def test_a_build_whose_atoms_fuse_is_guarded_with_their_sums(rng, monkeypatch, traced_peak):
    # eigenvalues 0 and 1e-4 over N = 100000 steps: neighbouring locations lie about merge_tol
    # apart, so about a third of them fuse, and the collapse sums the atoms into new arrays
    # beside the grid
    a, b = np.diag([0.0, 1e-4]), random_matrix(rng, 2)
    cfg = ApproximantConfig(N=100000)
    m, peak = traced_peak(lambda: build_measure_dp(a, b, cfg))
    assert 0 < len(m) < 100001
    unfused = approximant._torus_peak_bytes(2, 100000, 2)
    predicted = approximant._torus_peak_bytes(2, 100000, 2, gathered=False, fused=len(m))
    assert unfused < peak <= predicted <= 1.1 * peak
    monkeypatch.setattr(linalg, "BYTE_BUDGET", unfused)
    assert len(build_measure_dp(*_pair(rng, 2, 2), cfg)) == 100001  # nothing fuses: admitted
    with pytest.raises(ResourceLimitError, match=rf"^torus grid points: 100001 would need {predicted} bytes, over"):
        build_measure_dp(a, b, cfg)


@pytest.mark.parametrize("n, l, n_steps", [(2, 2, 14), (3, 3, 9), (4, 2, 12), (3, 2, 13)])
def test_bruteforce_peak_bytes_prediction(rng, traced_peak, n, l, n_steps):
    a, b = _pair(rng, n, l)
    _, peak = traced_peak(lambda: build_measure_bruteforce(a, b, ApproximantConfig(N=n_steps)))
    predicted = _tuple_peak_bytes(l, n_steps, n)
    assert peak <= predicted <= 2 * peak


def test_convergence_study_peaks_at_its_largest_build(rng, traced_peak):
    # each M_N is freed before the next build and only its 23-point transform is
    # kept, and the transform holds one slab of coefficients, so the study peaks
    # at about one N=2048 build
    a, b = _pair(rng, 8, 2)
    schedule = tuple(16 * 2**i for i in range(8))
    _, build = traced_peak(lambda: build_measure_dp(a, b, ApproximantConfig(N=2048)))
    report, peak = traced_peak(lambda: convergence_study(a, b, schedule))
    assert [p.N for p in report.points] == list(schedule)
    assert peak <= approximant._torus_peak_bytes(2, 2048, 8)
    assert peak <= 1.05 * build


def test_stahl_trace_study_peaks_at_its_largest_build(rng, traced_peak):
    # each measure and its trace measure are freed before the next build
    a, b = hermitian_with_spectrum(rng, [0.0, 1.0], [4, 4]), random_hermitian(rng, 8)
    schedule = tuple(16 * 2**i for i in range(8))
    _, build = traced_peak(lambda: build_measure_dp(a, b, ApproximantConfig(N=2048)))
    report, peak = traced_peak(lambda: stahl_trace_study(a, b, schedule))
    assert [p.N for p in report.points] == list(schedule)
    assert peak <= approximant._torus_peak_bytes(2, 2048, 8)
    assert peak <= 1.05 * build


def test_counterexample_demo_peaks_at_its_largest_build(traced_peak):
    # M_1024, held through the N = 2048 build, would add about 13% to the build's own peak
    a, b = counterexample_pair()
    schedule = tuple(16 * 2**i for i in range(8))
    _, build = traced_peak(lambda: build_measure_dp(a, b, ApproximantConfig(N=2048)))
    result, peak = traced_peak(lambda: counterexample_demo(schedule))
    assert [row[0] for row in result.moment1_by_n] == list(schedule)
    assert peak <= 1.05 * build


def test_a_one_cluster_build_stays_small_at_any_step_count(rng, traced_peak):
    # one cluster: a one-point grid and one atom, and no table sized by N
    a, b = 0.5 * np.eye(3), random_matrix(rng, 3)
    m, peak = traced_peak(lambda: build_measure_dp(a, b, ApproximantConfig(N=10**12)))
    assert len(m) == 1 and m.locations.tolist() == [0.5]
    assert peak < 64 * 2**10


@pytest.mark.parametrize("total, parts", [(2000, 3), (100, 4), (40, 5), (10**5, 2)])
def test_compositions_peak_bytes_prediction(traced_peak, total, parts):
    _, peak = traced_peak(lambda: compositions(total, parts))
    predicted = approximant._compositions_peak_bytes(total, parts)
    assert peak <= predicted <= 2 * peak


def test_compositions_are_guarded_on_their_own_count():
    # 2,080 rows, though the grid {0, 1, 2}**63 they lie on has more points than any array
    assert compositions(2, 64).shape == (2080, 64)
    assert n_convex_hull(np.arange(64.0), 2).size == 127
    # C(10**15 + 999, 999) has about 12,400 digits: refused without forming or formatting it
    message = rf"^compositions: C\(1000000000000999, 999\) would need more than the budget of {BYTE_BUDGET} bytes$"
    with pytest.raises(ResourceLimitError, match=message):
        compositions(10**15, 1000)


def test_byte_guard_names_the_count_the_prediction_and_the_budget():
    assert guarded_count("cells", 10, 3, peak_bytes=lambda k: 8 * k) == 1000
    assert guarded_count("cells", 1, 5, peak_bytes=lambda k: BYTE_BUDGET) == 1
    with pytest.raises(
        ResourceLimitError,
        match=rf"^cells: 10\*\*3 would need {BYTE_BUDGET + 1} bytes, over the budget of {BYTE_BUDGET} bytes$",
    ):
        guarded_count("cells", 10, 3, peak_bytes=lambda k: BYTE_BUDGET + 1)

    # past 2**63 the count is never formed and the prediction never asked for
    def never(_):
        raise AssertionError("predicted a count that no array can hold")

    with pytest.raises(
        ResourceLimitError, match=rf"^cells: 2\*\*64 would need more than the budget of {BYTE_BUDGET} bytes$"
    ):
        guarded_count("cells", 2, 64, peak_bytes=never)
    assert guarded_count("cells", 2, 63, peak_bytes=lambda k: 0) == 2**63


def test_bruteforce_single_cluster_beyond_64_steps():
    # one cluster: a single index tuple, however long
    a = 0.5 * np.eye(2, dtype=complex)
    b = np.array([[0.0, 0.3], [0.3, 0.1]], dtype=complex)
    m = build_measure_bruteforce(a, b, ApproximantConfig(N=100))
    dp = build_measure_dp(a, b, ApproximantConfig(N=100))
    assert len(m) == len(dp) == 1
    assert np.abs(m.weights - dp.weights).max() <= 1e-12


def _random_measure(count, n):
    rng = np.random.default_rng(count)
    weights = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return DiscreteMatrixMeasure(np.sort(rng.uniform(-1.0, 1.0, count)), weights, N=256)


# (atoms, n, write bound, read bound) in MB; 33,153 atoms is measure-generic's 3x3
# measure at N=256. Whole-file I/O peaked at 45 MB (write) and 62 MB (read) on
# these inputs, and at 35 MB (write) in the 8x8 case, whose rows of 129 numbers
# catch a chunk sized by atoms rather than by numbers. A read holds the file's
# text twice while the parser starts (bytes, then str: 27 MB and 20 MB here);
# a parsed tree of arrays per weight rather than one row per atom read 39 MB.
@pytest.mark.parametrize("count, n, write_mb, read_mb", [(33_153, 3, 8, 36), (4_000, 8, 8, 24)])
def test_measure_io_peak_is_bounded(tmp_path, traced_peak, count, n, write_mb, read_mb):
    m = _random_measure(count, n)
    path = tmp_path / "m.json"
    assert traced_peak(lambda: write_measure(path, m))[1] < write_mb * 2**20
    assert traced_peak(lambda: read_measure(path))[1] < read_mb * 2**20


def test_transform_peak_is_bounded(traced_peak):
    # 23 points (the CLI's default grid) x 33,153 atoms: the whole coefficient
    # matrix is 12 MB, and it and its exponential peaked at 24 MB; a chunk of
    # points holds at most three points' coefficients here
    m = _random_measure(33_153, 3)
    grid = np.concatenate([np.linspace(-1.0, 1.0, 21), [1j, -1j]])
    values, peak = traced_peak(lambda: laplace_transform(m, grid))
    assert values.shape == (23, 3, 3)
    assert peak < 4 * 2**20


def test_transform_command_peak_is_bounded(tmp_path, traced_peak):
    # a one-atom measure over 100,001 points: the 2.8 MiB table is written a chunk at a time;
    # its whole text in a buffer, with the buffer's copy and a stacked copy of the columns,
    # peaked at 12.5 MiB
    path = tmp_path / "one.json"
    write_measure(path, DiscreteMatrixMeasure(np.array([0.5]), np.ones((1, 1, 1)), N=1))
    table = tmp_path / "t.csv"
    argv = ["transform", "--measure", str(path), "--tgrid=0:1:1e-5", "--out", str(table)]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert table.read_text(encoding="ascii").count("\n") == 100_002
    assert peak < 10 * 2**20


def _grid_calls(a, b, t, m):
    """(call, predicted peak bytes) of each guarded t-grid evaluation on the grid t, m a measure of the pair."""
    points, n = t.size, a.shape[0]
    return {
        "truth_exponential": (lambda: truth_exponential(a, b, t), _truth_peak_bytes(points, n)),
        # N = 7 = 0b111: every squaring is also multiplied in, so the matrix power holds the most
        "lie_approximant": (lambda: lie_approximant(a, b, t, 7), _lie_peak_bytes(points, n)),
        "laplace_transform": (lambda: laplace_transform(m, t), _transform_peak_bytes(points, len(m), n)),
        # a doubling schedule keeps one transform at a time
        "convergence_study": (
            lambda: convergence_study(a, b, (2, 4, 8, 16, 32), t_grid=t), _study_peak_bytes(points, n, 1)
        ),
    }


@pytest.mark.parametrize("points, n", [(500, 8), (250, 16)])
@pytest.mark.parametrize("what", ["truth_exponential", "lie_approximant", "laplace_transform", "convergence_study"])
def test_grid_peak_bytes_prediction(rng, traced_peak, points, n, what):
    # a Hermitian pair, so truth_exponential cross-checks every real point, and an A of two clusters
    a, b = hermitian_with_spectrum(rng, [0.0, 1.0], [n - 1, 1]), random_hermitian(rng, n)
    t = np.linspace(-1.0, 1.0, points)
    call, predicted = _grid_calls(a, b, t, build_measure_dp(a, b, ApproximantConfig(N=16)))[what]
    _, peak = traced_peak(call)
    assert peak <= predicted <= 2 * peak


@pytest.mark.parametrize("what", ["truth_exponential", "lie_approximant", "laplace_transform", "convergence_study"])
def test_grid_evaluations_refuse_past_the_byte_budget(rng, monkeypatch, what):
    a, b = hermitian_with_spectrum(rng, [0.0, 1.0], [2, 1]), random_matrix(rng, 3)
    t = np.linspace(-1.0, 1.0, 101)
    m = build_measure_dp(a, b, ApproximantConfig(N=8))
    call, need = _grid_calls(a, b, t, m)[what]
    monkeypatch.setattr(linalg, "BYTE_BUDGET", 10_000)
    label = "t-grid points: 101"
    if what == "laplace_transform":
        label = rf"transform coefficients \(101 t-points x {len(m)} atoms\): {101 * len(m)}"
    with pytest.raises(ResourceLimitError, match=rf"^{label} would need {need} bytes, over the budget of 10000 bytes$"):
        call()
