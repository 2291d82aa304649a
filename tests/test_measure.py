"""Discrete matrix measures: evaluation, statistics, and serialization."""

import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import liemeasure.measure as measure_module
from liemeasure.linalg import _SLAB_BYTES, _hermitian_defects, canonical_json, is_psd, matrix_exp, operator_norm
from liemeasure.measure import (
    DiscreteMatrixMeasure,
    hermitian_deviation,
    is_nonnegative_measure,
    laplace_transform,
    measure_from_json,
    measure_to_json,
    moment,
    read_measure,
    support_interval,
    total_variation,
    trace_measure,
    transform_distance,
    write_measure,
    write_trace_csv,
)


def two_atom_measure():
    w0 = np.eye(2, dtype=complex)
    w1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return DiscreteMatrixMeasure(np.array([0.0, 1.0]), np.stack([w0, w1]), N=4)


def test_laplace_transform_by_hand():
    m = two_atom_measure()
    for t in (0.0, 1.0, -2.0, 0.5j):
        want = np.eye(2) + np.exp(complex(t)) * np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.abs(laplace_transform(m, t) - want).max() <= 1e-15 * max(1.0, abs(np.exp(complex(t))))


def test_moments_by_hand():
    m = two_atom_measure()
    assert np.abs(moment(m, 0) - (m.weights[0] + m.weights[1])).max() == 0.0
    assert np.abs(moment(m, 1) - m.weights[1]).max() == 0.0
    assert np.abs(moment(m, 3) - m.weights[1]).max() == 0.0
    with pytest.raises(ValueError):
        moment(m, -1)


def random_measure(rng, k=50, n=3):
    locs = np.sort(rng.uniform(-2.0, 2.0, k))
    weights = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return DiscreteMatrixMeasure(locs, weights)


def test_moment_zero_equals_transform_at_zero():
    m = two_atom_measure()
    assert np.array_equal(moment(m, 0), laplace_transform(m, 0.0))
    # with many atoms a different summation order would show in the last bits
    m = random_measure(np.random.default_rng(7), k=500)
    assert np.array_equal(moment(m, 0), laplace_transform(m, 0.0))
    assert np.array_equal(moment(m, 0), laplace_transform(m, np.array([1.0, 0.0]))[1])


@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
def test_laplace_transform_on_a_grid_matches_the_per_point_sum(shape):
    rng = np.random.default_rng(11)
    m = random_measure(rng)
    t = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    got = laplace_transform(m, t)
    assert got.shape == shape + (3, 3)
    for idx in np.ndindex(shape):
        want = np.einsum("k,kij->ij", np.exp(t[idx] * m.locations), m.weights)
        assert np.abs(got[idx] - want).max() <= 1e-13 * np.abs(want).max()


def test_laplace_transform_scalar_and_empty_grids():
    m = random_measure(np.random.default_rng(3))
    assert laplace_transform(m, np.array(0.5)).shape == (3, 3)
    assert np.array_equal(laplace_transform(m, np.array(0.5)), laplace_transform(m, 0.5))
    assert laplace_transform(m, np.zeros(0)).shape == (0, 3, 3)
    empty = DiscreteMatrixMeasure(np.zeros(0), np.zeros((0, 2, 2), dtype=complex))
    assert np.array_equal(laplace_transform(empty, np.arange(4.0)), np.zeros((4, 2, 2)))


@pytest.mark.parametrize("n, count", [(1, 9_000), (3, 200)])
def test_laplace_transform_across_chunk_boundaries(monkeypatch, n, count):
    # however the grid is cut into chunks, each point keeps the whole-grid value
    # bit for bit; for n = 1 beyond 8,192 atoms einsum sums a lone point's atoms
    # in another order, so a chunk of one point goes in as two
    rng = np.random.default_rng(count)
    m = random_measure(rng, k=count, n=n)
    for numbers in (1, count, 3 * count, 1 << 16):
        monkeypatch.setattr(measure_module, "_CHUNK_NUMBERS", numbers)
        for points in (1, 2, 3, 7, 8):
            t = rng.uniform(-1.0, 1.0, points) + 1j * rng.uniform(-1.0, 1.0, points)
            whole = measure_module._contract(np.exp(np.multiply.outer(t, m.locations)), m)
            assert laplace_transform(m, t).tobytes() == whole.tobytes(), (numbers, points)


def test_lone_points_sum_as_grid_points_for_many_scalar_atoms():
    # n = 1 and 33,153 atoms: a scalar t and the total mass are the grid's rows bit for bit
    m = random_measure(np.random.default_rng(33_153), k=33_153, n=1)
    t = np.linspace(-1.0, 1.0, 21)
    grid = laplace_transform(m, t)
    assert [laplace_transform(m, x).tobytes() for x in t] == [row.tobytes() for row in grid]
    assert moment(m, 0).tobytes() == grid[10].tobytes() == laplace_transform(m, 0.0).tobytes()


def test_total_variation_and_support():
    m = two_atom_measure()
    assert total_variation(m) == pytest.approx(2.0, abs=1e-12)
    assert support_interval(m) == (0.0, 1.0)


def test_support_interval_empty_measure():
    empty = DiscreteMatrixMeasure(np.zeros(0), np.zeros((0, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        support_interval(empty)
    assert total_variation(empty) == 0.0


def test_trace_measure_values():
    tm = trace_measure(two_atom_measure())
    assert isinstance(tm, DiscreteMatrixMeasure) and tm.dim == 1
    assert tm.weights.tolist() == [[[2.0 + 0.0j]], [[0.0 + 0.0j]]]
    assert np.array_equal(trace_measure(tm).weights, tm.weights)


def test_is_nonnegative_measure():
    good = DiscreteMatrixMeasure(
        np.array([0.0, 1.0]),
        np.stack([np.eye(2, dtype=complex), np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)]),
    )
    assert is_nonnegative_measure(good)
    indefinite = DiscreteMatrixMeasure(
        np.array([0.0]), np.array([[[1.0, 2.0], [2.0, 1.0]]], dtype=complex)
    )
    assert not is_nonnegative_measure(indefinite)
    assert not is_nonnegative_measure(two_atom_measure())  # non-Hermitian weight


def _boundary_weights(s):
    """Matrices of norm about s whose least eigenvalue or Hermitian defect sits half a tolerance inside or outside.

    With tol = 1e-9 max(1, s): diag(s, -f tol) has least eigenvalue -f tol,
    and [[s, f tol], [0, s]] has Hermitian defect f tol.
    """
    tol = 1e-9 * max(1.0, s)
    out = []
    for f in (0.5, 1.5):
        out.append(np.diag([s, -f * tol]).astype(complex))
        out.append(np.array([[s, f * tol], [0.0, s]], dtype=complex))
    return out


@pytest.mark.parametrize("s", [0.25, 1.0, 1e3])
def test_is_psd_and_is_nonnegative_measure_agree_atom_by_atom(rng, s):
    weights = _boundary_weights(s) + [
        np.diag([s, 0.0]).astype(complex),
        np.array([[0.0, s], [0.0, 0.0]], dtype=complex),  # far from Hermitian
        np.array([[s, s], [s, -s]], dtype=complex),  # Hermitian, indefinite
    ]
    # half a tolerance inside each bound passes, half outside fails; diag(s, -1.5 tol)
    # passed the old max(1, n max|w_ij|) scale of is_nonnegative_measure at s >= 1
    want = [True, True, False, False, True, False, False]
    for w, expected in zip(weights, want):
        assert is_psd(w) is expected
        assert is_nonnegative_measure(DiscreteMatrixMeasure(np.zeros(1), w[np.newaxis])) is expected
    x = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
    gram = x @ x.conj().swapaxes(1, 2)
    for w in gram:
        assert is_psd(w) is is_nonnegative_measure(DiscreteMatrixMeasure(np.zeros(1), w[np.newaxis])) is True


def test_is_nonnegative_measure_checks_every_slab():
    # 64 x 64 weights: 16 atoms a slab, so 40 atoms take three slabs
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 64, 64)) + 1j * rng.standard_normal((40, 64, 64))
    w = x @ x.conj().swapaxes(1, 2)
    assert is_nonnegative_measure(DiscreteMatrixMeasure(np.arange(40.0), w))
    w[37] -= 2 * np.linalg.eigvalsh(w[37])[-1] * np.eye(64)
    assert not is_psd(w[37])
    assert not is_nonnegative_measure(DiscreteMatrixMeasure(np.arange(40.0), w))


def test_is_nonnegative_measure_holds_a_slab_not_the_stack(traced_peak):
    # 100,000 2 x 2 atoms: 6.4 MB of weights, checked 16,384 atoms (1 MiB) at a time
    m = DiscreteMatrixMeasure(np.arange(100_000.0), np.tile(np.eye(2, dtype=complex), (100_000, 1, 1)))
    ok, peak = traced_peak(lambda: is_nonnegative_measure(m))
    assert ok
    assert peak <= 3 * 16 * measure_module._CHUNK_NUMBERS < m.weights.nbytes


def test_hermitian_deviation():
    m = two_atom_measure()
    w1 = m.weights[1]
    assert hermitian_deviation(m) == pytest.approx(operator_norm(w1 - w1.conj().T), abs=1e-14)
    sym = DiscreteMatrixMeasure(np.array([0.0]), np.eye(2, dtype=complex)[np.newaxis])
    assert hermitian_deviation(sym) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 5])
def test_hermitian_deviation_matches_the_two_copy_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)
    w = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
    m = DiscreteMatrixMeasure(np.arange(40.0), w)
    two_copy = m.weights - np.conj(np.swapaxes(m.weights, 1, 2))
    assert hermitian_deviation(m) == float(np.linalg.svd(two_copy, compute_uv=False)[:, 0].max())
    assert m.weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_hermitian_deviation_takes_a_slab_at_a_time(traced_peak, n):
    # a slab is 16,384, 1,820 or 256 atoms; the worst atom is the last, in the last slab
    slab = _SLAB_BYTES // (16 * n * n)
    rng = np.random.default_rng(n)
    for count in (slab - 1, slab, slab + 1, 2 * slab + 3):
        w = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        w[-1] *= 10.0
        m = DiscreteMatrixMeasure(np.arange(float(count)), w)
        value, peak = traced_peak(lambda: hermitian_deviation(m))
        assert value == float(_hermitian_defects(m.weights).max())
        assert peak < 2 * _SLAB_BYTES
    assert m.weights.nbytes > 2 * _SLAB_BYTES


def test_transform_distance():
    m = two_atom_measure()
    grid = np.array([0.0, 1.0, -1.0, 1j])
    assert transform_distance(m, m, grid) == 0.0
    shifted = DiscreteMatrixMeasure(m.locations + 0.5, m.weights, N=4)
    assert transform_distance(m, shifted, grid) > 0.1
    with pytest.raises(ValueError):
        transform_distance(m, m, np.zeros(0))


def test_transform_overflow_guard():
    far = DiscreteMatrixMeasure(np.array([800.0]), np.eye(2, dtype=complex)[np.newaxis])
    with pytest.raises(OverflowError):
        laplace_transform(far, 1.0)
    # decay direction underflows harmlessly instead
    val = laplace_transform(far, -1.0)
    assert np.abs(val).max() == 0.0
    # one bad point spoils the grid; the message names the worst Re(t)*lambda on it
    both = DiscreteMatrixMeasure(np.array([-800.0, 1.0]), np.stack([np.eye(2, dtype=complex)] * 2))
    with pytest.raises(OverflowError, match=r"^Re\(t\)\*lambda reaches 1200, "):
        laplace_transform(both, np.array([0.5, 0.0, -1.5 + 2j, 0.25]))
    assert laplace_transform(both, np.array([0.5, 0.0, 0.25j])).shape == (3, 2, 2)


def test_constructor_validation():
    w = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        DiscreteMatrixMeasure(np.array([1.0, 1.0]), w)  # not strictly increasing
    with pytest.raises(ValueError):
        DiscreteMatrixMeasure(np.array([0.0]), w)  # count mismatch
    with pytest.raises(ValueError):
        DiscreteMatrixMeasure(np.array([0.0, np.nan]), w)
    with pytest.raises(ValueError):
        DiscreteMatrixMeasure(np.array([[0.0]]), w[:1])


def test_measure_json_round_trip(rng):
    k, n = 5, 3
    locs = np.sort(rng.uniform(-1, 1, k))
    weights = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    m = DiscreteMatrixMeasure(locs, weights, N=7)
    back = measure_from_json(json.loads(canonical_json(measure_to_json(m))))
    assert np.array_equal(back.locations, m.locations)
    assert np.array_equal(back.weights, m.weights)
    assert back.N == 7


def test_measure_to_json_round_trip_takes_the_packed_path(rng, monkeypatch):
    locs = np.sort(rng.uniform(-1, 1, 40))
    weights = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    m = DiscreteMatrixMeasure(locs, weights, N=3)

    def unpacked(atoms, n):
        raise AssertionError("an atom was left unpacked")

    monkeypatch.setattr(measure_module, "_atom_rows_one_by_one", unpacked)
    back = measure_from_json(measure_to_json(m))
    assert back.locations.tobytes() == m.locations.tobytes()
    assert back.weights.tobytes() == m.weights.tobytes()


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_measure_to_json_pauses_the_collector_and_restores_it(rng, caller_enabled):
    # ten containers an atom, none in a cycle: unpaused, the collector would run dozens of times
    m = DiscreteMatrixMeasure(np.arange(2000.0), rng.normal(size=(2000, 3, 3)).astype(complex))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info)

    was_enabled = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        gc.callbacks.append(hook)
        try:
            obj = measure_to_json(m)
        finally:
            gc.callbacks.remove(hook)
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert starts == [] and len(obj["atoms"]) == 2000


def test_measure_json_null_step_count():
    m = DiscreteMatrixMeasure(np.array([0.5]), np.eye(2, dtype=complex)[np.newaxis])
    obj = measure_to_json(m)
    assert obj["N"] is None
    assert measure_from_json(obj).N is None


def test_measure_from_json_validation():
    with pytest.raises(ValueError):
        measure_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        measure_from_json({"n": 2, "N": None})
    base = {"n": 2, "N": 1, "atoms": [
        {"lambda": 0.0, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}}
    ]}
    assert len(measure_from_json(base)) == 1
    bad = json.loads(json.dumps(base))
    bad["atoms"][0]["weight"]["re"] = [[1.0, 0.0]]
    with pytest.raises(ValueError):
        measure_from_json(bad)


def test_read_write_measure(tmp_path, rng):
    m = two_atom_measure()
    path = tmp_path / "m.json"
    write_measure(path, m)
    back = read_measure(path)
    assert np.array_equal(back.locations, m.locations)
    assert np.array_equal(back.weights, m.weights)
    path2 = tmp_path / "m2.json"
    write_measure(path2, m)
    assert path.read_bytes() == path2.read_bytes()


def test_write_measure_refuses_non_finite(tmp_path):
    m = two_atom_measure()
    weights = m.weights.copy()
    weights[1, 0, 1] = np.nan
    object.__setattr__(m, "weights", weights)  # past the constructor's checks
    with pytest.raises(ValueError, match="^non-finite number in JSON payload$"):
        write_measure(tmp_path / "m.json", m)
    assert not (tmp_path / "m.json").exists()


def test_measure_arrays_are_read_only_views():
    locs = np.array([0.0, 1.0])
    weights = np.stack([np.eye(2, dtype=complex)] * 2)
    m = DiscreteMatrixMeasure(locs, weights)
    with pytest.raises(ValueError, match="read-only"):
        m.weights[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        m.locations[0] = 2.0
    # views of the inputs, not copies; the caller's arrays stay writable
    assert np.shares_memory(m.locations, locs) and np.shares_memory(m.weights, weights)
    assert locs.flags.writeable and weights.flags.writeable


def test_write_trace_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, two_atom_measure())
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,weight_re,weight_im"
    assert lines[1] == "0,2,0"
    assert lines[2] == "1,0,0"
    # a trace measure works directly too
    write_trace_csv(path, trace_measure(two_atom_measure()))
    assert path.read_text().splitlines() == lines


def _identity_atom(lam=0.0):
    return {"lambda": lam, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}


@pytest.mark.parametrize(
    "bad_atom, message",
    [
        ([0.0, [[1.0]]], 'atom 1 needs "lambda" and "weight"'),
        ({"weight": {"re": [[1.0, 0.0], [0.0, 1.0]]}}, 'atom 1 needs "lambda" and "weight"'),
        ({"lambda": 1.0}, 'atom 1 needs "lambda" and "weight"'),
        ({"lambda": None, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]]}}, "atom 1 has a bad location"),
        ({"lambda": [1.0], "weight": {"re": [[1.0, 0.0], [0.0, 1.0]]}}, "atom 1 has a bad location"),
        ({"lambda": "one", "weight": {"re": [[1.0, 0.0], [0.0, 1.0]]}}, "atom 1 has a bad location"),
        ({"lambda": 1.0, "weight": [[1.0, 0.0], [0.0, 1.0]]}, 'atom 1 weight needs "re"'),
        ({"lambda": 1.0, "weight": {"im": [[1.0, 0.0], [0.0, 1.0]]}}, 'atom 1 weight needs "re"'),
        ({"lambda": 1.0, "weight": {"re": [[1.0, "x"], [0.0, 1.0]]}}, "atom 1 weight entries must be numbers"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, {}], [0.0, 1.0]]}}, "atom 1 weight entries must be numbers"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, [0.0]], [0.0, 0.0]]}},
         "atom 1 weight entries must be numbers"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0], [0.0]]}}, "atom 1 weight entries must be numbers"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0]]}}, "atom 1 weight must be 2x2"),
        ({"lambda": 1.0, "weight": {"re": 1.0}}, "atom 1 weight must be 2x2"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0]]}}, "atom 1 weight must be 2x2"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0, 0.0]] * 3}}, "atom 1 weight must be 2x2"),
        # a bool or a numeric string is not a number
        ({"lambda": "0.5", "weight": {"re": [[1.0, 0.0], [0.0, 1.0]]}}, "atom 1 has a bad location"),
        ({"lambda": True, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]]}}, "atom 1 has a bad location"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, "0"], [0.0, 1.0]]}}, "atom 1 weight entries must be numbers"),
        ({"lambda": 1.0, "weight": {"re": [[True, 0.0], [0.0, 1.0]]}}, "atom 1 weight entries must be numbers"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, False], [0.0, 0.0]]}},
         "atom 1 weight entries must be numbers"),
        # ragged rows with four entries in all
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0, 0.0], [1.0]]}}, "atom 1 weight entries must be numbers"),
        # an integer beyond the float range, as a location and as an entry
        ({"lambda": 10**400, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]]}}, "atom 1 has a bad location"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0], [0.0, -(10**400)]]}}, "atom 1 weight entries must be numbers"),
        ({"lambda": 1.0, "weight": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[10**400, 0.0], [0.0, 0.0]]}},
         "atom 1 weight entries must be numbers"),
    ],
)
def test_measure_from_json_malformed_atom(tmp_path, bad_atom, message):
    obj = {"n": 2, "N": 1, "atoms": [_identity_atom(0.0), bad_atom, _identity_atom(2.0)]}
    with pytest.raises(ValueError, match=f"^measure JSON: {re.escape(message)}$"):
        measure_from_json(obj)
    # through a file, weights become arrays while the parser runs: same message
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj), encoding="ascii")
    with pytest.raises(ValueError, match=f"^measure JSON: {re.escape(message)}$"):
        read_measure(path)


def test_measure_from_json_reports_first_bad_atom(tmp_path):
    # atom 1 fails on its entries, atom 2 on its structure: the earlier atom is named
    entries = {"lambda": 1.0, "weight": {"re": [[1.0, "x"], [0.0, 1.0]]}}
    obj = {"n": 2, "N": 1, "atoms": [_identity_atom(0.0), entries, {"lambda": 2.0}]}
    with pytest.raises(ValueError, match="^measure JSON: atom 1 weight entries must be numbers$"):
        measure_from_json(obj)
    # read from a file, atom 0's weight reaches the reader as arrays and atom 1's as parsed
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj), encoding="ascii")
    with pytest.raises(ValueError, match="^measure JSON: atom 1 weight entries must be numbers$"):
        read_measure(path)


def test_measure_from_json_optional_imaginary_part_and_empty_atoms(tmp_path):
    atom = {"lambda": 0.5, "weight": {"re": [[1.0, 2.0], [3.0, 4.0]]}}
    m = measure_from_json({"n": 2, "N": 3, "atoms": [atom, _identity_atom(1.0)]})
    assert np.array_equal(m.locations, [0.5, 1.0])
    assert np.array_equal(m.weights[0], [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(m.weights.imag, np.zeros((2, 2, 2)))
    # an "im" of null reads as zero too, also from a file
    path = tmp_path / "m.json"
    null_im = {"lambda": 0.5, "weight": {"re": [[1.0, 2.0], [3.0, 4.0]], "im": None}}
    path.write_text(json.dumps({"n": 2, "N": 3, "atoms": [null_im, _identity_atom(1.0)]}), encoding="ascii")
    back = read_measure(path)
    assert np.array_equal(back.weights, m.weights) and back.weights.dtype == np.complex128
    empty = measure_from_json({"n": 3, "N": None, "atoms": []})
    assert len(empty) == 0 and empty.dim == 3 and empty.N is None
    assert empty.weights.shape == (0, 3, 3)


def _trace_csv_one_row_at_a_time(m) -> str:
    """Trace CSV text as the per-row writer produced it: the reference for write_trace_csv."""
    lines = ["lambda,weight_re,weight_im"]
    for l, w in zip(m.locations, m.weights):
        with np.errstate(over="ignore"):  # a trace of huge entries overflows to inf
            tr = complex(np.trace(w))
        lines.append(f"{float(l):.17g},{tr.real:.17g},{tr.imag:.17g}")
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@seed(20260816)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_measure_io_is_byte_identical_to_canonical_json(tmp_path_factory, data):
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    locs = sorted(data.draw(st.lists(_FLOATS, max_size=40, unique=True), label="locations"))
    k = len(locs)
    parts = data.draw(st.lists(_FLOATS, min_size=2 * k * n * n, max_size=2 * k * n * n), label="weights")
    nsteps = data.draw(st.none() | st.integers(min_value=1, max_value=10**6), label="N")
    parts = np.array(parts, dtype=float).reshape(2, k, n, n)
    weights = np.empty((k, n, n), dtype=np.complex128)
    weights.real, weights.imag = parts  # parts[0] + 1j*parts[1] would lose -0.0
    m = DiscreteMatrixMeasure(np.array(locs, dtype=float), weights, N=nsteps)

    path = tmp_path_factory.mktemp("io") / "m.json"
    write_measure(path, m)
    assert path.read_text(encoding="ascii") == canonical_json(measure_to_json(m)) + "\n"
    back = read_measure(path)
    assert np.array_equal(back.locations, m.locations)
    assert np.array_equal(back.weights, m.weights)
    assert back.N == nsteps and back.dim == n
    # array_equal cannot tell -0.0 from 0.0; the bytes of a second write can
    again = path.with_name("again.json")
    write_measure(again, back)
    assert again.read_bytes() == path.read_bytes()

    csv_path = path.with_suffix(".csv")
    for traced in (m, DiscreteMatrixMeasure(m.locations, m.weights[:, :1, :1])):
        want = _trace_csv_one_row_at_a_time(traced)
        if "inf" in want:  # a trace of huge entries overflows: refused, naming the first such atom
            first = next(i for i, line in enumerate(want.splitlines()[1:]) if "inf" in line)
            with pytest.raises(OverflowError, match=f"^the trace of atom {first} leaves the float range$"):
                write_trace_csv(csv_path, traced)
            continue
        write_trace_csv(csv_path, traced)
        assert csv_path.read_text(encoding="ascii") == want


def _measure_with_negative_zeros(rng, count, n):
    locs = np.sort(rng.uniform(-2.0, 2.0, count))
    parts = rng.standard_normal((2, count, n, n))
    parts[parts < -0.8] = -0.0
    weights = np.empty((count, n, n), dtype=np.complex128)
    weights.real, weights.imag = parts
    return DiscreteMatrixMeasure(locs, weights, N=7)


def _rows_per_chunk(monkeypatch, width, numbers):
    """Set the writers' chunk to `numbers` numbers; return its rows of `width` numbers, C."""
    monkeypatch.setattr(measure_module, "_CHUNK_NUMBERS", numbers)
    return max(1, numbers // width)


def _boundary_counts(c):
    return sorted({0, 1, c - 1, c, c + 1, 2 * c + 1})


# numbers per chunk = rows * width + slack: C = 1 (a row wider than the chunk), 3 and 4
CHUNKS = [(1, -1), (4, -1), (4, 0)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("rows, slack", CHUNKS)
def test_write_measure_across_chunk_boundaries(tmp_path, monkeypatch, n, rows, slack):
    width = 1 + 2 * n * n
    c = _rows_per_chunk(monkeypatch, width, rows * width + slack)
    rng = np.random.default_rng(10 * n + rows)
    for count in _boundary_counts(c):
        m = _measure_with_negative_zeros(rng, count, n)
        path = tmp_path / f"m{count}.json"
        write_measure(path, m)
        assert path.read_text(encoding="ascii") == canonical_json(measure_to_json(m)) + "\n", count
        # array_equal cannot tell -0.0 from 0.0; the bytes of a second write can
        again = tmp_path / f"again{count}.json"
        write_measure(again, read_measure(path))
        assert again.read_bytes() == path.read_bytes(), count


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("rows, slack", CHUNKS)
def test_write_trace_csv_across_chunk_boundaries(tmp_path, monkeypatch, n, rows, slack):
    c = _rows_per_chunk(monkeypatch, 3, rows * 3 + slack)
    rng = np.random.default_rng(10 * n + rows)
    for count in _boundary_counts(c):
        m = _measure_with_negative_zeros(rng, count, n)
        path = tmp_path / f"t{count}.csv"
        write_trace_csv(path, m)
        assert path.read_text(encoding="ascii") == _trace_csv_one_row_at_a_time(m), count
