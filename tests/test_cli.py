"""Command line behavior: exit codes, file outputs, and determinism.

All invocations run in-process through cli.main to keep the suite fast.
"""

import gc
import json

import numpy as np
import pytest
import scipy.linalg

import liemeasure.cli as cli
import liemeasure.linalg as linalg
import liemeasure.measure as measure_module
from liemeasure.cli import main, parse_schedule, parse_t_grid
from liemeasure.approximant import _torus_peak_bytes
from liemeasure.linalg import BYTE_BUDGET, write_matrix
from liemeasure.measure import DiscreteMatrixMeasure, read_measure, write_measure
from liemeasure.verify import LemmaResult


@pytest.fixture
def pair_files(tmp_path, signed_limit_pair):
    a, b = signed_limit_pair
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, a)
    write_matrix(b_path, b)
    return str(a_path), str(b_path)


def test_parse_t_grid():
    grid = parse_t_grid("-1:1:0.5")
    assert grid.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    grid = parse_t_grid("0:1:0.25+2i")
    assert grid[-2] == 2j and grid[-1] == -2j and len(grid) == 7
    # endpoint within roundoff of the step survives
    assert len(parse_t_grid("0:0.3:0.1")) == 4
    # a span past the float range, counted without forming it: two points, both within it
    assert parse_t_grid("-1e308:1e308:1.5e308").tolist() == [-1e308, -1e308 + 1.5e308]
    for bad in ("1:0:1", "0:1:0", "0:1", "a:b:c", "0:1:0.5+i"):
        with pytest.raises(cli._UsageError):
            parse_t_grid(bad)


def test_parse_schedule():
    assert parse_schedule("4, 8,16") == (4, 8, 16)
    for bad in ("", "8,4", "0,4", "4,x"):
        with pytest.raises(cli._UsageError):
            parse_schedule(bad)


def test_measure_command_writes_and_reports(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    trace = str(tmp_path / "m.csv")
    code = main([
        "measure", "--a", a_path, "--b", b_path, "--steps", "8",
        "--out", out, "--trace-csv", trace,
    ])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("atoms=9 support=[0,2] tv=")
    assert "tv_bound=" in line
    m = read_measure(out)
    assert len(m) == 9 and m.N == 8
    assert open(trace).readline().strip() == "lambda,weight_re,weight_im"


def test_measure_reports_an_overflowing_tv_bound_as_inf(tmp_path, capsys):
    # n*||B|| = 3 * 240.1 is past e^709: the a-priori bound reads inf and the command succeeds
    a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
    write_matrix(a_path, np.diag([0.0, 1.0, 2.0]))
    write_matrix(b_path, np.diag([240.0, 0.0, 0.0]) + 0.1)
    assert main(["measure", "--a", str(a_path), "--b", str(b_path), "--steps", "4", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("atoms=9 support=[0,2] tv=")
    assert captured.out.endswith(" tv_bound=inf\n") and captured.err == ""
    assert len(read_measure(out)) == 9


def test_measure_builds_a_one_cluster_pair_at_any_step_count(tmp_path, capsys):
    a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
    write_matrix(a_path, 0.5 * np.eye(3))
    write_matrix(b_path, np.full((3, 3), 0.1))
    assert main(["measure", "--a", str(a_path), "--b", str(b_path), "--steps", str(10**12), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("atoms=1 support=[0.5,0.5] ") and captured.err == ""
    assert read_measure(out).N == 10**12


def test_measure_command_brute_matches_dp(tmp_path, pair_files):
    a_path, b_path = pair_files
    out_dp = str(tmp_path / "dp.json")
    out_bf = str(tmp_path / "bf.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "5", "--out", out_dp]) == 0
    assert main([
        "measure", "--a", a_path, "--b", b_path, "--steps", "5",
        "--method", "brute", "--out", out_bf,
    ]) == 0
    m1, m2 = read_measure(out_dp), read_measure(out_bf)
    assert np.array_equal(m1.locations, m2.locations)
    assert np.abs(m1.weights - m2.weights).max() <= 1e-12


def test_measure_command_is_deterministic(tmp_path, pair_files):
    a_path, b_path = pair_files
    out1, out2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    for out in (out1, out2):
        assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "16", "--out", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_usage_errors_exit_1(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "8"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["transform", "--measure", "x", "--tgrid=1:0:1"]) == 1
    assert main([
        "converge", "--a", a_path, "--b", b_path, "--schedule", "8,4",
        "--out", str(tmp_path / "c.csv"),
    ]) == 1
    capsys.readouterr()


def test_invalid_input_exits_2(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    missing = str(tmp_path / "nope.json")
    assert main(["measure", "--a", missing, "--b", b_path, "--steps", "4",
                 "--out", str(tmp_path / "m.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "re": [[1.0]]}')
    assert main(["measure", "--a", str(bad), "--b", b_path, "--steps", "4",
                 "--out", str(tmp_path / "m.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["transform", "plot", "measure"])
def test_deeply_nested_json_exits_2(tmp_path, pair_files, capsys, command):
    # deeper than the json parser can recurse: a measure file, or a matrix file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="ascii")
    b_path = pair_files[1]
    argv = {
        "transform": ["transform", "--measure", str(deep)],
        "plot": ["plot", "--measure", str(deep), "--out", str(tmp_path / "fig")],
        "measure": ["measure", "--a", str(deep), "--b", b_path, "--steps", "4",
                    "--out", str(tmp_path / "m.json")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: {deep}: JSON nested too deeply to parse\n"
    assert "Traceback" not in err


def test_resource_guard_exits_3(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    assert main([
        "measure", "--a", a_path, "--b", b_path, "--steps", "1000000",
        "--method", "brute", "--out", str(tmp_path / "m.json"),
    ]) == 3
    capsys.readouterr()


def test_dp_lattice_guard_exits_3_naming_the_count(tmp_path, capsys):
    # three distinct eigenvalues: (10**8 + 1)**2 lattice cells
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.diag([-1.0, 0.5, 2.0]))
    write_matrix(b_path, np.full((3, 3), 0.3))
    assert main([
        "measure", "--a", str(a_path), "--b", str(b_path), "--steps", "100000000",
        "--out", str(tmp_path / "m.json"),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ")
    assert "100000001**2" in err


def test_dp_byte_budget_exits_3_naming_the_count_and_the_bytes(tmp_path, capsys, traced_peak):
    # 8x8 with three clusters at N=2000: 2001**2 grid points were under the old
    # 5,000,000-point limit, but each holds an 8x8 complex matrix (about 4.1 GB)
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.diag([0.0] * 3 + [1.0] * 3 + [2.5] * 2))
    write_matrix(b_path, np.full((8, 8), 0.1))
    code, peak = traced_peak(lambda: main([
        "measure", "--a", str(a_path), "--b", str(b_path), "--steps", "2000",
        "--out", str(tmp_path / "m.json"),
    ]))
    err = capsys.readouterr().err
    assert code == 3
    # refused before the grid is allocated: the matrices and the decomposition peak at 73 KB
    assert peak < 150 * 2**10
    assert "Traceback" not in err
    need = _torus_peak_bytes(3, 2000, 8)
    assert err == (
        f"resource limit: torus grid points: 2001**2 would need {need} bytes,"
        f" over the budget of {BYTE_BUDGET} bytes\n"
    )
    assert not (tmp_path / "m.json").exists()


def test_booleans_and_strings_in_input_files_exit_2(tmp_path, capsys):
    measure = tmp_path / "m.json"
    atom = {"lambda": "0.5", "weight": {"re": [["1"]], "im": [[True]]}}
    measure.write_text(json.dumps({"n": 1, "N": None, "atoms": [atom]}), encoding="ascii")
    assert main(["transform", "--measure", str(measure)]) == 2
    assert capsys.readouterr().err == "invalid input: measure JSON: atom 0 has a bad location\n"
    atom["lambda"] = 0.5
    measure.write_text(json.dumps({"n": 1, "N": None, "atoms": [atom]}), encoding="ascii")
    assert main(["transform", "--measure", str(measure)]) == 2
    assert capsys.readouterr().err == "invalid input: measure JSON: atom 0 weight entries must be numbers\n"
    matrix = tmp_path / "a.json"
    matrix.write_text(json.dumps({"n": 1, "re": [[True]], "im": [["2"]]}), encoding="ascii")
    argv = ["measure", "--a", str(matrix), "--b", str(matrix), "--steps", "2", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "invalid input: matrix JSON: entries must be real numbers\n"


@pytest.mark.parametrize(
    "command, message",
    [
        ("measure", "matrix JSON: entries must be real numbers"),
        ("location", "measure JSON: atom 0 has a bad location"),
        ("weight", "measure JSON: atom 0 weight entries must be numbers"),
    ],
)
def test_integers_beyond_the_float_range_in_input_files_exit_2(tmp_path, capsys, command, message):
    huge = 10**400
    path = tmp_path / "in.json"
    if command == "measure":
        path.write_text(json.dumps({"n": 1, "re": [[huge]]}), encoding="ascii")
        argv = ["measure", "--a", str(path), "--b", str(path), "--steps", "2", "--out", str(tmp_path / "o.json")]
    else:
        location, entry = (huge, 1.0) if command == "location" else (0.5, huge)
        atom = {"lambda": location, "weight": {"re": [[entry]], "im": [[0.0]]}}
        path.write_text(json.dumps({"n": 1, "N": 1, "atoms": [atom]}), encoding="ascii")
        argv = ["transform", "--measure", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_a_command_leaves_no_cyclic_garbage(tmp_path, pair_files, capsys):
    # JSON reads pause the collector, so cycles left by each call would pile up
    # between its rare full passes and raise the peak memory of a long session
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    argv = ["measure", "--a", a_path, "--b", b_path, "--steps", "8", "--out", out]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert main(["transform", "--measure", out, "--a", a_path, "--b", b_path]) == 0
    assert gc.collect() == 0
    capsys.readouterr()


def test_transform_command_error_columns(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "256", "--out", out]) == 0
    capsys.readouterr()
    csv_path = str(tmp_path / "t.csv")
    assert main([
        "transform", "--measure", out, "--a", a_path, "--b", b_path,
        "--tgrid=-1:1:0.5", "--out", csv_path,
    ]) == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "t_re,t_im,err_vs_LN,err_vs_truth"
    assert len(lines) == 6
    for line in lines[1:]:
        t_re, t_im, err_ln, err_truth = map(float, line.split(","))
        assert err_ln <= 1e-9
        assert err_truth <= 0.05  # N = 256 approximant is this close on [-1, 1]


def test_transform_without_matrices_gives_nan_columns(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "4", "--out", out]) == 0
    capsys.readouterr()
    assert main(["transform", "--measure", out, "--tgrid=0:1:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[2] == "nan" and lines[1].split(",")[3] == "nan"


@pytest.mark.parametrize("given", ["--a", "--b"])
def test_transform_with_one_matrix_is_a_usage_error(tmp_path, pair_files, capsys, given):
    # refused before any file is read: the measure does not exist
    path = pair_files[0] if given == "--a" else pair_files[1]
    out = tmp_path / "t.csv"
    assert main(["transform", "--measure", str(tmp_path / "none.json"), given, path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--a" in err and "--b" in err
    assert not out.exists()


def test_transform_is_deterministic(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "8", "--out", out]) == 0
    t1, t2 = str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")
    for t in (t1, t2):
        assert main(["transform", "--measure", out, "--a", a_path, "--b", b_path,
                     "--out", t]) == 0
    capsys.readouterr()
    assert open(t1, "rb").read() == open(t2, "rb").read()


def test_transform_writes_the_same_bytes_to_every_target(tmp_path, pair_files, capsys, monkeypatch):
    # stdout, --out - and a file, each written 2 rows (8 numbers, 64 bytes) a slab: 12 slabs for 23 rows
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "8", "--out", out]) == 0
    argv = ["transform", "--measure", out, "--a", a_path, "--b", b_path]
    capsys.readouterr()
    assert main(argv) == 0
    whole = capsys.readouterr().out
    assert whole.count("\n") == 24
    monkeypatch.setattr(linalg, "_SLAB_BYTES", 64)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == whole
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "t.csv").read_text(encoding="ascii") == whole


def test_a_one_byte_slab_changes_no_output_byte(tmp_path, monkeypatch, capsys):
    # linalg._SLAB_BYTES sizes every part-at-a-time loop: at one byte the torus builder, the
    # transform (two points a chunk), the truth's cross-check, the Hermitian and PSD scans and
    # the table writers each take one item at a time, and every file and stdout keeps its bytes
    a = np.diag([-1.0, 0.1 * 2**0.5, 0.4 + 3**-0.5])
    b = np.array([[0.3, 0.5j, -0.2], [0.1, -0.4, 0.6], [0.7j, 0.2, 0.1]])
    pair = ["--a", "a.json", "--b", "b.json"]
    commands = [
        ["measure", *pair, "--steps", "16", "--out", "m.json", "--trace-csv", "m.csv"],
        ["transform", "--measure", "m.json"],
        ["transform", "--measure", "m.json", *pair],
        ["converge", *pair, "--schedule", "4,8,16", "--out", "c.csv"],
        ["converge", *pair, "--schedule", "4,8,16", "--format", "json", "--out", "c.json"],
        ["plot", "--measure", "m.json", "--out", "fig"],
    ]

    def outputs(run):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        write_matrix("a.json", a)
        write_matrix("b.json", b)
        stdout = []
        for argv in commands:
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out)
        return stdout, {p.name: p.read_bytes() for p in sorted((tmp_path / run).iterdir())}

    plain = outputs("plain")
    assert sorted(plain[1]) == ["a.json", "b.json", "c.csv", "c.json", "fig.dat", "fig.gp", "m.csv", "m.json"]
    monkeypatch.setattr(linalg, "_SLAB_BYTES", 1)
    assert outputs("one-byte") == plain


def test_verify_command_passes(capsys):
    assert main(["verify", "--suite", "norms", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS ") and "worst_margin=" in l for l in lines)


def test_verify_failure_exits_4(monkeypatch, capsys):
    fake = LemmaResult(
        name="fabricated", trials=3, worst_margin=-1.0, passed=False,
        failure={"lemma": "fabricated", "trial": 2, "margin": -1.0},
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [fake])
    assert main(["verify", "--suite", "norms"]) == 4
    out = capsys.readouterr().out
    assert "FAIL fabricated" in out
    assert json.loads(out.splitlines()[1])["trial"] == 2


def test_converge_command_csv_and_json(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    csv_path = str(tmp_path / "c.csv")
    json_path = str(tmp_path / "c.json")
    assert main([
        "converge", "--a", a_path, "--b", b_path, "--schedule", "4,8,16",
        "--out", csv_path,
    ]) == 0
    assert capsys.readouterr().out.startswith("rate_estimate=-1.0")
    lines = open(csv_path).read().splitlines()
    assert len(lines) == 4 and lines[0].startswith("N,max_transform_err")
    assert main([
        "converge", "--a", a_path, "--b", b_path, "--schedule", "4,8,16",
        "--format", "json", "--out", json_path,
    ]) == 0
    capsys.readouterr()
    obj = json.loads(open(json_path).read())
    assert [p["N"] for p in obj["points"]] == [4, 8, 16]


def test_counterexample_command(capsys):
    assert main(["counterexample", "--schedule", "16,32"]) == 0
    out = capsys.readouterr().out
    assert "det(D) = -0.38109784554181581" in out
    assert "psd = False" in out
    assert "onset_negative_det = 16" in out


def test_an_overflowing_trace_exits_2_naming_its_atom(tmp_path, capsys):
    # finite weights whose trace leaves the float range: plot traces every atom
    weights = np.stack([np.eye(2), np.diag([-1e308, -1e308])]).astype(complex)
    path = str(tmp_path / "m.json")
    write_measure(path, DiscreteMatrixMeasure(np.array([0.0, 1.0]), weights))
    assert main(["plot", "--measure", path, "--out", str(tmp_path / "fig")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: the trace of atom 1 leaves the float range\n"


def test_plot_of_an_empty_measure_exits_2_and_writes_no_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"n":1,"N":null,"atoms":[]}')
    assert main(["plot", "--measure", str(path), "--out", str(tmp_path / "fig")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: empty measure has no support interval\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.json"]


def test_plot_command(tmp_path, pair_files, capsys):
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "128", "--out", out]) == 0
    stem = str(tmp_path / "fig")
    assert main(["plot", "--measure", out, "--out", stem]) == 0
    capsys.readouterr()
    dat = open(stem + ".dat").read().splitlines()
    assert len(dat) == 130  # header + one row per atom
    locs = [float(row.split("\t")[0]) for row in dat[1:]]
    assert min(locs) == 0.0 and max(locs) == 2.0
    gp = open(stem + ".gp").read()
    assert gp.isascii()
    assert 'using 1:2 with impulses' in gp
    assert '"fig.dat"' in gp  # data referenced by basename, not full path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["measure", "--help"]) == 0
    capsys.readouterr()


def test_mismatched_a_and_b_give_one_message(tmp_path, capsys):
    # 3x3 a with 2x2 b: every command that reads both names the mismatch
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.diag([-1.0, 0.5, 2.0]))
    write_matrix(b_path, np.full((2, 2), 0.3))
    out = str(tmp_path / "m.json")
    write_matrix(tmp_path / "b3.json", np.full((3, 3), 0.3))
    assert main(["measure", "--a", str(a_path), "--b", str(tmp_path / "b3.json"),
                 "--steps", "4", "--out", out]) == 0
    capsys.readouterr()
    calls = [
        ["measure", "--a", str(a_path), "--b", str(b_path), "--steps", "4", "--out", out],
        ["converge", "--a", str(a_path), "--b", str(b_path), "--schedule", "4,8",
         "--out", str(tmp_path / "c.csv")],
        ["transform", "--measure", out, "--a", str(a_path), "--b", str(b_path)],
    ]
    for argv in calls:
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err == "invalid input: a and b must have the same dimension\n", argv[0]
        assert captured.out == ""
    # a consistent 2x2 pair against the 3x3 measure: named before any evaluation
    write_matrix(tmp_path / "a2.json", np.diag([-1.0, 2.0]))
    assert main(["transform", "--measure", out, "--a", str(tmp_path / "a2.json"), "--b", str(b_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "invalid input: the measure is 3x3 but a and b are 2x2\n"
    assert captured.out == ""


# peak bytes of a refused transform, about twice the measured peak: the 1e-6
# grid itself (16 MB) and the arange it is built from (8 MB), or 6-8 KB
REFUSED_TRANSFORM_PEAK = {"0:1:1e-6": 48 * 2**20, "0:1:1e-12": 16 * 2**10}


@pytest.mark.parametrize("tgrid", ["0:1:1e-6", "0:1:1e-12"])
def test_transform_grid_guard_exits_3_before_allocating(tmp_path, pair_files, capsys, traced_peak, tgrid):
    # 1e-6: 10**6 + 1 points pass the t-grid guard, but 9 atoms make 9,000,009
    # coefficients (144 MB); 1e-12: 10**12 + 1 points are refused before any is built
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "8", "--out", out]) == 0
    capsys.readouterr()
    code, peak = traced_peak(
        lambda: main(["transform", "--measure", out, "--a", a_path, "--b", b_path, "--tgrid", tgrid])
    )
    err = capsys.readouterr().err
    assert code == 3
    assert peak < REFUSED_TRANSFORM_PEAK[tgrid]
    assert err.startswith("resource limit: ") and "Traceback" not in err
    want = "9000009" if tgrid == "0:1:1e-6" else "t-grid points: 1000000000001 "
    assert want in err


# the count of the first two leaves the float range; the third names three points, the last
# of which, -1e308 + 2 * 1e308, leaves it; the last two read inf for a value
OVERSIZED_T_GRIDS = [
    ("0:1:1e-320", 3, "resource limit: t-grid points: inf exceeds the limit of 5000000\n"),
    ("0:1e308:1e-10", 3, "resource limit: t-grid points: inf exceeds the limit of 5000000\n"),
    ("-1e308:1e308:1e308", 1, "bad t grid '-1e308:1e308:1e308'; a point start + i*step leaves the float range\n"),
    ("0:1:0.1+1e400i", 1, "bad t grid '0:1:0.1+1e400i'; start, stop, step and c must be finite\n"),
    ("0:1e400:1", 1, "bad t grid '0:1e400:1'; start, stop, step and c must be finite\n"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tgrid, code, message", OVERSIZED_T_GRIDS, ids=[g[0] for g in OVERSIZED_T_GRIDS])
def test_t_grid_values_past_the_float_range(tmp_path, pair_files, capsys, tgrid, code, message):
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "8", "--out", out]) == 0
    capsys.readouterr()
    assert main(["transform", "--measure", out, f"--tgrid={tgrid}"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("command", ["converge", "transform"])
def test_t_grid_byte_budget_exits_3_naming_the_bytes(tmp_path, pair_files, capsys, monkeypatch, command):
    # 101 points of 2x2 matrices pass the point cap but not a 10,000-byte budget
    a_path, b_path = pair_files
    out = str(tmp_path / "m.json")
    assert main(["measure", "--a", a_path, "--b", b_path, "--steps", "8", "--out", out]) == 0
    capsys.readouterr()
    monkeypatch.setattr(linalg, "BYTE_BUDGET", 10_000)
    report = str(tmp_path / "report.csv")
    argv = {
        "converge": ["converge", "--a", a_path, "--b", b_path, "--schedule", "4,8", "--out", report],
        "transform": ["transform", "--measure", out, "--a", a_path, "--b", b_path, "--out", report],
    }[command]
    assert main(argv + ["--tgrid", "0:1:0.01"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ")
    assert err.endswith(" bytes, over the budget of 10000 bytes\n")
    assert not (tmp_path / "report.csv").exists()


def test_converge_on_a_long_t_grid_evaluates_the_truth_once(tmp_path, pair_files, capsys, monkeypatch):
    # 10,001 t-points: one stacked expm, not one call per point
    a_path, b_path = pair_files
    shapes = []
    expm = scipy.linalg.expm

    def counted(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return expm(x, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    code = main([
        "converge", "--a", a_path, "--b", b_path, "--schedule", "4",
        "--tgrid", "0:1:1e-4", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 0 and capsys.readouterr().err == ""
    # every other call takes one matrix, such as e^(B/N), alone or as a stack of one
    assert [s for s in shapes if len(s) == 3 and s[0] != 1] == [(10_001, 2, 2)]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["--suite", "norms", "--trials", "0"], "trials must be at least 1, got 0"),
        (["--suite", "all", "--trials", "-3"], "trials must be at least 1, got -3"),
        (["--suite", "all", "--max-dim", "0"], "max_dim must be at least 2 for suite 'all', got 0"),
        (["--suite", "spectral", "--max-dim", "1"], "max_dim must be at least 2 for suite 'spectral', got 1"),
        (["--suite", "norms", "--max-dim", "0"], "max_dim must be at least 1 for suite 'norms', got 0"),
    ],
)
def test_verify_rejects_empty_or_undrawable_runs(capsys, argv, bad):
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {bad}\n"


def test_verify_has_no_min_gap_option(capsys):
    assert main(["verify", "--suite", "norms", "--trials", "1", "--min-gap", "0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --min-gap 0.3" in captured.err


def test_verify_norms_suite_runs_at_max_dim_1(capsys):
    assert main(["verify", "--suite", "norms", "--trials", "5", "--max-dim", "1"]) == 0
    assert capsys.readouterr().out.count("PASS ") == 4
