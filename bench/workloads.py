"""The benchmark's workloads: seeded inputs, the CLI op each one repeats, and its gates.

An op is a short sequence of `liemeasure` CLI calls made in-process through
`liemeasure.cli.main`. Inputs are generated here from the run's seed with
numpy alone and written as matrix JSON, so the program sees only the files.
The gates run outside the timed region; an op that breaks any of them counts
as failed.
"""

import hashlib
import io
import json
import math
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy.linalg

import liemeasure.cli

GENERIC_SPECTRUM = (-1.0, 0.1 * math.sqrt(2.0), 0.4 + 1.0 / math.sqrt(3.0))
LATTICE_SPECTRUM = (0.0, 1.0, 2.0)
MEASURE_STEPS = 256
CONVERGE_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048)
VERIFY_TRIALS = 200
VERIFY_LEMMAS = 22
# the CLI's default transform grid: 21 real points on [-1, 1] plus +i and -i
DEFAULT_GRID = np.concatenate([np.linspace(-1.0, 1.0, 21), [1j, -1j]])


# ------------------------------------------------------------------ inputs

def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitian(rng, eigenvalues):
    u = _unitary(rng, len(eigenvalues))
    h = (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T
    return (h + h.conj().T) / 2.0


def _disc_matrix(rng, n, scale):
    """Entries uniform on the disc of radius `scale`."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, (n, n)))
    angle = rng.uniform(0.0, 2.0 * np.pi, (n, n))
    return scale * radius * np.exp(1j * angle)


def _write_matrix(path, m):
    obj = {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}
    Path(path).write_text(json.dumps(obj) + "\n", encoding="ascii")


def lie_approximants(a, b, n_steps, grid):
    """L_N(t) = (e^(tA/N) e^(B/N))^N for every t of the grid, shape (T, n, n)."""
    lam, v = np.linalg.eigh(a)
    phases = np.exp(np.outer(grid, lam) / n_steps)
    left = (v[np.newaxis] * phases[:, np.newaxis, :]) @ v.conj().T
    step = left @ scipy.linalg.expm(b / n_steps)
    return np.linalg.matrix_power(step, int(n_steps))


def _op_norms(stack):
    return np.linalg.norm(stack, 2, axis=(-2, -1))


# -------------------------------------------------------------------- ops

def digest(stdout, paths):
    h = hashlib.sha256(stdout.encode())
    for p in paths:
        h.update(b"\0" + Path(p).read_bytes())
    return h.hexdigest()


class Workload:
    """One closed-loop workload: a single client repeats `commands` back to back.

    Subclasses define the inputs, the CLI calls and the gates. `outputs` names
    the files one op writes into its output directory.
    """

    name = ""
    outputs: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.generate(np.random.default_rng(seed))

    def generate(self, rng) -> None:
        pass

    def commands(self, outdir: Path, warmup: bool) -> list[list[str]]:
        raise NotImplementedError

    def check(self, stdout: str, files: dict[str, Path]) -> list[str]:
        """Failures of the workload-specific gates on one op's outputs."""
        raise NotImplementedError

    def self_test(self, files: dict[str, Path], scratch: Path) -> list[str]:
        """Problems found when the gates are fed corrupted copies of outputs that passed."""
        return []

    def run_op(self, outdir: Path, warmup: bool = False):
        """Run one op; return (exit codes, captured stdout, error text or None)."""
        outdir.mkdir(parents=True, exist_ok=True)
        out, err = io.StringIO(), io.StringIO()
        codes = []
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            for argv in self.commands(outdir, warmup):
                try:
                    codes.append(liemeasure.cli.main(argv))
                except Exception:  # an escaped exception fails the op, the run goes on
                    codes.append(-1)
                    error = traceback.format_exc()
                    break
        return codes, out.getvalue(), error or err.getvalue() or None

    def output_paths(self, outdir: Path) -> dict[str, Path]:
        return {name: outdir / name for name in self.outputs}


class MeasureWorkload(Workload):
    """measure --steps 256 on a 3x3 pair, then transform on the default grid."""

    spectrum: tuple[float, ...] = ()
    atoms = 0
    outputs = ("measure.json", "trace.csv", "transform.csv")

    def generate(self, rng):
        self.a = _hermitian(rng, self.spectrum)
        self.b = _disc_matrix(rng, 3, 1.0)
        self.a_path = self.workdir / "a.json"
        self.b_path = self.workdir / "b.json"
        _write_matrix(self.a_path, self.a)
        _write_matrix(self.b_path, self.b)

    def commands(self, outdir, warmup):
        files = self.output_paths(outdir)
        a, b = str(self.a_path), str(self.b_path)
        return [
            ["measure", "--a", a, "--b", b, "--steps", "8" if warmup else str(MEASURE_STEPS),
             "--out", str(files["measure.json"]), "--trace-csv", str(files["trace.csv"])],
            ["transform", "--measure", str(files["measure.json"]), "--a", a, "--b", b,
             "--out", str(files["transform.csv"])],
        ]

    def check(self, stdout, files):
        fails = []
        if not stdout.startswith(f"atoms={self.atoms} "):
            fails.append(f"stdout does not report atoms={self.atoms}: {stdout[:80]!r}")
        return fails + self._check_measure(files["measure.json"]) + self._check_transform(files["transform.csv"])

    def _check_measure(self, path):
        """Atom count, total mass ||M_0 - e^B|| and support of a measure JSON."""
        fails = []
        obj = json.loads(path.read_text(encoding="ascii"))
        atoms = obj["atoms"]
        if len(atoms) != self.atoms or obj["N"] != MEASURE_STEPS:
            fails.append(f"measure has {len(atoms)} atoms at N={obj['N']}")
        locs = np.array([atom["lambda"] for atom in atoms])
        weights = np.array([np.array(atom["weight"]["re"]) + 1j * np.array(atom["weight"].get("im", 0.0))
                            for atom in atoms])
        eb = scipy.linalg.expm(self.b)
        mass_gap = float(_op_norms(weights.sum(axis=0) - eb))
        if not mass_gap <= 1e-10 * max(1.0, float(_op_norms(eb))):
            fails.append(f"||M_0 - e^B|| = {mass_gap:.3e}")
        lam = np.linalg.eigvalsh(self.a)
        slack = 1e-12 * max(1.0, float(np.abs(lam).max()))
        if locs.min() < lam[0] - slack or locs.max() > lam[-1] + slack:
            fails.append(f"support [{locs.min()}, {locs.max()}] leaves [{lam[0]}, {lam[-1]}]")
        return fails

    def _check_transform(self, path):
        """err_vs_LN <= 1e-9 max(1, ||L_N(t)||) on every row of the default grid."""
        rows = [line.split(",") for line in path.read_text(encoding="ascii").splitlines()[1:]]
        if len(rows) != DEFAULT_GRID.size:
            return [f"transform CSV has {len(rows)} rows"]
        grid = np.array([complex(float(r[0]), float(r[1])) for r in rows])
        err = np.array([float(r[2]) for r in rows])
        bound = 1e-9 * np.maximum(1.0, _op_norms(lie_approximants(self.a, self.b, MEASURE_STEPS, grid)))
        bad = ~(err <= bound)
        if bad.any():
            return [f"err_vs_LN above its bound at t={grid[bad][0]}"]
        return []

    def self_test(self, files, scratch):
        problems = []
        scratch.mkdir(parents=True, exist_ok=True)
        # add 1e-6 to the first real entry of the middle atom's weight, editing
        # the text so the rest of the file stays byte-identical
        text = files["measure.json"].read_text(encoding="ascii")
        start = text.index('"re":[[', len(text) // 2) + len('"re":[[')
        end = text.index(",", start)
        bad_measure = scratch / "measure.json"
        bad_measure.write_text(f"{text[:start]}{float(text[start:end]) + 1e-6!r}{text[end:]}", encoding="ascii")
        if not self._check_measure(bad_measure):
            problems.append("a measure with one perturbed weight passes the gates")
        lines = files["transform.csv"].read_text(encoding="ascii").splitlines()
        cells = lines[1].split(",")
        cells[2] = "1"
        lines[1] = ",".join(cells)
        bad_csv = scratch / "transform.csv"
        bad_csv.write_text("\n".join(lines) + "\n", encoding="ascii")
        if not self._check_transform(bad_csv):
            problems.append("a transform CSV with err_vs_LN = 1 passes the gates")
        return problems


class MeasureGeneric(MeasureWorkload):
    """Incommensurate spectrum: 33,153 atoms and no fusion, so serialisation shares the time."""

    name = "measure-generic"
    spectrum = GENERIC_SPECTRUM
    atoms = math.comb(MEASURE_STEPS + 2, 2)


class MeasureLattice(MeasureWorkload):
    """Spectrum {0, 1, 2}: the same 33,153 DP cells fuse into 513 atoms, so the builder dominates."""

    name = "measure-lattice"
    spectrum = LATTICE_SPECTRUM
    atoms = 2 * MEASURE_STEPS + 1


class StudyL2(Workload):
    """converge up to N=2048 on an 8x8 pair with two eigenvalues, then counterexample."""

    name = "study-l2"
    outputs = ("conv.csv",)

    def generate(self, rng):
        self.a = _hermitian(rng, (-1.0,) * 4 + (1.0,) * 4)
        self.b = _disc_matrix(rng, 8, 0.8)
        self.a_path = self.workdir / "a.json"
        self.b_path = self.workdir / "b.json"
        _write_matrix(self.a_path, self.a)
        _write_matrix(self.b_path, self.b)

    def commands(self, outdir, warmup):
        schedule = "4,8" if warmup else ",".join(map(str, CONVERGE_SCHEDULE))
        counter = ["counterexample", "--schedule", "4,8"] if warmup else ["counterexample"]
        return [
            ["converge", "--a", str(self.a_path), "--b", str(self.b_path),
             "--schedule", schedule, "--out", str(outdir / "conv.csv")],
            counter,
        ]

    def check(self, stdout, files):
        fails = []
        rows = files["conv.csv"].read_text().splitlines()[1:]
        if [int(r.split(",")[0]) for r in rows] != list(CONVERGE_SCHEDULE):
            fails.append(f"convergence CSV has {len(rows)} rows")
        rate = next((line for line in stdout.splitlines() if line.startswith("rate_estimate=")), "")
        value = float(rate.partition("=")[2] or "nan")
        if not -1.1 <= value <= -0.9:
            fails.append(f"rate_estimate {value} outside [-1.1, -0.9]")
        if "psd = False" not in stdout:
            fails.append("counterexample did not report a non-PSD first moment")
        return fails


class VerifyAll(Workload):
    """verify --suite all --trials 200: thousands of tiny calls, so per-call overhead dominates."""

    name = "verify-all"

    def commands(self, outdir, warmup):
        trials = "1" if warmup else str(VERIFY_TRIALS)
        return [["verify", "--suite", "all", "--trials", trials, "--seed", str(self.seed)]]

    def check(self, stdout, files):
        return _check_verify(stdout.splitlines())


class StudyVerify(StudyL2):
    """The study-l2 op, then the verify-all op: every layer of both in one workload.

    The benchmark keeps two workloads so that each run can be long; this one
    carries the experiments and the per-call overhead layers together.
    """

    name = "study-verify"

    def commands(self, outdir, warmup):
        return super().commands(outdir, warmup) + VerifyAll.commands(self, outdir, warmup)

    def check(self, stdout, files):
        lines = stdout.splitlines()
        split = max(0, len(lines) - VERIFY_LEMMAS)
        study = "".join(line + "\n" for line in lines[:split])
        return super().check(study, files) + _check_verify(lines[split:])


def _check_verify(lines):
    """The verify output is exactly one PASS line per lemma."""
    passed = sum(line.startswith("PASS ") for line in lines)
    if passed != VERIFY_LEMMAS or len(lines) != VERIFY_LEMMAS:
        return [f"{passed} PASS lines of {len(lines)}, expected {VERIFY_LEMMAS}"]
    return []


WORKLOADS = {w.name: w for w in (MeasureGeneric, MeasureLattice, StudyL2, VerifyAll, StudyVerify)}


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Everything before the first timed op: inputs, then one small warm-up op.

    The warm-up makes the process pay its lazy first-call costs before timing
    starts; the set-up probes include it, so work moved there still shows.
    """
    wl = WORKLOADS[name](seed, workdir)
    codes, _, error = wl.run_op(workdir / "warmup", warmup=True)
    if any(codes):
        raise RuntimeError(f"warm-up op failed with exit codes {codes}: {error}")
    return wl


def keep_copy(files: dict[str, Path], dest: Path) -> dict[str, Path]:
    dest.mkdir(parents=True, exist_ok=True)
    kept = {}
    for name, path in files.items():
        kept[name] = dest / name
        shutil.copyfile(path, kept[name])
    return kept
