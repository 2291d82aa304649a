"""Discrete matrix-valued measures on the real line and their transforms.

A measure here is a finite list of atoms (location, weight) with strictly
increasing real locations and square complex matrix weights, all of one
dimension. Its bilateral Laplace transform is sum_k e^(t*lambda_k) * W_k,
an entire matrix-valued function of complex t; moments are the derivatives
of the transform at t = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    LATTICE_LIMIT,
    _GcPaused,
    _is_real,
    _load_json,
    _re_im,
    as_int,
    batched_operator_norms,
    guarded_count,
    hermitian_defect,
)

__all__ = [
    "DiscreteMatrixMeasure",
    "laplace_transform",
    "total_variation",
    "support_interval",
    "moment",
    "trace_measure",
    "is_nonnegative_measure",
    "hermitian_deviation",
    "transform_distance",
    "measure_to_json",
    "measure_from_json",
    "read_measure",
    "write_measure",
    "write_trace_csv",
]

# exponent cap: e^x overflows float64 just above x = 709
_EXP_ARG_LIMIT = 700.0

# numbers handled per chunk: bounds the text the writers format and the
# coefficients the transform holds at once, whatever the atom count and n
_CHUNK_NUMBERS = 1 << 16


@dataclass(frozen=True)
class DiscreteMatrixMeasure:
    """Atoms of a matrix-valued measure, sorted by location.

    locations: (K,) float array, strictly increasing
    weights:   (K, n, n) complex array, weights[k] sits at locations[k]
    N:         step count of the construction that produced the measure, if any
    source:    free-form provenance label ("dp", "bruteforce", ...)

    locations and weights are stored read-only, as views rather than copies.
    """

    locations: np.ndarray
    weights: np.ndarray
    N: int | None = None
    source: str | None = None

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=np.complex128)
        if locs.ndim != 1:
            raise ValueError("locations must be a 1-D array")
        if w.ndim != 3 or w.shape[1] != w.shape[2] or w.shape[1] < 1:
            raise ValueError(f"weights must be a (K, n, n) stack, got {w.shape}")
        if w.shape[0] != locs.size:
            raise ValueError("locations and weights disagree on the atom count")
        if not np.all(np.isfinite(locs)):
            raise ValueError("locations must be finite")
        if not np.isfinite(w).all():  # a complex entry is finite when both parts are
            raise ValueError("weights must be finite")
        if np.any(np.diff(locs) <= 0):
            raise ValueError("locations must be strictly increasing")
        if self.N is not None:
            object.__setattr__(self, "N", as_int(self.N, "N"))
        # read-only, so the checks above keep holding; views, so nothing is copied
        locs, w = locs.view(), w.view()
        locs.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.locations.size)

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])

    @property
    def atoms(self) -> list[tuple[float, np.ndarray]]:
        return [(float(l), w) for l, w in zip(self.locations, self.weights)]


def _contract(coeff: np.ndarray, m: DiscreteMatrixMeasure) -> np.ndarray:
    """sum_k coeff[..., k] * W_k, shape coeff.shape[:-1] + (n, n), in one einsum.

    einsum sums the atoms in ascending-location order at every grid point, so a
    point's value does not depend on the grid around it, and moment(m, 0) is
    laplace_transform(m, 0) bit for bit. A lone row (a scalar t, a moment) goes
    in twice: for n = 1 and over 8,192 atoms, einsum sums one row in another order
    than a row of a grid. A BLAS GEMM would be faster on long grids but sums in
    another order, which moves the moments' last digits.
    """
    rows = math.prod(coeff.shape[:-1])
    flat = coeff.reshape(rows, len(m))
    out = np.einsum("tk,kij->tij", flat if rows != 1 else np.vstack((flat, flat)), m.weights)
    return out[:rows].reshape(coeff.shape[:-1] + (m.dim, m.dim))


def laplace_transform(m: DiscreteMatrixMeasure, t) -> np.ndarray:
    """sum_k e^(t*lambda_k) * W_k at a scalar t or at every point of an array t.

    Returns shape t.shape + (n, n): (n, n) for a scalar, (T, n, n) for a grid
    of T points. The grid is evaluated a chunk of points at a time, so about
    _CHUNK_NUMBERS coefficients e^(t*lambda_k) exist at once (two points'
    worth when K is larger), and each point's value, a scalar t's too, is the
    one a whole-grid einsum gives, bit for bit. Raises OverflowError, naming
    the worst Re(t)*lambda on the grid, when some e^(t*lambda_k) would leave
    the float range, and ResourceLimitError, before allocating, beyond
    LATTICE_LIMIT coefficients or when _transform_peak_bytes exceeds
    linalg.BYTE_BUDGET.
    """
    t = np.asarray(t, dtype=np.complex128)
    guarded_count(f"transform coefficients ({t.size} t-points x {len(m)} atoms)", t.size * len(m), 1, LATTICE_LIMIT,
                  peak_bytes=lambda _: _transform_peak_bytes(t.size, len(m), m.dim))
    if m.locations.size and t.size:
        # Re(t)*lambda is largest at an end of both ranges; locations ascend
        ends = np.multiply.outer([t.real.min(), t.real.max()], m.locations[[0, -1]])
        worst = float(ends.max())
        if worst > _EXP_ARG_LIMIT:
            raise OverflowError(
                f"Re(t)*lambda reaches {worst:.6g}, beyond the e^700 float range"
            )
    out = np.empty(t.shape + (m.dim, m.dim), dtype=np.complex128)
    points, values = t.reshape(-1), out.reshape(-1, m.dim, m.dim)
    edges = [*range(0, t.size, _chunk_points(len(m))), t.size]
    for start, stop in zip(edges, edges[1:]):
        coeff = np.multiply.outer(points[start:stop], m.locations)
        values[start:stop] = _contract(np.exp(coeff, out=coeff), m)
    return out


def _chunk_points(atoms: int) -> int:
    """Grid points per chunk of laplace_transform: at least two, so _contract pads at most the last chunk."""
    return max(2, _CHUNK_NUMBERS // max(1, atoms))


def _transform_peak_bytes(points: int, atoms: int, n: int) -> int:
    """Predicted peak bytes of laplace_transform on a grid of `points` for a measure of `atoms` (n, n) weights."""
    chunk = min(points, _chunk_points(atoms))
    # coefficient rows alive at once: a chunk's, the last chunk's until the next replaces
    # it, and a lone row's padded pair; then one chunk's weighted sums, a quarter over
    # for slack, and the two ufunc buffers of the outer product's cast
    rows = min(points, 2 * chunk) + 2
    return 16 * points * (n * n + 1) + 20 * (rows * atoms + chunk * n * n) + 32 * np.getbufsize()


def moment(m: DiscreteMatrixMeasure, k: int) -> np.ndarray:
    """sum_j lambda_j^k * W_j; k = 0 gives the total mass, equal to laplace_transform(m, 0)."""
    k = as_int(k, "moment order k", 0)
    coeff = m.locations.astype(complex) ** k if k else np.ones(len(m), dtype=complex)
    return _contract(coeff, m)


def total_variation(m: DiscreteMatrixMeasure) -> float:
    """Sum of the operator norms of the atom weights."""
    return float(batched_operator_norms(m.weights).sum())


def support_interval(m: DiscreteMatrixMeasure) -> tuple[float, float]:
    """(smallest location, largest location); error on an empty measure."""
    if not len(m):
        raise ValueError("empty measure has no support interval")
    return float(m.locations[0]), float(m.locations[-1])


def trace_measure(m: DiscreteMatrixMeasure) -> DiscreteMatrixMeasure:
    """The n=1 measure with weights tr(W_k), shape (K, 1, 1), at the same locations.

    OverflowError, naming the first such atom, when a trace leaves the float range.
    """
    with np.errstate(over="ignore"):
        traces = np.trace(m.weights, axis1=1, axis2=2)
    if not np.isfinite(traces).all():
        raise OverflowError(f"the trace of atom {np.flatnonzero(~np.isfinite(traces))[0]} leaves the float range")
    return DiscreteMatrixMeasure(m.locations.copy(), traces.reshape(-1, 1, 1), N=m.N, source=m.source)


def is_nonnegative_measure(m: DiscreteMatrixMeasure) -> bool:
    """True iff every atom weight is Hermitian positive semidefinite within HERMITIAN_TOL."""
    for w in m.weights:
        scale = max(1.0, float(np.abs(w).max()) * m.dim)
        if hermitian_defect(w) > HERMITIAN_TOL * scale:
            return False
        h = (w + w.conj().T) / 2.0
        if float(np.linalg.eigvalsh(h).min()) < -HERMITIAN_TOL * scale:
            return False
    return True


def hermitian_deviation(m: DiscreteMatrixMeasure) -> float:
    """max over atoms of ||W_k - W_k*||; zero when every weight is Hermitian."""
    if not len(m):
        return 0.0
    # W - W* formed in the one array that holds W*
    defect = np.conj(np.swapaxes(m.weights, 1, 2))
    np.subtract(m.weights, defect, out=defect)
    return float(batched_operator_norms(defect).max())


def transform_distance(m1: DiscreteMatrixMeasure, m2: DiscreteMatrixMeasure, t_grid) -> float:
    """max over the grid of ||transform(m1, t) - transform(m2, t)||."""
    if m1.dim != m2.dim:
        raise ValueError("measures must share one matrix dimension")
    grid = np.asarray(t_grid, dtype=np.complex128).ravel()
    if not grid.size:
        raise ValueError("t_grid must be non-empty")
    diff = laplace_transform(m1, grid) - laplace_transform(m2, grid)
    return float(batched_operator_norms(diff).max())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_json(m: DiscreteMatrixMeasure) -> dict:
    """Schema: {"n": int, "N": int|null, "atoms": [{"lambda": float, "weight": {"re", "im"}}]}.

    Floats in nested lists, as json.load gives them, so measure_from_json packs every atom.
    The tree holds no reference cycles, so it is built with the garbage collector paused.
    """
    with _GcPaused():
        atoms = [
            {"lambda": l, "weight": {"re": re, "im": im}}
            for l, re, im in zip(m.locations.tolist(), m.weights.real.tolist(), m.weights.imag.tolist())
        ]
        return {"n": m.dim, "N": m.N, "atoms": atoms}


def measure_from_json(obj) -> DiscreteMatrixMeasure:
    """The measure of a parsed measure JSON tree; ValueError naming the first malformed part.

    Every atom becomes one packed float64 row [lambda, re, im] (see _pack_atom),
    whether read_measure packed it while parsing or it arrives here as a dict.
    When every row fits n, the rows are stacked in one array; otherwise the
    atoms are checked one by one and the first malformed one is named.
    """
    if not isinstance(obj, dict):
        raise ValueError("measure JSON: expected an object")
    for key in ("n", "atoms"):
        if key not in obj:
            raise ValueError(f'measure JSON: required key "{key}"')
    n = as_int(obj["n"], 'measure JSON: "n"')
    nsteps = None if obj.get("N") is None else as_int(obj["N"], 'measure JSON: "N"')
    raw = obj["atoms"]
    if not isinstance(raw, list):
        raise ValueError('measure JSON: "atoms" must be a list')
    width = 1 + 2 * n * n
    rows = [_pack_atom(atom) if isinstance(atom, dict) else atom for atom in raw]
    if not all(isinstance(row, np.ndarray) and row.shape == (width,) for row in rows):
        rows = _atom_rows_one_by_one(rows, n)
    table = np.array(rows, dtype=float).reshape(len(rows), width)
    weights = np.empty((len(rows), n, n), dtype=np.complex128)
    # part by part, not re + 1j*im, which loses the sign of a zero part
    weights.real = table[:, 1:1 + n * n].reshape(len(rows), n, n)
    weights.imag = table[:, 1 + n * n:].reshape(len(rows), n, n)
    return DiscreteMatrixMeasure(table[:, 0].copy(), weights, N=nsteps, source="json")


# what the json parser makes of a number; a bool is not one
_NUMBER_TYPES = frozenset((int, float))


def _pack_atom(obj: dict):
    """json object_hook: an atom as one float64 row [lambda, re row-major, im row-major].

    Acts as the parser closes each object, on an atom {"lambda": number,
    "weight": {"re": k x k, "im": k x k | null | absent}} whose entries are all
    numbers; an "im" of null or absent packs as zeros. The row is built straight
    from the parsed lists, so the tree holds one small array per atom. Any other
    object is returned exactly as parsed, and the atom reader names the first
    bad atom with its own message.
    """
    weight = obj.get("weight")
    if "lambda" not in obj or type(weight) is not dict:
        return obj
    re, im = weight.get("re"), weight.get("im")
    size = len(re) if type(re) is list else 0
    row = [obj["lambda"]]
    for part in (re,) if im is None else (re, im):
        if not size or type(part) is not list or len(part) != size:
            return obj
        for line in part:
            if type(line) is not list or len(line) != size:
                return obj
            row += line
    if not _NUMBER_TYPES.issuperset(map(type, row)):
        return obj
    if im is None:
        row += [0.0] * (size * size)
    try:
        return np.array(row, dtype=float)
    except OverflowError:  # an integer beyond the float range: left to the atom reader
        return obj


def _atom_rows_one_by_one(atoms: list, n: int) -> list:
    """The packed row of every atom, checked atom by atom; raises on the first malformed atom.

    An atom is a row that _pack_atom made, or an object it left as is; such an
    object may still be well formed, say with arrays for "re" and "im".
    """
    rows = []
    for k, atom in enumerate(atoms):
        if isinstance(atom, np.ndarray):
            # packed: its parts are numbers in square lists, which may not be n x n
            if atom.shape != (1 + 2 * n * n,):
                raise ValueError(f"measure JSON: atom {k} weight must be {n}x{n}")
            rows.append(atom)
            continue
        if not isinstance(atom, dict) or "lambda" not in atom or "weight" not in atom:
            raise ValueError(f'measure JSON: atom {k} needs "lambda" and "weight"')
        try:
            location = float(atom["lambda"]) if _is_real(atom["lambda"]) else None
        except OverflowError:  # an integer beyond the float range
            location = None
        if location is None:
            raise ValueError(f"measure JSON: atom {k} has a bad location")
        w = atom["weight"]
        if not isinstance(w, dict) or "re" not in w:
            raise ValueError(f'measure JSON: atom {k} weight needs "re"')
        re, im = _re_im(w, n, f"measure JSON: atom {k} weight entries must be numbers",
                        f"measure JSON: atom {k} weight must be {n}x{n}")
        rows.append(np.concatenate(([location], re.ravel(), im.ravel())))
    return rows


def read_measure(path) -> DiscreteMatrixMeasure:
    """Read a measure file; each atom becomes one packed float64 row as soon as it is parsed.

    The text is parsed once, by the stdlib json parser, so the rules and
    messages are those of measure_from_json; a "-0" entry reads as -0.0. The
    parsed tree holds one row per atom rather than a float object per number,
    so the file's text, not the tree, sets the peak memory of a read.
    """
    return measure_from_json(_load_json(path, object_hook=_pack_atom))


def _write_rows(fh, row: str, columns, sep: str = "") -> None:
    """Write `row` (one %-conversion per column) filled for every row of the columns, rows joined by sep.

    columns are (K, w) blocks that sit side by side; an object block keeps
    Python ints exact for a %d. Each chunk of at most _CHUNK_NUMBERS numbers is
    copied into one small array and formatted in one % operation.
    '%.17g' % x and format(x, '.17g') are the same conversion, nan and -0
    included, so the text matches canonical_json's number for number.
    """
    count = len(columns[0])
    step = max(1, _CHUNK_NUMBERS // sum(c.shape[1] for c in columns))
    for start in range(0, count, step):
        data = np.hstack([c[start:start + step] for c in columns])
        if start:
            fh.write(sep)
        fh.write(sep.join([row] * len(data)) % tuple(data.ravel().tolist()))


def write_measure(path, m: DiscreteMatrixMeasure) -> None:
    """Write canonical_json(measure_to_json(m)) + "\n", a bounded chunk of atoms at a time.

    A non-finite number is refused before the file is opened.
    """
    n, count = m.dim, len(m)
    if not (np.isfinite(m.locations).all() and np.isfinite(m.weights).all()):
        raise ValueError("non-finite number in JSON payload")
    matrix = "[" + ",".join(["[" + ",".join(["%.17g"] * n) + "]"] * n) + "]"
    atom = '{"lambda":%.17g,"weight":{"re":' + matrix + ',"im":' + matrix + "}}"
    nsteps = "null" if m.N is None else str(m.N)
    columns = (
        m.locations.reshape(count, 1),
        m.weights.real.reshape(count, n * n),
        m.weights.imag.reshape(count, n * n),
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f'{{"n":{n},"N":{nsteps},"atoms":[')
        _write_rows(fh, atom, columns, ",")
        fh.write("]}\n")


def write_trace_csv(path, m: DiscreteMatrixMeasure) -> None:
    """Write trace_measure(m) as CSV: lambda, weight_re, weight_im (17 significant digits).

    Rows are formatted a bounded chunk at a time. Tracing an n=1 measure, such
    as one trace_measure returned, keeps its weights.
    """
    traces = trace_measure(m).weights.reshape(len(m), 1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("lambda,weight_re,weight_im\n")
        _write_rows(fh, "%.17g,%.17g,%.17g\n", (m.locations.reshape(len(m), 1), traces.real, traces.imag))
