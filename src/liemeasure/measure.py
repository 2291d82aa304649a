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

from .linalg import _load_json, batched_operator_norms

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


@dataclass(frozen=True)
class DiscreteMatrixMeasure:
    """Atoms of a matrix-valued measure, sorted by location.

    locations: (K,) float array, strictly increasing
    weights:   (K, n, n) complex array, weights[k] sits at locations[k]
    N:         step count of the construction that produced the measure, if any
    source:    free-form provenance label ("dp", "bruteforce", ...)
    tuple_norm_sum: when built by exhaustive enumeration, the accumulated sum
        of the operator norms of the per-tuple products (an upper bound for
        the total variation)

    locations and weights are stored read-only, as views rather than copies.
    """

    locations: np.ndarray
    weights: np.ndarray
    N: int | None = None
    source: str | None = None
    tuple_norm_sum: float | None = None

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
        if not (np.all(np.isfinite(w.real)) and np.all(np.isfinite(w.imag))):
            raise ValueError("weights must be finite")
        if np.any(np.diff(locs) <= 0):
            raise ValueError("locations must be strictly increasing")
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
    laplace_transform(m, 0) bit for bit. A BLAS GEMM would be faster on long
    grids but sums in another order, which moves the moments' last digits.
    """
    flat = coeff.reshape(math.prod(coeff.shape[:-1]), len(m))
    return np.einsum("tk,kij->tij", flat, m.weights).reshape(coeff.shape[:-1] + (m.dim, m.dim))


def laplace_transform(m: DiscreteMatrixMeasure, t) -> np.ndarray:
    """sum_k e^(t*lambda_k) * W_k at a scalar t or at every point of an array t.

    Returns shape t.shape + (n, n): (n, n) for a scalar, (T, n, n) for a grid
    of T points. Raises OverflowError, naming the worst Re(t)*lambda on the
    grid, when some e^(t*lambda_k) would leave the float range.
    """
    t = np.asarray(t, dtype=np.complex128)
    if m.locations.size and t.size:
        # Re(t)*lambda is largest at an end of both ranges; locations ascend
        ends = np.multiply.outer([t.real.min(), t.real.max()], m.locations[[0, -1]])
        worst = float(ends.max())
        if worst > _EXP_ARG_LIMIT:
            raise OverflowError(
                f"Re(t)*lambda reaches {worst:.6g}, beyond the e^700 float range"
            )
    return _contract(np.exp(np.multiply.outer(t, m.locations)), m)


def moment(m: DiscreteMatrixMeasure, k: int) -> np.ndarray:
    """sum_j lambda_j^k * W_j; k = 0 gives the total mass, equal to laplace_transform(m, 0)."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError("moment order must be a non-negative integer")
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
    """The n=1 measure with weights tr(W_k), shape (K, 1, 1), at the same locations."""
    traces = np.trace(m.weights, axis1=1, axis2=2).reshape(-1, 1, 1)
    return DiscreteMatrixMeasure(m.locations.copy(), traces, N=m.N, source=m.source)


def is_nonnegative_measure(m: DiscreteMatrixMeasure, tol: float = 1e-9) -> bool:
    """True iff every atom weight is Hermitian positive semidefinite within tol."""
    for w in m.weights:
        scale = max(1.0, float(np.abs(w).max()) * m.dim)
        if float(np.linalg.norm(w - w.conj().T, 2)) > tol * scale:
            return False
        h = (w + w.conj().T) / 2.0
        if float(np.linalg.eigvalsh(h).min()) < -tol * scale:
            return False
    return True


def hermitian_deviation(m: DiscreteMatrixMeasure) -> float:
    """max over atoms of ||W_k - W_k*||; zero when every weight is Hermitian."""
    if not len(m):
        return 0.0
    defect = m.weights - np.conj(np.swapaxes(m.weights, 1, 2))
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
    """Schema: {"n": int, "N": int|null, "atoms": [{"lambda": float, "weight": {"re", "im"}}]}."""
    atoms = [
        {"lambda": float(l), "weight": {"re": w.real, "im": w.imag}}
        for l, w in zip(m.locations, m.weights)
    ]
    return {"n": m.dim, "N": None if m.N is None else int(m.N), "atoms": atoms}


def measure_from_json(obj) -> DiscreteMatrixMeasure:
    if not isinstance(obj, dict):
        raise ValueError("measure JSON: expected an object")
    for key in ("n", "atoms"):
        if key not in obj:
            raise ValueError(f'measure JSON: required key "{key}"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError('measure JSON: "n" must be a positive integer')
    nsteps = obj.get("N")
    if nsteps is not None and (not isinstance(nsteps, int) or isinstance(nsteps, bool) or nsteps < 1):
        raise ValueError('measure JSON: "N" must be a positive integer or null')
    raw = obj["atoms"]
    if not isinstance(raw, list):
        raise ValueError('measure JSON: "atoms" must be a list')
    arrays = _atom_arrays(raw, n)
    if arrays is None:
        arrays = _atom_arrays_one_by_one(raw, n)
    return DiscreteMatrixMeasure(*arrays, N=nsteps, source="json")


def _atom_arrays(raw: list, n: int):
    """(locations, weights) of well-formed atoms, converted one whole array at a time.

    Returns None when any atom is malformed (or the list is empty), so that
    the atom-by-atom reader can name the first bad atom with its message.
    """
    lams, res, ims = [], [], []
    for atom in raw:
        if not isinstance(atom, dict) or "lambda" not in atom or "weight" not in atom:
            return None
        w = atom["weight"]
        if not isinstance(w, dict) or "re" not in w:
            return None
        lams.append(atom["lambda"])
        res.append(w["re"])
        ims.append(w.get("im"))
    if any(im is None for im in ims):
        zero = [[0.0] * n] * n
        ims = [zero if im is None else im for im in ims]
    try:
        # float() per location keeps the atom-by-atom reader's rules (None fails)
        locs = np.fromiter(map(float, lams), dtype=float, count=len(lams))
        re = np.array(res, dtype=float)
        im = np.array(ims, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if re.shape != (len(raw), n, n) or im.shape != re.shape:
        return None
    weights = np.empty(re.shape, dtype=np.complex128)
    # part by part, not re + 1j*im, which loses the sign of a zero part
    weights.real, weights.imag = re, im
    return locs, weights


def _atom_arrays_one_by_one(raw: list, n: int):
    """(locations, weights) read atom by atom; raises on the first malformed atom."""
    locs = np.zeros(len(raw))
    weights = np.zeros((len(raw), n, n), dtype=np.complex128)
    for k, atom in enumerate(raw):
        if not isinstance(atom, dict) or "lambda" not in atom or "weight" not in atom:
            raise ValueError(f'measure JSON: atom {k} needs "lambda" and "weight"')
        try:
            locs[k] = float(atom["lambda"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"measure JSON: atom {k} has a bad location") from exc
        w = atom["weight"]
        if not isinstance(w, dict) or "re" not in w:
            raise ValueError(f'measure JSON: atom {k} weight needs "re"')
        try:
            re = np.asarray(w["re"], dtype=float)
            im_raw = w.get("im")
            im = np.zeros((n, n)) if im_raw is None else np.asarray(im_raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"measure JSON: atom {k} weight entries must be numbers") from exc
        if re.shape != (n, n) or im.shape != (n, n):
            raise ValueError(f"measure JSON: atom {k} weight must be {n}x{n}")
        weights[k].real, weights[k].imag = re, im
    return locs, weights


def read_measure(path) -> DiscreteMatrixMeasure:
    return measure_from_json(_load_json(path))


def _fill_rows(row: str, data: np.ndarray, sep: str = "") -> str:
    """`row` (one %.17g per column of data) filled for every row of data in one % operation.

    '%.17g' % x and format(x, '.17g') are the same conversion, so the text
    matches canonical_json's number for number.
    """
    return sep.join([row] * len(data)) % tuple(data.ravel().tolist())


def write_measure(path, m: DiscreteMatrixMeasure) -> None:
    """Write canonical_json(measure_to_json(m)) + "\n", formatted a whole array at a time."""
    n, count = m.dim, len(m)
    data = np.empty((count, 1 + 2 * n * n))
    data[:, 0] = m.locations
    data[:, 1:1 + n * n] = m.weights.real.reshape(count, n * n)
    data[:, 1 + n * n:] = m.weights.imag.reshape(count, n * n)
    if not np.isfinite(data).all():
        raise ValueError("non-finite number in JSON payload")
    matrix = "[" + ",".join(["[" + ",".join(["%.17g"] * n) + "]"] * n) + "]"
    atom = '{"lambda":%.17g,"weight":{"re":' + matrix + ',"im":' + matrix + "}}"
    nsteps = "null" if m.N is None else str(int(m.N))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f'{{"n":{n},"N":{nsteps},"atoms":[{_fill_rows(atom, data, ",")}]}}\n')


def write_trace_csv(path, m: DiscreteMatrixMeasure) -> None:
    """Write trace_measure(m) as CSV: lambda, weight_re, weight_im (17 significant digits).

    Tracing an n=1 measure, such as one trace_measure returned, keeps its weights.
    """
    traces = trace_measure(m).weights[:, 0, 0]
    data = np.column_stack([m.locations, traces.real, traces.imag])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("lambda,weight_re,weight_im\n" + _fill_rows("%.17g,%.17g,%.17g\n", data))
