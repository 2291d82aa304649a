"""Dense complex matrix substrate shared by the rest of the package.

Matrices are plain numpy arrays of complex128; there is no wrapper class.
Everything here validates its input, so the higher layers can assume square,
finite matrices throughout.
"""

import json
import math

import numpy as np
import scipy.linalg

__all__ = [
    "ResourceLimitError",
    "ENUMERATION_LIMIT",
    "LATTICE_LIMIT",
    "guarded_count",
    "as_matrix",
    "adjoint",
    "hermitian_defect",
    "require_hermitian",
    "operator_norm",
    "entry_abs_sum",
    "matrix_exp",
    "is_psd",
    "batched_operator_norms",
    "tuple_factor_products",
    "canonical_json",
    "matrix_to_json",
    "matrix_from_json",
    "read_matrix",
    "write_matrix",
]


class ResourceLimitError(RuntimeError):
    """An enumeration or composition-grid budget would be exceeded."""


ENUMERATION_LIMIT = 10**6  # index tuples that tuple_factor_products may multiply out
LATTICE_LIMIT = 5_000_000  # composition-grid points (N+1)**(l-1) that build_measure_dp may evaluate


def guarded_count(what: str, base: int, exponent: int, limit: int) -> int:
    """base**exponent; ResourceLimitError, naming it as base**exponent, when over limit."""
    # log space first: a refused count may be too large to form, let alone format
    too_big = base > 1 and exponent * math.log(base) > math.log(limit) + 1e-9
    if too_big or base**exponent > limit:
        raise ResourceLimitError(f"{what}: {base}**{exponent} exceeds the limit of {limit}")
    return base**exponent


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries, or raise ValueError."""
    try:
        m = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: not interpretable as a complex matrix") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{name}: expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise ValueError(f"{name}: entries must be finite")
    return m


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def operator_norm(s) -> float:
    """Largest singular value; the same value as np.linalg.norm(s, 2), without its dispatch."""
    return float(np.linalg.svd(as_matrix(s), compute_uv=False)[0])


def entry_abs_sum(s) -> float:
    """Sum of the absolute values of all entries; dominates the operator norm."""
    return float(np.abs(as_matrix(s)).sum())


def hermitian_defect(s) -> float:
    """Operator norm of s - s*."""
    m = as_matrix(s)
    return float(np.linalg.svd(m - m.conj().T, compute_uv=False)[0])


def require_hermitian(s, tol: float = 1e-9, name: str = "matrix") -> np.ndarray:
    """Check that s is Hermitian within tol*||s|| and return (s + s*)/2.

    The symmetrized copy is what downstream eigen-based code consumes, so
    rounding-level asymmetry in the input never reaches LAPACK.
    """
    m = as_matrix(s, name)
    if hermitian_defect(m) > tol * operator_norm(m):
        raise ValueError(f"{name}: not Hermitian within tolerance {tol:g}")
    return (m + m.conj().T) / 2.0


def matrix_exp(x) -> np.ndarray:
    """Matrix exponential e^x (scaling and squaring)."""
    return scipy.linalg.expm(as_matrix(x))


def is_psd(s, tol: float = 1e-9) -> bool:
    """True iff s is Hermitian (within tol) with min eigenvalue >= -tol*max(1, ||s||)."""
    h = require_hermitian(s, tol, "s")
    evs = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.abs(evs).max())) if evs.size else 1.0
    return bool(evs.min() >= -tol * scale)


def batched_operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (K, n, n) stack."""
    w = np.asarray(stack, dtype=np.complex128)
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError(f"expected a (K, n, n) stack, got shape {w.shape}")
    if w.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(w, compute_uv=False)[:, 0]


def tuple_factor_products(factors, count: int):
    """All products factors[k1] @ ... @ factors[k_count] over index tuples.

    Tuples (k1, ..., k_count) run over {0..l-1}^count in lexicographic order.
    Returns (idx, prods) where idx is (K, count) int32 and prods is (K, n, n),
    K = l**count. Raises ResourceLimitError, before allocating, when K exceeds
    ENUMERATION_LIMIT.
    """
    f = np.asarray(factors, dtype=np.complex128)
    if f.ndim != 3 or f.shape[1] != f.shape[2] or f.shape[0] < 1:
        raise ValueError(f"factors: expected a (l, n, n) stack, got shape {f.shape}")
    if count < 1:
        raise ValueError("count must be a positive integer")
    l = f.shape[0]
    total = guarded_count("index tuples", l, count, ENUMERATION_LIMIT)
    idx = np.stack(
        np.unravel_index(np.arange(total), (l,) * count), axis=1
    ).astype(np.int32)
    prods = f[idx[:, 0]]
    for p in range(1, count):
        prods = np.matmul(prods, f[idx[:, p]])
    return idx, prods


# ---------------------------------------------------------------------------
# JSON with a pinned numeric format
# ---------------------------------------------------------------------------

def canonical_json(value) -> str:
    """Serialize to JSON with floats at 17 significant digits (lossless round trip).

    Dict keys keep insertion order; runs with the same inputs produce
    byte-identical text.
    """
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def _emit(v, out: list[str]) -> None:
    if v is None:
        out.append("null")
    elif isinstance(v, (bool, np.bool_)):
        out.append("true" if v else "false")
    elif isinstance(v, (int, np.integer)):
        out.append(str(int(v)))
    elif isinstance(v, (float, np.floating)):
        x = float(v)
        if not math.isfinite(x):
            raise ValueError("non-finite number in JSON payload")
        out.append(format(x, ".17g"))
    elif isinstance(v, str):
        out.append(json.dumps(v))
    elif isinstance(v, np.ndarray):
        _emit(v.tolist(), out)
    elif isinstance(v, (list, tuple)):
        out.append("[")
        for i, item in enumerate(v):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(v, dict):
        out.append("{")
        for i, (k, item) in enumerate(v.items()):
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _emit(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(v).__name__} to JSON")


def matrix_to_json(m) -> dict:
    """Schema: {"n": int, "re": [[...]], "im": [[...]]}; "im" dropped when zero."""
    a = as_matrix(m)
    obj = {"n": int(a.shape[0]), "re": a.real}
    if np.any(a.imag):
        obj["im"] = a.imag
    return obj


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix schema; "im" is optional and defaults to zero."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON: expected an object")
    if "n" not in obj or "re" not in obj:
        raise ValueError('matrix JSON: required keys "n" and "re"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError('matrix JSON: "n" must be a positive integer')
    try:
        re = np.asarray(obj["re"], dtype=float)
        im_raw = obj.get("im")
        im = np.zeros((n, n)) if im_raw is None else np.asarray(im_raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("matrix JSON: entries must be real numbers") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix JSON: entry arrays must have shape ({n}, {n})")
    m = np.empty((n, n), dtype=np.complex128)
    # part by part, not re + 1j*im, which loses the sign of a zero part
    m.real, m.imag = re, im
    return as_matrix(m, "matrix JSON")


def _load_json(path):
    """json.load, but the "-0" that canonical_json writes for -0.0 reads as -0.0, not int 0."""
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh, parse_int=lambda s: -0.0 if s == "-0" else int(s))


def read_matrix(path) -> np.ndarray:
    return matrix_from_json(_load_json(path))


def write_matrix(path, m) -> None:
    text = canonical_json(matrix_to_json(m)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
