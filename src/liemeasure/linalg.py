"""Dense complex matrix substrate shared by the rest of the package.

Matrices are plain numpy arrays of complex128; there is no wrapper class.
Everything here validates its input, so the higher layers can assume square,
finite matrices throughout.
"""

import gc
import json
import math
import numbers

import numpy as np
import scipy.linalg

__all__ = [
    "ResourceLimitError",
    "BYTE_BUDGET",
    "LATTICE_LIMIT",
    "HERMITIAN_TOL",
    "guarded_count",
    "as_int",
    "as_matrix",
    "as_matrix_pair",
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
    """A build or a t-grid evaluation would exceed the byte budget, or a t-grid its point or coefficient cap."""


# peak array bytes a build or a t-grid evaluation may predict for itself: index tuples,
# compositions, the torus, and e^(tA+B), L_N(t) and the transform on a grid
BYTE_BUDGET = 2 * 1024**3
# t-grid points, and T*K transform coefficients: each point costs an e^(tA+B) or a
# transform evaluation, so this cap bounds work as well as bytes
LATTICE_LIMIT = 5_000_000
HERMITIAN_TOL = 1e-9  # the tolerance of every Hermitian and PSD check
# the builders, the verify harness, hermitian_deviation and the truth's cross-check
# work on about this many bytes at a time
_SLAB_BYTES = 1 << 18


def guarded_count(what: str, base: int, exponent: int, limit: int | None = None, *, peak_bytes=None) -> int:
    """base**exponent, or ResourceLimitError naming it as base**exponent, before any allocation.

    With limit, the count itself may not exceed limit. With peak_bytes, a function
    of the count that predicts the caller's peak array bytes, that prediction may
    not exceed BYTE_BUDGET, and a refusal names the prediction and the budget.
    """
    label = f"{what}: {base if exponent == 1 else f'{base}**{exponent}'}"
    # log space first: a refused count may be too large to form, let alone format
    log_count = exponent * math.log(base) if base > 1 else 0.0
    if limit is not None and (log_count > math.log(limit) + 1e-9 or base**exponent > limit):
        raise ResourceLimitError(f"{label} exceeds the limit of {limit}")
    if peak_bytes is None:
        return base**exponent
    return _guarded_bytes(label, log_count, lambda: base**exponent, peak_bytes)


def _guarded_binomial(what: str, n: int, k: int, *, peak_bytes) -> int:
    """C(n, k) for 0 <= k <= n, guarded as guarded_count guards a power; a refusal names it C(n, k)."""
    j = min(k, n - k)
    # C(n, j) >= (n/j)**j >= 2**j: a count this bound lets through has j <= 63, so it is cheap to form
    log_bound = j * (math.log(n) - math.log(j)) if j else 0.0
    return _guarded_bytes(f"{what}: C({n}, {k})", log_bound, lambda: math.comb(n, j), peak_bytes)


def _guarded_bytes(label: str, log_count: float, count, peak_bytes) -> int:
    """count(), unless peak_bytes of it passes BYTE_BUDGET; log_count is the count's log or a lower bound.

    No array holds more than 2**63 items: past that the count is never formed, nor formatted.
    """
    if log_count > 63 * math.log(2):
        raise ResourceLimitError(f"{label} would need more than the budget of {BYTE_BUDGET} bytes")
    value = count()
    need = peak_bytes(value)
    if need > BYTE_BUDGET:
        raise ResourceLimitError(f"{label} would need {need} bytes, over the budget of {BYTE_BUDGET} bytes")
    return value


def as_int(value, name: str, minimum: int = 1, context: str = "") -> int:
    """value, an int or numpy integer >= minimum, as a Python int; else ValueError naming it.

    A bool, a float (4.0 too) and a str are refused; context follows the minimum in its message.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}{context}, got {value}")
    return int(value)


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries, or raise ValueError."""
    return _as_square(value, name, 2)


def _as_square(value, name: str, ndim: int) -> np.ndarray:
    """as_matrix for a matrix (ndim 2) or for a (k, n, n) stack of k >= 1 matrices (ndim 3)."""
    try:
        m = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: not interpretable as a complex matrix") from exc
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or min(m.shape) < 1:
        shape = "square matrix" if ndim == 2 else "(k, n, n) stack of square matrices"
        raise ValueError(f"{name}: expected a {shape}, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise ValueError(f"{name}: entries must be finite")
    return m


def as_matrix_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """as_matrix of a and of b, or ValueError unless both have one dimension."""
    am, bm = as_matrix(a, "a"), as_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError("a and b must have the same dimension")
    return am, bm


def operator_norm(s) -> float:
    """Largest singular value; the same value as np.linalg.norm(s, 2), without its dispatch."""
    return float(batched_operator_norms(as_matrix(s)[np.newaxis])[0])


def entry_abs_sum(s) -> float:
    """Sum of the absolute values of all entries; dominates the operator norm."""
    return float(np.abs(as_matrix(s)).sum())


def hermitian_defect(s) -> float:
    """Operator norm of s - s*."""
    return float(_hermitian_defects(as_matrix(s)[np.newaxis])[0])


def require_hermitian(s, name: str = "matrix") -> np.ndarray:
    """Check that s is Hermitian within HERMITIAN_TOL*||s|| and return (s + s*)/2.

    The symmetrized copy is what downstream eigen-based code consumes, so
    rounding-level asymmetry in the input never reaches LAPACK.
    """
    return _hermitian_stack(as_matrix(s, name)[np.newaxis], name)[0]


def _hermitian_stack(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """require_hermitian of every matrix of a (k, n, n) stack from as_matrix, in stacked SVDs."""
    if np.any(_hermitian_defects(m) > HERMITIAN_TOL * batched_operator_norms(m)):
        raise ValueError(f"{name}: not Hermitian within tolerance {HERMITIAN_TOL:g}")
    return _hermitian_parts(m)


def _hermitian_defects(m: np.ndarray) -> np.ndarray:
    """||m - m*|| of each matrix of a (k, n, n) stack; m - m* is formed in the one array that holds m*.

    That array is a C-order copy of the transposed view, conjugated in place:
    np.conj of the view would lay its output out transposed, and a subtraction
    into that is buffered through a second array.
    """
    defect = np.swapaxes(m, 1, 2).copy()
    np.conj(defect, out=defect)
    np.subtract(m, defect, out=defect)
    return batched_operator_norms(defect)


def _hermitian_parts(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2 of a matrix or of each matrix of a (..., n, n) stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _psd_stack(m: np.ndarray) -> np.ndarray:
    """is_psd of every matrix of a (k, n, n) stack from as_matrix, as a (k,) bool array: the one PSD rule."""
    tol = HERMITIAN_TOL * np.maximum(1.0, batched_operator_norms(m))
    lowest = np.linalg.eigvalsh(_hermitian_parts(m))[:, 0]
    return (_hermitian_defects(m) <= tol) & (lowest >= -tol)


def matrix_exp(x) -> np.ndarray:
    """Matrix exponential e^x (scaling and squaring) of a matrix, or of each matrix of a (k, n, n) stack."""
    return scipy.linalg.expm(_as_square(x, "matrix", 3 if np.ndim(x) == 3 else 2))


def is_psd(s) -> bool:
    """True iff s is Hermitian and the least eigenvalue of (s + s*)/2 is >= 0, each within HERMITIAN_TOL*max(1, ||s||).

    A matrix that is not Hermitian within that tolerance gives False, not an error.
    """
    return bool(_psd_stack(as_matrix(s, "s")[np.newaxis])[0])


def batched_operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (K, n, n) stack."""
    w = np.asarray(stack, dtype=np.complex128)
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError(f"expected a (K, n, n) stack, got shape {w.shape}")
    if w.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(w, compute_uv=False)[:, 0]


def _tuple_peak_bytes(l: int, count: int, n: int, k: int = 1) -> int:
    """Predicted peak bytes of tuple_factor_products: the l**count tuples of count (n, n) factors, k times.

    Also the brute-force builder's peak: it holds the products and int64
    numbers per tuple (composition codes, their group, their target).
    """
    total = l**count
    # three int64 numbers per tuple, and the last two levels of (k, l**p, n, n) prefix products
    return 24 * total + 16 * k * n * n * (total + total // l)


def tuple_factor_products(factors, count: int) -> np.ndarray:
    """All products factors[k1] @ ... @ factors[k_count] over index tuples.

    Returns the (K, n, n) products, K = l**count, of the tuples (k1, ..., k_count)
    over {0..l-1}^count in lexicographic order. They are built by prefix, one
    level per factor: tuples that share a prefix share its product, so a level
    costs one product per tuple of that length, and each product is still
    formed left to right, bit for bit the one a left-to-right reduce gives. A
    (k, l, n, n) stack of k factor sets gives (k, K, n, n) products, each set's
    bit for bit its own call's. Raises ResourceLimitError, before allocating,
    when the predicted peak bytes exceed BYTE_BUDGET.
    """
    f = np.asarray(factors, dtype=np.complex128)
    stacked = f.ndim == 4
    if f.ndim not in (3, 4) or f.shape[-1] != f.shape[-2] or min(f.shape[:-2]) < 1:
        raise ValueError(f"factors: expected a (l, n, n) or (k, l, n, n) stack, got shape {f.shape}")
    count = as_int(count, "count")
    if not stacked:
        f = f[np.newaxis]
    k, l, n = f.shape[:3]
    guarded_count("index tuples", l, count, peak_bytes=lambda _: _tuple_peak_bytes(l, count, n, k))
    # level p holds the l**p products of the tuples' first p factors; a prefix's
    # l children follow it in lexicographic order
    prods = f.copy()
    for _ in range(1, count):
        prods = np.matmul(prods[:, :, np.newaxis], f[:, np.newaxis]).reshape(k, -1, n, n)
    return prods if stacked else prods[0]


def _tuple_norm_sums(prods: np.ndarray) -> np.ndarray:
    """Sum of the operator norms of each set of a (k, K, n, n) stack of products, each its own set's bit for bit.

    A set's norms form one contiguous row, which sums in the order a lone set's norms do.
    """
    k, total, n = prods.shape[:3]
    return np.ascontiguousarray(batched_operator_norms(prods.reshape(k * total, n, n))).reshape(k, total).sum(axis=1)


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


def _is_real(x) -> bool:
    """True for a real number, Python's or numpy's; a bool or a string is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _real_array(entries) -> np.ndarray:
    """Nested lists (or an array) of real numbers as a float array; TypeError on any other entry.

    np.asarray(entries, dtype=float) alone would read true as 1.0 and "2" as 2.0.
    Ragged lists leave a list as an entry, which fails the test too. An array's
    dtype says it all: integers and floats pass, bools and the rest do not.
    """
    if isinstance(entries, np.ndarray) and entries.dtype.kind in "fiu":
        return entries.astype(float)
    cells = np.asarray(entries, dtype=object)
    if not all(map(_is_real, cells.flat)):
        raise TypeError("entries must be real numbers")
    return cells.astype(float)


def _re_im(obj: dict, n: int, bad_entries: str, bad_shape: str) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) float parts of a {"re", "im"} object; an "im" of null or absent reads as zeros.

    ValueError(bad_entries) on an entry that is not a real number or lies
    beyond the float range, ValueError(bad_shape) on a part not n x n.
    """
    try:
        re = _real_array(obj["re"])
        im = np.zeros_like(re) if obj.get("im") is None else _real_array(obj["im"])
    except (TypeError, ValueError, OverflowError) as exc:  # an integer beyond the float range overflows
        raise ValueError(bad_entries) from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(bad_shape)
    return re, im


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix schema; "im" is optional and defaults to zero."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON: expected an object")
    if "n" not in obj or "re" not in obj:
        raise ValueError('matrix JSON: required keys "n" and "re"')
    n = as_int(obj["n"], 'matrix JSON: "n"')
    re, im = _re_im(obj, n, "matrix JSON: entries must be real numbers",
                    f"matrix JSON: entry arrays must have shape ({n}, {n})")
    m = np.empty((n, n), dtype=np.complex128)
    # part by part, not re + 1j*im, which loses the sign of a zero part
    m.real, m.imag = re, im
    return as_matrix(m, "matrix JSON")


def _load_json(path, object_hook=None):
    """json.load, but the "-0" that canonical_json writes for -0.0 reads as -0.0, not int 0.

    object_hook, if given, is json's: it gets each object as the parser closes it.
    Nesting too deep for the parser raises ValueError naming the file.
    """
    try:
        with _GcPaused(), open(path, "r", encoding="ascii") as fh:
            return json.load(fh, parse_int=lambda s: -0.0 if s == "-0" else int(s), object_hook=object_hook)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


class _GcPaused:
    """Pause the garbage collector while a tree of containers without reference cycles is built.

    Its passes would scan every new list and dict and free nothing. The
    collector's state on entry is restored as the last step of the exit: an
    allocation after it, such as the StopIteration of a generator-based context
    manager, would start a collection before the paused function returns.
    """

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.was_enabled:
            gc.enable()


def read_matrix(path) -> np.ndarray:
    return matrix_from_json(_load_json(path))


def write_matrix(path, m) -> None:
    text = canonical_json(matrix_to_json(m)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
