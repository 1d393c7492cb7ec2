"""Unit-column matrices and the pairwise orthogonalization update.

A state of the process is a square matrix with unit-length, linearly
independent columns over the real or complex field. The single update
replaces column i by its component orthogonal to column j, renormalized;
every other column is left untouched.
"""

from __future__ import annotations

import math

import numpy as np
from numpy._core._multiarray_umath import vdot as _vdot  # np.vdot without its dispatcher

from . import tolerances as tol
from .errors import ConstructionError, DegeneratePairError, UsageError

REAL = "real"
COMPLEX = "complex"

# An ordered pair (i, j): column i is replaced, column j is kept.
PairIndex = tuple[int, int]


def _field_of(arr: np.ndarray) -> str:
    return COMPLEX if np.iscomplexobj(arr) else REAL


def inner(x, y):
    """Inner product sum_k x_k * conj(y_k); conjugation on the second argument.

    Under this convention a_i - <a_i, a_j> a_j is exactly orthogonal
    to a_j. Returns a Python float for real inputs, complex otherwise.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise UsageError(f"inner: length mismatch {x.shape} vs {y.shape}")
    if _field_of(x) != _field_of(y):
        raise UsageError("inner: field mismatch (real vs complex)")
    value = _vdot(y, x)  # vdot conjugates its first argument
    return complex(value) if np.iscomplexobj(value) else float(value)


class ColumnMatrix:
    """Square matrix with unit-length, linearly independent columns.

    Values are immutable once constructed: the underlying array is marked
    read-only and every update returns a new instance. _sigma keeps the
    singular values of the rank check, _start the (inv, row_norms, d, on_inv)
    of metrics._start_distances from first use (read-only; both None when
    built by _wrap).
    """

    __slots__ = ("_array", "_sigma", "_start", "n", "field")

    def __init__(self, entries, *, normalize: bool = False):
        arr = np.array(entries, order="F")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConstructionError(f"entries must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 2:
            raise ConstructionError(f"dimension must be >= 2, got {n}")
        field = _field_of(arr)
        arr = arr.astype(np.complex128 if field == COMPLEX else np.float64, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ConstructionError("entries contain non-finite values")

        norms = np.linalg.norm(arr, axis=0)
        if np.any(norms == 0.0):
            j = int(np.argmin(norms))
            raise ConstructionError(f"column {j} is zero")
        if normalize:
            arr = arr / norms
        elif np.any(np.abs(norms - 1.0) > tol.UNIT_NORM_BUILD_REL):
            j = int(np.argmax(np.abs(norms - 1.0)))
            raise ConstructionError(
                f"column {j} has norm {float(norms[j])!r}, not unit "
                f"(pass normalize=True to rescale)"
            )

        sigma = np.linalg.svd(arr, compute_uv=False)
        floor = tol.RANK_FLOOR_COEFF * n
        if not sigma[-1] > floor:
            raise ConstructionError(
                f"columns are numerically dependent: smallest singular value "
                f"{float(sigma[-1])!r} is below the rank floor {floor!r}"
            )

        arr.setflags(write=False)
        sigma.setflags(write=False)
        self._array, self._sigma, self._start, self.n, self.field = arr, sigma, None, n, field

    @classmethod
    def _wrap(cls, arr: np.ndarray, field: str) -> "ColumnMatrix":
        """Wrap an array known to satisfy the invariants, skipping checks.

        Only for internal use on outputs of operations that preserve unit
        columns and independence by construction.
        """
        self = object.__new__(cls)
        arr.setflags(write=False)
        self._array, self._sigma, self._start = arr, None, None
        self.n, self.field = arr.shape[0], field
        return self

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the matrix, columns along axis 1."""
        return self._array

    def column(self, j: int) -> np.ndarray:
        return self._array[:, j]

    def __repr__(self):
        return f"ColumnMatrix(n={self.n}, field={self.field!r})"


def build_unit_column_matrix(entries, normalize: bool = False) -> ColumnMatrix:
    """Validate entries into a ColumnMatrix, optionally rescaling columns.

    Without normalize, every column norm must already be within
    1e-9 of 1. Zero columns and numerically dependent columns are
    rejected outright.
    """
    return ColumnMatrix(entries, normalize=normalize)


def _integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name: str, value, least: int) -> int:
    """value as an int; UsageError unless it is an integer >= least."""
    if not _integer(value) or value < least:
        raise UsageError(f"{name} must be >= {least} and an integer, got {value!r}")
    return int(value)


def validate_pair(n: int, pair: PairIndex) -> PairIndex:
    try:
        i, j = pair
    except (TypeError, ValueError):  # not iterable, or not two items
        raise UsageError(f"a pair must be two indices, got {pair!r}") from None
    if not (_integer(i) and _integer(j)):
        raise UsageError(f"pair indices must be integers, got {pair!r}")
    i, j = int(i), int(j)
    if i == j:
        raise UsageError(f"pair indices must be distinct, got ({i}, {j})")
    if not (0 <= i < n and 0 <= j < n):
        raise UsageError(f"pair ({i}, {j}) out of range for n = {n}")
    return (i, j)


def _orth_column(arr: np.ndarray, i: int, j: int):
    """Orthogonalize column i of arr against column j, in place, or raise
    DegeneratePairError with arr untouched.

    Returns (c, c2, nu) where the update written into arr[:, i] is
    a_i <- (a_i - (c + c2) * a_j) / nu and c = <a_i, a_j>. The second
    projection pass (coefficient c2, order eps) removes the residual the
    single pass leaves when the pair is close to the degeneracy guard;
    callers that co-update a right-hand side must fold both passes in.
    """
    a_i = arr[:, i]
    a_j = arr[:, j]
    c = _vdot(a_j, a_i)  # <a_i, a_j> under this package's convention
    if abs(c) >= 1.0 - tol.DEGENERATE_PAIR_GUARD:
        raise DegeneratePairError((i, j), abs(c))
    w = a_i - c * a_j
    c2 = _vdot(a_j, w)
    w -= c2 * a_j
    nu = _norm(w)
    if not 0.0 < nu < math.inf:  # zero or not finite
        raise DegeneratePairError((i, j), abs(c))
    np.divide(w, nu, out=a_i)
    return c, c2, nu


def orth_step(A: ColumnMatrix, pair: PairIndex) -> ColumnMatrix:
    """Replace column i by its unit component orthogonal to column j.

    Columns other than i are carried over bit-identically. Raises
    DegeneratePairError when |<a_i, a_j>| >= 1 - 1e-12.
    """
    i, j = validate_pair(A.n, pair)
    out = np.array(A._array, order="F")
    _orth_column(out, i, j)
    return ColumnMatrix._wrap(out, A.field)


def gram_offdiag_fro(A: ColumnMatrix) -> float:
    """Frobenius norm of A*A - I.

    With unit columns the diagonal of A*A is 1, so this equals
    sqrt(sum over i != j of |<a_i, a_j>|^2): the total pairwise
    non-orthogonality.
    """
    return float(_gram_offdiag_fro(A._array.T[None])[0])


def _gram_offdiag_fro(cols: np.ndarray) -> np.ndarray:
    """gram_offdiag_fro of each cols[k].T, from one stacked Gram."""
    n = cols.shape[-1]
    g = (cols.conj() @ cols.mT).reshape(len(cols), n * n)
    g[:, :: n + 1] -= 1.0  # the diagonal
    return np.sqrt(_sq_norms(g))


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a vector, bit for bit: the sqrt of a dot (of .real
    and .imag if complex), without norm's Python wrapper."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag) if x.dtype.kind == "c" else x.dot(x))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(row) ** 2 of each row of x, bit for bit."""
    if x.dtype.kind == "c":
        return np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)
    return np.vecdot(x, x)
