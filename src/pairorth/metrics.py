"""Diagnostics for a unit-column matrix state.

The central quantities are the leave-one-out distances d_j (distance from
column j to the span of the other columns), the potential
phi = -sum_j log d_j, the singular values, and the condition number
kappa = sigma_1 / sigma_n. The reciprocal of d_j equals the Euclidean norm
of row j of the inverse, which gives the fast computation path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw

from . import tolerances as tol
from .errors import SingularityError, UsageError
from .matrix import ColumnMatrix, _sq_norms, gram_offdiag_fro

PROJECTION = "projection"
INVERSE_ROWS = "inverse-rows"
AUTO = "auto"


@dataclass(frozen=True)
class MetricsSnapshot:
    """All diagnostics for one matrix state.

    d: leave-one-out distances, each in (0, 1]
    phi: -sum_j log d_j, zero iff the matrix is orthonormal
    sigma: singular values, descending
    kappa: sigma[0] / sigma[-1]
    gram_offdiag: Frobenius norm of A*A - I
    """

    d: np.ndarray
    phi: float
    sigma: np.ndarray
    kappa: float
    gram_offdiag: float


@functools.lru_cache(maxsize=4096)
def _pair_order(n: int, i: int, j: int) -> np.ndarray:
    """The column order of _pair_distances: others ascending, i, j. Cached:
    the last 4,096 pairs used (every pair for n <= 64), about 4 MB at n = 128."""
    return np.array([k for k in range(n) if k != i and k != j] + [i, j])


def _pair_distances(arr: np.ndarray, i: int, j: int) -> tuple[float, float]:
    """(d_i, d_j) from one R-only Householder QR with i then j moved behind
    the other columns. The trailing 2x2 block [[r11, r12], [0, r22]] of R
    holds a_i and a_j off the span of the others: d_j = |r22|, and d_i, the
    distance of (r11, 0) to the line through (r12, r22), is
    |r11| |r22| / hypot(r12, r22). The QR is np.linalg.qr(mode="raw")'s
    gufunc without the wrapper's copies, casts and errstate: arr must be
    float64 or complex128, and a failed QR still raises LinAlgError."""
    # it overwrites the fresh gather with R (mode "raw" returns R^T; Q is
    # never formed) and returns tau, all NaN if geqrf failed and left r as is
    order = _pair_order(arr.shape[1], i, j)
    r = arr[:, order]
    tau = _qr_r_raw(r, signature="D->D" if r.dtype.kind == "c" else "d->d")
    r11, r12, r22 = abs(r[-2, -2]), abs(r[-2, -1]), abs(r[-1, -1])
    d_i = r11 * (r22 / math.hypot(r12, r22)) if r22 else 0.0
    for k, d_k in ((j, r22), (i, d_i)):
        if not 0.0 < d_k < math.inf:  # zero or not finite
            # a zero pivot ahead of a_j's names its column: what follows measures nothing
            lead = r.diagonal()[:-1]
            k = k if lead.all() else int(order[np.argmin(lead != 0.0)])
            raise SingularityError(f"column {k} is numerically in the span of the others", column=k)
    if tau[0] != tau[0]:  # NaN: geqrf failed
        raise np.linalg.LinAlgError("QR of the pair's gather failed")
    # d <= 1 holds exactly in real arithmetic; trim roundoff overshoot
    return min(d_i, 1.0), min(r22, 1.0)


def _distances_projection(arr: np.ndarray) -> np.ndarray:
    """d_j for every column j: both distances of _pair_distances(arr, k, k + 1)
    for k = 0, 2, 4, ..., and for odd n the d_j of (n - 2, n - 1)."""
    n = arr.shape[1]
    d = [d_k for k in range(0, n - 1, 2) for d_k in _pair_distances(arr, k, k + 1)]
    return np.array(d + [_pair_distances(arr, n - 2, n - 1)[1]] if n % 2 else d)


def _phi_from_distances(d: np.ndarray) -> float:
    # Sum of logs (np.add.reduce: the pairwise sum of .sum() without its
    # wrapper), never log of the product: phi far above 700 must not underflow
    # through it. + 0.0 turns the -0.0 of an orthonormal state into 0.0.
    return float(-np.add.reduce(np.log(d)) + 0.0)


def _inverse_rows(arrs: np.ndarray):
    """(inverses, row norms, d_j the reciprocal row norms) of each matrix of
    a stack, each from its own bits; a singular matrix gets a NaN inverse."""
    try:
        inv = np.linalg.inv(arrs)
    except np.linalg.LinAlgError:
        if len(arrs) > 1:  # find the singular ones one by one
            return tuple(map(np.concatenate, zip(*(_inverse_rows(a[None]) for a in arrs))))
        inv = np.full_like(arrs, np.nan)
    row_norms = np.linalg.norm(inv, axis=2)
    # d_j <= 1 holds exactly in real arithmetic; trim roundoff overshoot
    return inv, row_norms, np.minimum(1.0 / row_norms, 1.0)


def _distances_full(arrs: np.ndarray):
    """The auto rule for each matrix of a stack, recomputed from scratch
    with each matrix's bits alone: (inverses, row norms, d, on_inv). d comes
    from the inverse rows where on_inv (finite, nonzero rows and a kappa
    estimate at most DISTANCE_FALLBACK_KAPPA), elsewhere from projection."""
    inv, row_norms, d = _inverse_rows(arrs)
    # sqrt(n) * ||A^-1||_F bounds kappa from above and is free here; a NaN
    # or infinite row makes it NaN or infinite, so not below
    kappa_est = math.sqrt(arrs.shape[1]) * np.sqrt(_sq_norms(inv.reshape(len(inv), -1)))
    on_inv = row_norms.all(axis=1) & (kappa_est <= tol.DISTANCE_FALLBACK_KAPPA)
    for k in np.flatnonzero(~on_inv):
        d[k] = _distances_projection(arrs[k])
    return inv, row_norms, d, on_inv


def _start_distances(A: ColumnMatrix):
    """_distances_full(A.array[None]), kept read-only in A._start from first
    use, so snapshot, potential_phi and every chain stack from A share one;
    recomputed each call for a matrix built by _wrap (_sigma None)."""
    if A._sigma is None:
        return _distances_full(A.array[None])
    if A._start is None:
        A._start = _distances_full(A.array[None])
        for values in A._start:
            values.setflags(write=False)
    return A._start


def leave_one_out_distances(A: ColumnMatrix, method: str = AUTO) -> np.ndarray:
    """Distance from each column to the span of the other columns.

    method "inverse-rows" uses one factorization (d_j is the reciprocal
    norm of row j of the inverse); "projection" reads two distances off
    each of ceil(n / 2) R-only Householder QRs, pair by pair; "auto"
    (default) uses inverse rows and falls back to projection when the
    estimated condition number exceeds 1e8.
    """
    if method == INVERSE_ROWS:
        _, row_norms, d = _inverse_rows(A.array[None])
        ok = (0.0 < row_norms[0]) & (row_norms[0] < math.inf)  # NaN fails both
        if not ok.all():
            j = int(np.argmin(ok)) if ok.any() else None  # None: inv itself failed
            what = "no inverse" if j is None else f"inverse row {j} is zero or not finite"
            raise SingularityError(f"matrix is numerically singular: {what}", column=j)
        return d[0]
    if method == PROJECTION:
        return _distances_projection(A.array)
    if method == AUTO:
        return _start_distances(A)[2][0].copy()
    raise UsageError(f"unknown distance method {method!r}")


def potential_phi(A: ColumnMatrix, method: str = AUTO) -> float:
    """The potential -sum_j log d_j(A); zero iff A is orthonormal."""
    return _phi_from_distances(leave_one_out_distances(A, method))


def condition_number(A: ColumnMatrix):
    """Return (kappa, sigma) with singular values descending: those a
    validated matrix kept from its rank check (the bits of a new SVD), or
    one SVD for a matrix built by _wrap."""
    sigma = np.linalg.svd(A.array, compute_uv=False) if A._sigma is None else A._sigma
    return float(sigma[0] / sigma[-1]), sigma


@dataclass(frozen=True)
class HadamardReport:
    """Determinant and operator-norm inequalities implied by the potential.

    For a unit-column matrix: |det A| <= 1, |det A^-1| <= exp(phi),
    ||A|| <= sqrt(n), and ||A^-1|| <= sqrt(n) exp(phi).
    """

    phi: float
    det_abs: float
    det_bound: float
    det_ok: bool
    inv_det_abs: float
    inv_det_bound: float
    inv_det_ok: bool
    norm: float
    norm_bound: float
    norm_ok: bool
    inv_norm: float
    inv_norm_bound: float
    inv_norm_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.det_ok and self.inv_det_ok and self.norm_ok and self.inv_norm_ok


def _exp_or_inf(x: float) -> float:
    # math.exp raises on overflow; the bound is honestly inf in doubles
    return math.exp(x) if x < 709.0 else math.inf


def hadamard_report(A: ColumnMatrix) -> HadamardReport:
    """Evaluate all four determinant/norm inequalities for one matrix."""
    phi, sigma = potential_phi(A), condition_number(A)[1]
    _, logdet = np.linalg.slogdet(A.array)
    det_abs = math.exp(logdet)
    inv_det_abs = _exp_or_inf(-logdet)
    norm = float(sigma[0])
    inv_norm = float(1.0 / sigma[-1])
    sqrt_n = math.sqrt(A.n)
    slack = 1.0 + tol.HADAMARD_REL
    return HadamardReport(
        phi=phi,
        det_abs=det_abs,
        det_bound=1.0,
        det_ok=det_abs <= slack,
        inv_det_abs=inv_det_abs,
        inv_det_bound=_exp_or_inf(phi),
        # relative slack applied in the log domain so the check survives
        # values that overflow to inf
        inv_det_ok=-logdet <= phi + math.log1p(tol.HADAMARD_REL),
        norm=norm,
        norm_bound=sqrt_n,
        norm_ok=norm <= sqrt_n * slack,
        inv_norm=inv_norm,
        inv_norm_bound=sqrt_n * _exp_or_inf(phi),
        inv_norm_ok=math.log(inv_norm)
        <= 0.5 * math.log(A.n) + phi + math.log1p(tol.HADAMARD_REL),
    )


def snapshot(A: ColumnMatrix) -> MetricsSnapshot:
    """Compute the full diagnostic snapshot for one matrix state."""
    d = leave_one_out_distances(A)
    kappa, sigma = condition_number(A)
    return MetricsSnapshot(
        d=d,
        phi=_phi_from_distances(d),
        sigma=sigma,
        kappa=kappa,
        gram_offdiag=gram_offdiag_fro(A),
    )
