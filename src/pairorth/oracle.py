"""Independent brute-force computations used to validate the fast paths.

Everything here trades speed for transparency: exhaustive enumeration over
pair choices, explicit re-orthogonalized Gram-Schmidt for distances, and
an arbitrary-precision re-evaluation of every closed-form bound. These
paths generate and check expected values; they never feed production runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import SingularityError, UsageError
from .matrix import ColumnMatrix, PairIndex, _count, inner, orth_step, validate_pair
from .metrics import leave_one_out_distances, potential_phi


def exact_one_step_expectation(A: ColumnMatrix) -> float:
    """Average potential over all n(n-1) ordered pair choices, no sampling.

    Cost is n(n-1) full potential evaluations; intended for n <= 8.
    """
    if A.n > 8:
        raise UsageError(f"enumeration is limited to n <= 8, got n = {A.n}")
    total = 0.0
    count = 0
    for i in range(A.n):
        for j in range(A.n):
            if i == j:
                continue
            total += potential_phi(orth_step(A, (i, j)))
            count += 1
    return total / count


def brute_force_distance(A: ColumnMatrix, j: int) -> float:
    """Leave-one-out distance for column j by explicit orthonormalization.

    Modified Gram-Schmidt with a second pass per vector; classical GS
    loses orthogonality exactly on the ill-conditioned inputs this oracle
    exists to check.
    """
    if not (0 <= j < A.n):
        raise UsageError(f"column index {j} out of range for n = {A.n}")
    basis: list[np.ndarray] = []
    for k in range(A.n):
        if k == j:
            continue
        v = np.array(A.column(k))
        for _ in range(2):
            for q in basis:
                v = v - inner(v, q) * q
        norm = np.linalg.norm(v)
        if norm < tol.RANK_FLOOR_COEFF * A.n:
            raise SingularityError(
                f"orthonormalization broke down at column {k}", column=k
            )
        basis.append(v / norm)
    r = np.array(A.column(j))
    for _ in range(2):
        for q in basis:
            r = r - inner(r, q) * q
    return min(float(np.linalg.norm(r)), 1.0)


@dataclass(frozen=True)
class PairStepReport:
    """Margins of the two per-step distance inequalities for one (A, pair).

    margin_all is min_k(d_k(A') - d_k(A)): non-negative when no distance
    decreased. margin_ratio is d_i(A') - d_i(A)/sqrt(1 - |<a_i,a_j>|^2).
    Both pass at slack 1e-10.
    """

    pair: PairIndex
    inner_abs: float
    d_before: np.ndarray
    d_after: np.ndarray
    margin_all: float
    margin_ratio: float
    ok_all: bool
    ok_ratio: bool

    @property
    def ok(self) -> bool:
        return self.ok_all and self.ok_ratio


def verify_lemma3(A: ColumnMatrix, pair: PairIndex) -> PairStepReport:
    """Check both per-step distance inequalities for one pair choice.

    Failures are report content, not exceptions.
    """
    i, j = validate_pair(A.n, pair)
    c_abs = abs(inner(A.column(i), A.column(j)))
    d_before = leave_one_out_distances(A)
    d_after = leave_one_out_distances(orth_step(A, (i, j)))
    margin_all = float(np.min(d_after - d_before))
    ratio_floor = d_before[i] / np.sqrt(1.0 - c_abs * c_abs)
    # distances never exceed 1, so clamp the floor before comparing
    margin_ratio = float(d_after[i] - min(ratio_floor, 1.0))
    return PairStepReport(
        pair=(i, j),
        inner_abs=c_abs,
        d_before=d_before,
        d_after=d_after,
        margin_all=margin_all,
        margin_ratio=margin_ratio,
        ok_all=margin_all >= -tol.MONOTONE_ABS,
        ok_ratio=margin_ratio >= -tol.MONOTONE_ABS,
    )


def _theorem7(mp, phi0, n, t):
    infl = mp.log(2) / 2 * n
    if phi0 < infl:
        cn = 2 * mp.log(2) ** 2 * n**2 * (n - 1) ** 2
        return cn / (cn + phi0 * t) * phi0
    floor_curve = n**4 / (2 / mp.log(2) * n**3 + t / 2)
    return floor_curve + (phi0 - floor_curve) * mp.e ** (-t / (47 * n**2 * phi0))


def _theorem1_steps(mp, phi0, n, eps, delta):
    log_term = mp.log(7 * phi0 / n)
    term1 = 200 * n**2 * phi0 * log_term if log_term > 0 else mp.mpf(0)
    term2 = 48 * n**4 / (delta * eps**2)
    return max(term1, term2)


_DIM = ("dimension", 2)

# name -> (its formula, given mpmath and the arguments in the order of the
# double-precision evaluator of the same name; per argument, None for an mpf or
# the name and least value of a count, checked as that evaluator checks it)
_BOUNDS = {
    "f": (lambda mp, x, n: x - (u := 1 - mp.e ** (-2 * x / n)) * u / (2 * (n - 1) ** 2),
          (None, _DIM)),
    "theorem7": (_theorem7, (None, _DIM, None)),
    "kappa-lower": (lambda mp, phi, n: mp.e ** (phi / n), (None, _DIM)),
    "kappa-upper-loose": (lambda mp, phi, n: n * mp.e**phi, (None, _DIM)),
    "kappa-upper-tight": (lambda mp, phi: (1 + (s := mp.sqrt(2 * phi))) / (1 - s), (None,)),
    "stopping-threshold": (lambda mp, phi0, n, c: c * 16 * (n - 1) ** 2 * phi0,
                           (None, _DIM, ("c", 1))),
    "prop-a0": (
        lambda mp, phi0, n, t: mp.log(n) + phi0 - (1 - mp.log(2) / 2 * n / phi0) / 96 * t / n**2,
        (None, _DIM, None)),
    "theorem1-steps": (_theorem1_steps, (None, _DIM, None, None)),
}


def highprec_bound_reference(name: str, *args) -> float:
    """Re-evaluate one closed-form bound at 60 decimal digits.

    Argument order matches the double-precision evaluator of the same
    name. The production path must agree within 1e-12 relative. For
    "stopping-threshold" and "theorem1-steps" the value returned is the
    real number before the final ceil; n and c are checked as the
    evaluator checks them.
    """
    import mpmath as mp

    if name not in _BOUNDS:
        raise UsageError(f"unknown bound name {name!r}; expected one of {tuple(_BOUNDS)}")
    formula, kinds = _BOUNDS[name]
    with mp.workdps(60):
        values = [mp.mpf(x) if kind is None else _count(kind[0], x, kind[1])
                  for kind, x in zip(kinds, args)]
        if name == "kappa-upper-tight" and 2 * values[0] >= 1:
            raise UsageError(f"tight bound needs 2 phi < 1, got phi = {args[0]}")
        return float(formula(mp, *values))
