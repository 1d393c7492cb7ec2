"""Seeded construction of unit-column test matrices across regimes.

Each generator returns the matrix together with the achieved diagnostic
snapshot. Targets (a condition number, a smallest distance) are advisory:
unit-column renormalization perturbs prescribed spectra, so callers assert
on achieved values, never on requested ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import ConstructionError, UsageError
from .matrix import COMPLEX, REAL, ColumnMatrix, _count, inner
from .metrics import MetricsSnapshot, snapshot
from .process import make_rng

HAAR = "haar_orthonormal"
GAUSSIAN = "gaussian_normalized"
PRESCRIBED = "prescribed_spectrum"
TWO_BY_TWO = "two_by_two_angle"
NEAR_SINGULAR = "near_singular"

KINDS = (HAAR, GAUSSIAN, PRESCRIBED, TWO_BY_TWO, NEAR_SINGULAR)
_RANDOM_KINDS = (HAAR, GAUSSIAN, PRESCRIBED, NEAR_SINGULAR)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: kind, dimension, field, seed, kind-specific params.

    sigma: prescribed singular values (prescribed_spectrum only)
    theta: column angle in radians (two_by_two_angle only)
    eta: distance of the planted column from the span of the others
         (near_singular only), in (0, 1)
    """

    kind: str
    n: int
    field: str = REAL
    seed: int | None = None
    sigma: tuple[float, ...] | None = None
    theta: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown generator kind {self.kind!r}; expected one of {KINDS}")
        if self.field not in (REAL, COMPLEX):
            raise UsageError(f"field must be 'real' or 'complex', got {self.field!r}")
        _count("dimension", self.n, 2)
        if self.kind in _RANDOM_KINDS and self.seed is None:
            raise UsageError(f"kind {self.kind!r} requires a seed")
        if self.kind == TWO_BY_TWO:
            if self.n != 2:
                raise UsageError("two_by_two_angle requires n = 2")
            if self.theta is None:
                raise UsageError("two_by_two_angle requires theta")
        if self.kind == PRESCRIBED:
            if self.sigma is None or len(self.sigma) != self.n:
                raise UsageError("prescribed_spectrum requires n singular values")
            if any(s <= 0 for s in self.sigma):
                raise UsageError("prescribed singular values must be positive")
        if self.kind == NEAR_SINGULAR:
            if self.eta is None or not (0.0 < self.eta < 1.0):
                raise UsageError("near_singular requires eta in (0, 1)")


def _gaussian(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    if field == COMPLEX:
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return rng.standard_normal(shape)


def haar_factor(n: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal/unitary factor drawn from the rotation-invariant law.

    QR of a Gaussian matrix with the diagonal of R phase-corrected, which
    removes the sign ambiguity that would otherwise bias the distribution.
    """
    g = _gaussian(rng, (n, n), field)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _normalize_columns(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr, axis=0)


def _near_singular(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    arr = _normalize_columns(_gaussian(rng, (spec.n, spec.n), spec.field))
    # plant the last column at distance ~eta from the span of the others
    q, _ = np.linalg.qr(arr[:, :-1])
    g = _gaussian(rng, spec.n - 1, spec.field)
    u = q @ g
    u = u / np.linalg.norm(u)
    v = _gaussian(rng, spec.n, spec.field)
    r = v - q @ (q.conj().T @ v)
    r = r - q @ (q.conj().T @ r)
    w = r / np.linalg.norm(r)
    col = (1.0 - spec.eta) * u + spec.eta * w
    arr[:, -1] = col / np.linalg.norm(col)
    return arr


def generate(spec: GeneratorSpec) -> tuple[ColumnMatrix, MetricsSnapshot]:
    """Build the matrix for a spec and report its achieved diagnostics."""
    rng = make_rng(spec.seed) if spec.seed is not None else None

    if spec.kind == HAAR:
        arr = haar_factor(spec.n, spec.field, rng)
    elif spec.kind == GAUSSIAN:
        arr = _normalize_columns(_gaussian(rng, (spec.n, spec.n), spec.field))
    elif spec.kind == PRESCRIBED:
        u = haar_factor(spec.n, spec.field, rng)
        v = haar_factor(spec.n, spec.field, rng)
        arr = _normalize_columns(u @ np.diag(np.asarray(spec.sigma, dtype=float)) @ v.conj().T)
    elif spec.kind == TWO_BY_TWO:
        arr = np.array([[1.0, np.cos(spec.theta)], [0.0, np.sin(spec.theta)]])
        if spec.field == COMPLEX:
            arr = arr.astype(np.complex128)
    else:
        arr = _near_singular(spec, rng)

    A = ColumnMatrix(arr, normalize=True)
    if A.n == 2:
        # the only pair is (0, 1): every step of a chain would hit the guard
        inner_abs = abs(inner(A.column(0), A.column(1)))
        if inner_abs >= 1.0 - tol.DEGENERATE_PAIR_GUARD:
            raise ConstructionError(
                f"{spec.kind} at n = 2 gives a degenerate only pair: "
                f"|<a_0, a_1>| = {inner_abs!r} is within {tol.DEGENERATE_PAIR_GUARD!r} of 1"
            )
    return A, snapshot(A)
