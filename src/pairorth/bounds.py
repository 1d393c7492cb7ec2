"""Closed-form bound evaluators for the pairwise orthogonalization process.

Pure double-precision functions of (phi, n, t); nothing here touches a
simulation. A high-precision reference implementation of each formula
lives in the oracle module for cross-checking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, UsageError


def inflection(n: int) -> float:
    """Threshold (log 2 / 2) * n where the iterative map changes convexity."""
    return 0.5 * math.log(2.0) * n


def c_n(n: int) -> float:
    """Constant 2 (log 2)^2 n^2 (n-1)^2 in the small-potential decay curve."""
    return 2.0 * math.log(2.0) ** 2 * n * n * (n - 1) * (n - 1)


@dataclass(frozen=True)
class ConvergenceTarget:
    """Accuracy eps and failure probability delta, both strictly in (0, 1).

    The step-count guarantee is stated for eps, delta < 0.01;
    within_stated_regime tracks whether this target is in that range.
    """

    eps: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise UsageError(f"eps must be in (0, 1), got {self.eps}")
        if not (0.0 < self.delta < 1.0):
            raise UsageError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def within_stated_regime(self) -> bool:
        return self.eps < 0.01 and self.delta < 0.01


def f_map(x: float, n: int) -> float:
    """One-step map f(x) = x - (1 - exp(-2x/n))^2 / (2 (n-1)^2).

    Upper-bounds the expected potential after one uniformly random step
    from a state with potential x. Fixed point at 0; strictly below the
    identity for x > 0.
    """
    if x < 0:
        raise UsageError(f"potential must be >= 0, got {x}")
    if n < 2:
        raise UsageError(f"dimension must be >= 2, got {n}")
    u = -math.expm1(-2.0 * x / n)  # 1 - exp(-2x/n), accurate near 0
    return x - u * u / (2.0 * (n - 1) ** 2)


def theorem7_bound(phi0: float, n: int, t) -> float:
    """Upper bound on the expected potential after t uniform steps.

    Below the inflection threshold the bound is the hyperbolic decay
    c_n phi0 / (c_n + phi0 t); at or above it, an exponential relaxation
    from phi0 toward the curve n^4 / ((2/log2) n^3 + t/2):

        n^4/((2/log2) n^3 + t/2)
          + (phi0 - n^4/((2/log2) n^3 + t/2)) * exp(-t / (47 n^2 phi0))

    Each branch is non-increasing in t and equals phi0 at t = 0.
    """
    if phi0 < 0:
        raise UsageError(f"phi0 must be >= 0, got {phi0}")
    if t < 0:
        raise UsageError(f"t must be >= 0, got {t}")
    if n < 2:
        raise UsageError(f"dimension must be >= 2, got {n}")
    if phi0 < inflection(n):
        cn = c_n(n)
        return cn / (cn + phi0 * t) * phi0
    floor_curve = n**4 / (2.0 / math.log(2.0) * n**3 + 0.5 * t)
    decay = math.exp(-t / (47.0 * n * n * phi0)) if phi0 > 0 else 0.0
    return floor_curve + (phi0 - floor_curve) * decay


def kappa_bounds_from_phi(phi: float, n: int):
    """Sandwich on the condition number implied by the potential.

    Returns (lower, upper_loose, upper_tight) where
    lower = exp(phi/n), upper_loose = n exp(phi), and
    upper_tight = (1 + sqrt(2 phi)) / (1 - sqrt(2 phi)) which exists only
    while 2 phi < 1; otherwise the third entry is None (a legitimate
    result, not an error).
    """
    if phi < 0:
        raise UsageError(f"phi must be >= 0, got {phi}")
    if n < 2:
        raise UsageError(f"dimension must be >= 2, got {n}")
    # exp overflows for arguments past ~709; the bound is honestly inf then
    lower = math.exp(phi / n) if phi / n < 709.0 else math.inf
    upper_loose = n * math.exp(phi) if phi < 709.0 else math.inf
    upper_tight = None
    if 2.0 * phi < 1.0:
        s = math.sqrt(2.0 * phi)
        upper_tight = (1.0 + s) / (1.0 - s)
    return lower, upper_loose, upper_tight


def stopping_tail(phi0: float, n: int, c: int):
    """Tail guarantee for the time the potential first drops below threshold.

    Returns (threshold_steps, tail_prob): the probability that the
    stopping time exceeds ceil(c * 16 (n-1)^2 phi0) steps is at
    most 2^-c.
    """
    if phi0 <= 0:
        raise UsageError(f"phi0 must be > 0, got {phi0}")
    if c < 1 or int(c) != c:
        raise UsageError(f"c must be a positive integer, got {c}")
    if n < 2:
        raise UsageError(f"dimension must be >= 2, got {n}")
    mu = 16.0 * (n - 1) ** 2 * phi0
    return math.ceil(c * mu), math.ldexp(1.0, -int(c))


def prop_a0_bound(phi0: float, n: int, t) -> float:
    """Early-phase bound on the expected log condition number:

        log(n) + phi0 - (1/96) (1 - inflection(n)/phi0) * t / n^2

    stated for phi0 >= inflection(n) and t <= n^2 phi0; violating either
    precondition raises DomainError naming it.
    """
    if n < 2:
        raise UsageError(f"dimension must be >= 2, got {n}")
    if phi0 < inflection(n):
        raise DomainError(
            f"initial potential {phi0} is below the threshold "
            f"{inflection(n)} required by this bound"
        )
    if t > n * n * phi0:
        raise DomainError(f"step count {t} exceeds the stated range n^2 phi0 = {n * n * phi0}")
    if t < 0:
        raise UsageError(f"t must be >= 0, got {t}")
    return math.log(n) + phi0 - (1.0 / 96.0) * (1.0 - inflection(n) / phi0) * t / (n * n)


def theorem1_steps(phi0: float, n: int, target: ConvergenceTarget) -> int:
    """Steps sufficient to reach kappa <= 1 + eps with probability 1 - delta.

    Returns ceil(max(200 n^2 phi0 log(7 phi0 / n), 48 n^4 / (delta eps^2)))
    with the first term clamped to 0 when the logarithm is non-positive.
    Warns (does not error) when the target is outside the stated
    (0, 0.01) regime.
    """
    if phi0 <= 0:
        raise UsageError(f"phi0 must be > 0, got {phi0}")
    if n < 2:
        raise UsageError(f"dimension must be >= 2, got {n}")
    if not target.within_stated_regime:
        warnings.warn(
            f"targets eps={target.eps}, delta={target.delta} are outside the "
            "stated regime (0, 0.01); the step count is evaluated anyway",
            stacklevel=2,
        )
    log_term = math.log(7.0 * phi0 / n)
    term1 = 200.0 * n * n * phi0 * log_term if log_term > 0 else 0.0
    term2 = 48.0 * n**4 / (target.delta * target.eps**2)
    return math.ceil(max(term1, term2))
