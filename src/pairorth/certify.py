"""Randomized certification suites behind the `verify` command.

Each suite draws seeded random instances, checks one inequality family at
its fixed slack, and reports pass counts plus the worst margin seen
(margin >= 0 means the instance passed with room; anything below the
suite's slack is a failure). Failures carry the instance so a run can be
reproduced and the offending matrix dumped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tolerances as tol
from .bounds import f_map, kappa_bounds_from_phi, stopping_tail
from .errors import PairOrthError, UsageError
from .generators import GAUSSIAN, NEAR_SINGULAR, GeneratorSpec, generate
from .matrix import COMPLEX, REAL, _count
from .metrics import (
    INVERSE_ROWS,
    PROJECTION,
    hadamard_report,
    leave_one_out_distances,
)
from .oracle import exact_one_step_expectation, verify_lemma3
from .process import UNIFORM, derive_replicate_seed, make_rng, run_ensemble


@dataclass
class SuiteResult:
    trials: int
    passes: int
    worst_margin: float
    failures: list = field(default_factory=list)  # (trial_seed, ColumnMatrix)

    @property
    def ok(self) -> bool:
        return self.passes == self.trials


def _random_state(seed: int, trial: int, n_values):
    n = n_values[trial % len(n_values)]
    fld = (REAL, COMPLEX)[(trial // len(n_values)) % 2]
    spec = GeneratorSpec(GAUSSIAN, n=n, field=fld, seed=derive_replicate_seed(seed, trial))
    A, s = generate(spec)
    return A, spec, s


# Each trial function draws one instance and returns
# (margin, passed, trial_seed, A); _run_trials keeps the worst margin,
# the pass count and the failing instances.


def _lemma3_trial(seed: int, trial: int):
    """Per-step monotonicity: no d_k decreases, the replaced column's
    distance grows by at least the predicted ratio, and phi does not
    increase. Slack 1e-10."""
    A, spec, _ = _random_state(seed, trial, (2, 3, 4, 5, 6))
    rng = make_rng(spec.seed ^ 0x9E37)
    i = int(rng.integers(A.n))
    j = int((i + 1 + rng.integers(A.n - 1)) % A.n)
    report = verify_lemma3(A, (i, j))
    phi_margin = float(
        -np.log(report.d_before).sum() - (-np.log(report.d_after).sum())
    )
    margin = min(report.margin_all, report.margin_ratio, phi_margin)
    return margin, margin >= -tol.MONOTONE_ABS, spec.seed, A


def _lemma10_trial(seed: int, trial: int):
    """Gram residual lower bound ||A*A - I||_F^2 >= (n/(n-1))(1 - sigma_n^2)^2,
    slack 1e-9."""
    A, spec, s = _random_state(seed, trial, tuple(range(2, 11)))
    lhs = s.gram_offdiag**2
    rhs = A.n / (A.n - 1) * (1.0 - s.sigma[-1] ** 2) ** 2
    margin = lhs - rhs
    return margin, margin >= -tol.GRAM_RESIDUAL_ABS, spec.seed, A


def _onestep_trial(seed: int, trial: int):
    """Exact expectation over all ordered pairs stays at or below the
    one-step map f(phi), slack 1e-9."""
    A, spec, s = _random_state(seed, trial, (2, 3, 4, 5, 6))
    expectation = exact_one_step_expectation(A)
    margin = f_map(s.phi, A.n) - expectation
    return margin, margin >= -tol.ONE_STEP_EXPECTATION_ABS, spec.seed, A


def _eq9_trial(seed: int, trial: int):
    """The two distance methods agree to 1e-8 relative on matrices with
    condition number at most 1e6."""
    attempt = 0
    while True:
        n = (2, 3, 4, 5, 6, 8)[trial % 6]
        fld = (REAL, COMPLEX)[(trial // 6) % 2]
        spec = GeneratorSpec(
            GAUSSIAN, n=n, field=fld, seed=derive_replicate_seed(seed, trial * 1000 + attempt)
        )
        A, achieved = generate(spec)
        if achieved.kappa <= 1e6:
            break
        attempt += 1
    d_inv = leave_one_out_distances(A, INVERSE_ROWS)
    d_proj = leave_one_out_distances(A, PROJECTION)
    rel = float(np.max(np.abs(d_inv - d_proj) / d_proj))
    margin = tol.DISTANCE_METHOD_REL - rel
    return margin, margin >= 0.0, spec.seed, A


def _hadamard_trial(seed: int, trial: int):
    """All four determinant / operator-norm inequalities, relative slack 1e-9.
    The pass rule is the report's own flags, not the sign of the margin."""
    A, spec, _ = _random_state(seed, trial, tuple(range(2, 9)))
    rep = hadamard_report(A)
    margin = min(
        (rep.det_bound - rep.det_abs) / rep.det_bound,
        (rep.inv_det_bound - rep.inv_det_abs) / rep.inv_det_bound,
        (rep.norm_bound - rep.norm) / rep.norm_bound,
        (rep.inv_norm_bound - rep.inv_norm) / rep.inv_norm_bound,
    )
    return margin, rep.all_ok, spec.seed, A


def _kappa_sandwich_trial(seed: int, trial: int):
    """Measured kappa against exp(phi/n) from below and both upper bounds,
    slack 1e-9 absolute."""
    A, spec, s = _random_state(seed, trial, tuple(range(2, 9)))
    lower, upper_loose, upper_tight = kappa_bounds_from_phi(s.phi, A.n)
    upper = upper_loose if upper_tight is None else min(upper_loose, upper_tight)
    margin = min(s.kappa - lower, upper - s.kappa)
    return margin, margin >= -1e-9, spec.seed, A


def _run_trials(trial_fn, trials: int, seed: int) -> SuiteResult:
    worst = math.inf
    passes = 0
    failures = []
    for trial in range(trials):
        margin, passed, trial_seed, A = trial_fn(seed, trial)
        worst = min(worst, margin)
        if passed:
            passes += 1
        else:
            failures.append((trial_seed, A))
    return SuiteResult(trials, passes, worst, failures)


def find_tail_instance(seed: int, n: int = 4, phi_range=(4.0, 6.0)):
    """Near-singular instance whose achieved phi lands in phi_range.

    Walks a deterministic grid of planted distances; the achieved
    potential also includes the other columns' contributions, so the grid
    is searched rather than solved. Each point draws a fresh matrix, and
    for some seeds phi jumps over the whole range between neighbouring
    points of the coarse grid; only then is a finer grid, with its own
    sub-seeds, searched.
    """
    lo, hi = phi_range
    base = math.exp(-0.5 * (lo + hi))
    for ratio, points, first_subseed in ((1.2, 120, 7000), (1.05, 240, 8000)):
        for k in range(points):
            eta = base * ratio ** (k - points // 2)
            if not (0.0 < eta < 1.0):
                continue
            spec = GeneratorSpec(
                NEAR_SINGULAR, n=n, field=REAL,
                seed=derive_replicate_seed(seed, first_subseed + k), eta=eta,
            )
            A, achieved = generate(spec)
            if lo <= achieved.phi <= hi:
                return A, achieved
    raise PairOrthError(f"no instance with phi in {phi_range} found from seed {seed}")


def _suite_tstar_tail(trials: int, seed: int) -> SuiteResult:
    """Empirical tail of the stopping time against 2^-c plus three
    binomial standard deviations, for c in {1, 2, 3}. trials = replicates."""
    n = 4
    A0, achieved = find_tail_instance(seed, n=n)
    phi0 = achieved.phi
    cap, _ = stopping_tail(phi0, n, 3)
    stats = run_ensemble(
        A0, steps=cap + 1, kind=UNIFORM, replicates=trials,
        base_seed=seed, metrics_stride=cap + 1,
    )
    worst = math.inf
    ok = True
    for c in (1, 2, 3):
        threshold, tail = stopping_tail(phi0, n, c)
        empirical = (
            sum(1 for ts in stats.t_stars if ts is None or ts > threshold) / trials
        )
        allowance = tail + 3.0 * math.sqrt(tail / trials)
        worst = min(worst, allowance - empirical)
        ok = ok and empirical <= allowance
    passes = trials if ok else 0
    failures = [] if ok else [(seed, A0)]
    return SuiteResult(trials, passes, worst, failures)


# suite -> (its run on (trials, seed), default trial count)
_SUITES = {
    "lemma3": (partial(_run_trials, _lemma3_trial), 10000),
    "lemma10": (partial(_run_trials, _lemma10_trial), 1000),
    "onestep": (partial(_run_trials, _onestep_trial), 200),
    "eq9": (partial(_run_trials, _eq9_trial), 500),
    "hadamard": (partial(_run_trials, _hadamard_trial), 1000),
    "kappa-sandwich": (partial(_run_trials, _kappa_sandwich_trial), 1000),
    "tstar-tail": (_suite_tstar_tail, 200),
}

SUITES = tuple(_SUITES)


def run_suite(suite: str, trials: int | None, seed: int) -> SuiteResult:
    """Run one certification suite; see SUITES for the names."""
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; expected one of {SUITES}")
    run, default_trials = _SUITES[suite]
    return run(default_trials if trials is None else _count("trials", trials, 1), seed)
