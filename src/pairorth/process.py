"""The stochastic process: pair samplers, chain runner, ensembles.

A chain starts from a unit-column matrix, repeatedly samples an ordered
pair (i, j) and orthogonalizes column i against column j. The potential
is recomputed from the matrix after every step (there is no stable
incremental recurrence for all the distances); full diagnostic snapshots
are taken on a configurable stride.

One step kernel, _step, samples the pair, updates the column in place
and recomputes the potential; run_chain and the Kaczmarz co-solver both
drive it.

All randomness flows from explicit 64-bit seeds through a counter-based
generator (Philox). Replicate seeds are derived from the base seed with a
splittable scheme, never by sequential reuse; replicates run in index
order and each one depends only on its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .bounds import inflection, theorem7_bound
from .errors import ChainAbortError, DegeneratePairError, PairOrthError, UsageError
from .matrix import ColumnMatrix, PairIndex, _orth_column
from .metrics import MetricsSnapshot, _distances_auto, _phi_from_distances, snapshot

UNIFORM = "uniform"
PROPORTIONAL = "proportional"
GREEDY = "greedy"

SAMPLER_KINDS = (UNIFORM, PROPORTIONAL, GREEDY)


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise UsageError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(seed))))


def derive_replicate_seed(base_seed: int, r: int) -> int:
    """64-bit seed for replicate r, split off the base seed."""
    ss = np.random.SeedSequence(entropy=_check_seed(base_seed), spawn_key=(int(r),))
    return int(ss.generate_state(1, np.uint64)[0])


def _sample_pair_arr(arr: np.ndarray, kind: str, rng: np.random.Generator) -> PairIndex:
    n = arr.shape[0]
    if kind == UNIFORM:
        k = int(rng.integers(n * (n - 1)))
        i = k // (n - 1)
        j = k % (n - 1)
        return (i, j + 1 if j >= i else j)
    g = np.abs(arr.conj().T @ arr)
    np.fill_diagonal(g, 0.0)
    if kind == GREEDY:
        # argmax scans row-major, which breaks ties by smallest i then j
        k = int(np.argmax(g))
        return (k // n, k % n)
    if kind == PROPORTIONAL:
        if g.max() < tol.PROPORTIONAL_FALLBACK_ABS:
            return _sample_pair_arr(arr, UNIFORM, rng)
        w = (g * g).ravel()
        k = int(rng.choice(n * n, p=w / w.sum()))
        return (k // n, k % n)
    raise UsageError(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")


def sample_pair(A: ColumnMatrix, kind: str, rng: np.random.Generator) -> PairIndex:
    """Draw one ordered pair (i, j); column i is the one to replace.

    uniform: each of the n(n-1) ordered pairs with equal probability.
    proportional: pair probability proportional to |<a_i, a_j>|^2, falling
    back to uniform when every off-diagonal inner product is below 1e-15.
    greedy: deterministic argmax of |<a_i, a_j>|, ties broken by smallest
    i then smallest j.
    """
    return _sample_pair_arr(A.array, kind, rng)


def _phi(arr: np.ndarray) -> float:
    return _phi_from_distances(_distances_auto(arr))


def _step(cur: np.ndarray, kind: str, rng: np.random.Generator):
    """Advance the state cur by one step of the process, in place.

    Samples the pair (i, j), replaces column i by its unit component
    orthogonal to column j and returns ((i, j), c, c2, nu, phi) with the
    coefficients of _orth_column and the new potential. A degenerate pair
    raises DegeneratePairError before cur is touched.
    """
    i, j = _sample_pair_arr(cur, kind, rng)
    new_col, c, c2, nu = _orth_column(cur, i, j)
    cur[:, i] = new_col
    return (i, j), c, c2, nu, _phi(cur)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One recorded step. The t = 0 record carries no pair."""

    t: int
    pair: PairIndex | None
    inner_abs: float | None
    phi: float
    snapshot: MetricsSnapshot | None = None


@dataclass
class Trajectory:
    """Per-step record of one chain run.

    phi is recorded at every step (steps + 1 entries including t = 0);
    full snapshots only where the stride hits. t_star is the first step
    at which phi dropped below the inflection threshold (log2/2) n, if it
    did. monotonicity_violations counts steps where phi rose by more than
    the 1e-10 slack; worst_phi_rise is the largest such rise observed.
    """

    n: int
    sampler: str
    seed: int
    metrics_stride: int
    steps: list[StepRecord] = field(default_factory=list)
    t_star: int | None = None
    final_matrix: ColumnMatrix | None = None
    monotonicity_violations: int = 0
    worst_phi_rise: float = 0.0

    @property
    def phi(self) -> np.ndarray:
        return np.array([rec.phi for rec in self.steps])


def detect_t_star(traj: Trajectory) -> int | None:
    """First step index with phi strictly below (log2/2) n, if any."""
    if not traj.steps:
        raise UsageError("trajectory has no recorded steps")
    threshold = inflection(traj.n)
    for rec in traj.steps:
        if rec.phi < threshold:
            return rec.t
    return None


def run_chain(
    A0: ColumnMatrix,
    steps: int,
    kind: str = UNIFORM,
    seed: int = 0,
    metrics_stride: int = 1,
) -> Trajectory:
    """Run one chain for a fixed number of steps.

    Deterministic given (A0, steps, kind, seed, metrics_stride). A
    degenerate pair aborts the run by raising ChainAbortError carrying the
    diagnostic and the partial trajectory; it is never skipped silently.
    """
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    if metrics_stride < 1:
        raise UsageError(f"metrics_stride must be >= 1, got {metrics_stride}")
    if kind not in SAMPLER_KINDS:
        raise UsageError(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")

    rng = make_rng(seed)
    cur = np.array(A0.array, order="F")
    threshold = inflection(A0.n)
    traj = Trajectory(n=A0.n, sampler=kind, seed=seed, metrics_stride=metrics_stride)

    def snap() -> MetricsSnapshot:
        return snapshot(ColumnMatrix._wrap(np.array(cur, order="F"), A0.field))

    phi = _phi(cur)
    traj.steps.append(StepRecord(0, None, None, phi, snap()))
    if phi < threshold:
        traj.t_star = 0

    for t in range(1, steps + 1):
        try:
            pair, c, _, _, phi_new = _step(cur, kind, rng)
        except DegeneratePairError as exc:
            traj.final_matrix = ColumnMatrix._wrap(np.array(cur, order="F"), A0.field)
            raise ChainAbortError(t, exc.pair, exc.inner_abs, traj) from exc
        if phi_new > phi + tol.MONOTONE_ABS:
            traj.monotonicity_violations += 1
            traj.worst_phi_rise = max(traj.worst_phi_rise, phi_new - phi)
        take_snapshot = (t % metrics_stride == 0) or (t == steps)
        traj.steps.append(
            StepRecord(t, pair, abs(c), phi_new, snap() if take_snapshot else None)
        )
        if traj.t_star is None and phi_new < threshold:
            traj.t_star = t
        phi = phi_new

    traj.final_matrix = ColumnMatrix._wrap(np.array(cur, order="F"), A0.field)
    return traj


@dataclass
class EnsembleStats:
    """Per-recorded-step aggregates across replicates, plus bound curves.

    The recorded grid is every multiple of the stride plus the final
    step. exceed is True where mean_phi - 2 stderr_phi rises above the
    closed-form expectation bound evaluated at phi0 (the bound constrains
    the true mean; two standard errors is the Monte Carlo allowance). The
    comparison carries a 1e-12 float allowance: at t = 0 both sides equal
    phi0 analytically but are computed by different double-precision
    routes, and a strict comparison would flag ulp-level noise.
    """

    n: int
    sampler: str
    base_seed: int
    steps: int
    metrics_stride: int
    replicates: int
    phi0: float
    t: np.ndarray
    mean_phi: np.ndarray
    min_phi: np.ndarray
    max_phi: np.ndarray
    stderr_phi: np.ndarray
    mean_log_kappa: np.ndarray
    bound: np.ndarray
    exceed: np.ndarray
    t_stars: list[int | None]
    aborts: int
    monotonicity_violations: int


def _record_grid(steps: int, stride: int) -> list[int]:
    grid = list(range(0, steps + 1, stride))
    if grid[-1] != steps:
        grid.append(steps)
    return grid


def run_ensemble(
    A0: ColumnMatrix,
    steps: int,
    kind: str,
    replicates: int,
    base_seed: int,
    metrics_stride: int = 1,
    trajectory_sink=None,
) -> EnsembleStats:
    """Run independent replicates and aggregate them on the record grid.

    Replicates run one after another in index order; replicate r runs
    with seed derive_replicate_seed(base_seed, r). Aborted replicates are
    excluded and counted; more than 1% aborting fails the whole run.
    trajectory_sink, when given, receives (replicate_index, trajectory)
    as each replicate finishes.
    """
    if replicates < 1:
        raise UsageError(f"replicates must be >= 1, got {replicates}")
    grid = _record_grid(steps, metrics_stride)
    phi0 = None

    phi_rows = []
    log_kappa_rows = []
    t_stars: list[int | None] = []
    aborts = 0
    violations = 0
    for r in range(replicates):
        try:
            traj = run_chain(A0, steps, kind, derive_replicate_seed(base_seed, r), metrics_stride)
        except ChainAbortError:
            aborts += 1
            continue
        if trajectory_sink is not None:
            trajectory_sink(r, traj)
        phi_all = traj.phi
        phi_rows.append(phi_all[grid])
        log_kappa_rows.append([np.log(traj.steps[t].snapshot.kappa) for t in grid])
        t_stars.append(traj.t_star)
        violations += traj.monotonicity_violations
        if phi0 is None:
            phi0 = float(phi_all[0])

    if aborts / replicates > tol.ENSEMBLE_ABORT_FRACTION:
        raise PairOrthError(
            f"{aborts} of {replicates} replicates aborted on degenerate pairs "
            f"(more than {tol.ENSEMBLE_ABORT_FRACTION:.0%})"
        )

    kept = len(phi_rows)
    phi_mat = np.array(phi_rows)
    lk_mat = np.array(log_kappa_rows)
    mean_phi = phi_mat.mean(axis=0)
    stderr = (
        phi_mat.std(axis=0, ddof=1) / np.sqrt(kept) if kept > 1 else np.zeros(len(grid))
    )
    bound = np.array([theorem7_bound(phi0, A0.n, t) for t in grid])
    return EnsembleStats(
        n=A0.n,
        sampler=kind,
        base_seed=base_seed,
        steps=steps,
        metrics_stride=metrics_stride,
        replicates=kept,
        phi0=phi0,
        t=np.array(grid),
        mean_phi=mean_phi,
        min_phi=phi_mat.min(axis=0),
        max_phi=phi_mat.max(axis=0),
        stderr_phi=stderr,
        mean_log_kappa=lk_mat.mean(axis=0),
        bound=bound,
        exceed=mean_phi - 2.0 * stderr > bound + 1e-12 * (1.0 + np.abs(bound)),
        t_stars=t_stars,
        aborts=aborts,
        monotonicity_violations=violations,
    )
