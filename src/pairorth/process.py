"""The stochastic process: pair samplers, chain runner, ensembles.

A chain starts from a unit-column matrix, repeatedly samples an ordered
pair (i, j) and orthogonalizes column i against column j. The potential
phi = -sum_j log d_j is recorded after every step; full diagnostic
snapshots are taken on the record grid, every multiple of a stride plus
the last step.

One step kernel, _step, samples the pair, updates the column in place
and updates the potential; run_chain and the Kaczmarz co-solver both
drive it through a _ChainState, which keeps the inverse (two rows move
per step), the distances and, for the proportional and greedy samplers,
the Gram matrix. Above the 1e8 condition estimate it keeps the distances
alone and recomputes d_j by one QR per step. The update rules, the
refresh policy and the measured drift are in README, "How the step
kernel keeps phi".

All randomness flows from explicit 64-bit seeds through a counter-based
generator (Philox). Replicate seeds are derived from the base seed with a
splittable scheme, never by sequential reuse; replicates run in index
order and each one depends only on its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .bounds import inflection, theorem7_bound
from .errors import ChainAbortError, DegeneratePairError, PairOrthError, UsageError
from .matrix import ColumnMatrix, PairIndex, _orth_column
from .metrics import (
    MetricsSnapshot,
    _distances_full,
    _distances_projection,
    _phi_from_distances,
    snapshot,
)

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


def _draw_pair(n: int, kind: str, rng: np.random.Generator, gram=None) -> PairIndex:
    # gram is A^H A; the uniform sampler does not read it
    if kind == UNIFORM:
        k = int(rng.integers(n * (n - 1)))
        i = k // (n - 1)
        j = k % (n - 1)
        return (i, j + 1 if j >= i else j)
    g = np.abs(gram)
    if kind == GREEDY:
        # |<a_i, a_j>| is symmetric, so a row-major argmax over the strict
        # upper triangle breaks ties by smallest i then j, never lands on
        # the diagonal and ignores the roundoff between (i, j) and (j, i)
        rows, cols = np.triu_indices(n, 1)
        k = int(np.argmax(g[rows, cols]))
        return (int(rows[k]), int(cols[k]))
    np.fill_diagonal(g, 0.0)
    if kind == PROPORTIONAL:
        if g.max() < tol.PROPORTIONAL_FALLBACK_ABS:
            return _draw_pair(n, UNIFORM, rng)
        w = (g * g).ravel()
        k = int(rng.choice(n * n, p=w / w.sum()))
        return (k // n, k % n)
    raise UsageError(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")


def _gram(arr: np.ndarray) -> np.ndarray:
    return arr.conj().T @ arr


def sample_pair(A: ColumnMatrix, kind: str, rng: np.random.Generator) -> PairIndex:
    """Draw one ordered pair (i, j); column i is the one to replace.

    uniform: each of the n(n-1) ordered pairs with equal probability.
    proportional: pair probability proportional to |<a_i, a_j>|^2, falling
    back to uniform when every off-diagonal inner product is below 1e-15.
    greedy: deterministic argmax of |<a_i, a_j>|, ties broken by smallest
    i then smallest j.
    """
    gram = None if kind == UNIFORM else _gram(A.array)
    return _draw_pair(A.n, kind, rng, gram)


class _ChainState:
    """Working state of one chain for the step kernel.

    arr is the matrix (F-order, updated in place) and d its distances,
    phi their potential. While the inverse path holds, inv is A^-1
    (C-order, so its rows are contiguous) and row_sq the squared norms of
    its rows; both are None on the projection path, where a step keeps d
    and recomputes only d_j by one QR. gram is A^H A for the proportional
    and greedy samplers, None for uniform. refreshes counts the full
    recomputes made by steps, fallbacks the steps whose distances came
    from the projection path, and worst_drift is the largest
    |phi_kept - phi_full| seen at a refresh, on either path.
    """

    def __init__(self, arr: np.ndarray, kind: str):
        self.arr = arr
        self.kind = kind
        self.gram = None if kind == UNIFORM else _gram(arr)
        self.refreshes = 0
        self.fallbacks = 0
        self.worst_drift = 0.0
        self._recompute()

    def _recompute(self) -> None:
        inv, row_norms, self.d = _distances_full(self.arr)
        self.inv = None if inv is None else np.ascontiguousarray(inv)
        self.row_sq = None if row_norms is None else row_norms * row_norms
        self.phi = _phi_from_distances(self.d)
        self.since_refresh = 0

    def _refresh(self) -> None:
        phi_kept = self.phi
        self._recompute()
        self.refreshes += 1
        self.worst_drift = max(self.worst_drift, abs(phi_kept - self.phi))

    def update(self, i: int, j: int, s, nu) -> None:
        """Follow the column update a_i <- (a_i - s a_j) / nu, already
        written into arr, in gram, inv, d and phi."""
        if self.gram is not None:
            row = self.arr[:, i].conj() @ self.arr
            self.gram[i, :] = row
            self.gram[:, i] = row.conj()
        self.since_refresh += 1
        inv, d = self.inv, self.d
        if inv is None:
            # span{a_i', a_j} = span{a_i, a_j}, so d_k for k not in {i, j}
            # stays; a_j is one of i's other columns, so d_i scales by 1/nu;
            # only d_j, whose other columns now hold a_i', needs a QR
            d[i] = min(d[i] / nu, 1.0)
            d[j] = _distances_projection(self.arr, (j,))[0]
            sum_sq = float(np.sum(1.0 / (d * d)))
        else:
            inv[j] += s * inv[i]
            inv[i] *= nu
            row_sq = self.row_sq
            for k in (i, j):
                row_sq[k] = np.vdot(inv[k], inv[k]).real
                d[k] = min(1.0 / math.sqrt(row_sq[k]), 1.0)
            sum_sq = float(row_sq.sum())
        self.phi = _phi_from_distances(d)
        # sqrt(n) ||A^-1||_F, read off the inverse rows or, on the
        # projection path, off ||row k of A^-1|| = 1 / d_k; a crossing
        # either way refreshes, and on the inverse path so does a NaN or
        # infinite estimate (it is not below)
        below = math.sqrt(self.arr.shape[0] * sum_sq) <= tol.DISTANCE_FALLBACK_KAPPA
        if self.since_refresh >= tol.INVERSE_REFRESH_STEPS or below == (inv is None):
            self._refresh()
        if self.inv is None:
            self.fallbacks += 1


def _step(state: _ChainState, rng: np.random.Generator):
    """Advance the chain state by one step of the process, in place.

    Samples the pair (i, j), replaces column i by its unit component
    orthogonal to column j, updates the kept Gram and distances, and
    returns ((i, j), c, c2, nu, phi) with the coefficients of _orth_column
    and the new potential. A degenerate pair raises DegeneratePairError
    before the state is touched.
    """
    arr = state.arr
    i, j = _draw_pair(arr.shape[0], state.kind, rng, state.gram)
    new_col, c, c2, nu = _orth_column(arr, i, j)
    arr[:, i] = new_col
    state.update(i, j, c + c2, nu)
    return (i, j), c, c2, nu, state.phi


@dataclass
class Trajectory:
    """Record of one chain run, stored by column.

    phi[t] is the potential after t steps (steps + 1 entries, t = 0 the
    start); pairs[t - 1] is the ordered pair drawn at step t and
    inner_abs[t - 1] the magnitude |c| of its projection coefficient.
    snapshots[k] is the full diagnostic snapshot at step grid[k] of the
    record grid. The trajectory of an aborted chain holds the prefix
    recorded before the abort. t_star, monotonicity_violations and
    worst_phi_rise are read off phi. inverse_refreshes, projection_fallbacks
    and worst_refresh_drift are the step kernel's counters (see _ChainState).
    """

    n: int
    phi: np.ndarray
    pairs: np.ndarray
    inner_abs: np.ndarray
    grid: list[int]
    snapshots: list[MetricsSnapshot]
    final_matrix: ColumnMatrix | None = None
    inverse_refreshes: int = 0
    projection_fallbacks: int = 0
    worst_refresh_drift: float = 0.0

    @property
    def t_star(self) -> int | None:
        return detect_t_star(self)

    @property
    def _phi_rises(self) -> np.ndarray:
        # every one-step rise of phi beyond the 1e-10 slack, in step order
        rise = self.phi[1:] - self.phi[:-1]
        return rise[self.phi[1:] > self.phi[:-1] + tol.MONOTONE_ABS]

    @property
    def monotonicity_violations(self) -> int:
        return int(self._phi_rises.size)

    @property
    def worst_phi_rise(self) -> float:
        return float(self._phi_rises.max(initial=0.0))


def detect_t_star(traj: Trajectory) -> int | None:
    """First step index with phi strictly below (log2/2) n, if any."""
    if len(traj.phi) == 0:
        raise UsageError("trajectory has no recorded steps")
    below = np.flatnonzero(traj.phi < inflection(traj.n))
    return int(below[0]) if below.size else None


def _record_grid(steps: int, stride: int, stride_name: str = "metrics_stride") -> list[int]:
    """Steps that get a full snapshot: every multiple of stride, and the last.

    stride_name is how a bad stride is named in the error.
    """
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    if stride < 1:
        raise UsageError(f"{stride_name} must be >= 1, got {stride}")
    grid = list(range(0, steps + 1, stride))
    if grid[-1] != steps:
        grid.append(steps)
    return grid


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
    grid = _record_grid(steps, metrics_stride)
    if kind not in SAMPLER_KINDS:
        raise UsageError(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")

    rng = make_rng(seed)
    cur = np.array(A0.array, order="F")
    state = _ChainState(cur, kind)
    on_grid = set(grid)
    phi = np.empty(steps + 1)
    pairs = np.empty((steps, 2), dtype=np.intp)
    inner_abs = np.empty(steps)
    snapshots: list[MetricsSnapshot] = []

    def matrix() -> ColumnMatrix:
        return ColumnMatrix._wrap(np.array(cur, order="F"), A0.field)

    def recorded(last: int) -> Trajectory:
        return Trajectory(
            A0.n, phi[: last + 1], pairs[:last], inner_abs[:last],
            grid[: len(snapshots)], snapshots, matrix(),
            state.refreshes, state.fallbacks, state.worst_drift,
        )

    phi[0] = state.phi
    snapshots.append(snapshot(matrix()))
    for t in range(1, steps + 1):
        try:
            pairs[t - 1], c, _, _, phi[t] = _step(state, rng)
        except DegeneratePairError as exc:
            raise ChainAbortError(t, exc.pair, exc.inner_abs, recorded(t - 1)) from exc
        inner_abs[t - 1] = abs(c)
        if t in on_grid:
            snapshots.append(snapshot(matrix()))
    return recorded(steps)


@dataclass
class EnsembleStats:
    """Per-recorded-step aggregates across replicates, plus bound curves.

    The rows are the record grid of the chains. exceed is True where
    mean_phi - 2 stderr_phi rises above the closed-form expectation bound
    evaluated at phi0 (the bound constrains the true mean; two standard
    errors is the Monte Carlo allowance). The comparison carries a 1e-12
    float allowance: at t = 0 both sides equal phi0 analytically but are
    computed by different double-precision routes, and a strict
    comparison would flag ulp-level noise. The kernel counters are summed
    over the kept replicates, the refresh drift is their maximum.
    """

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
    inverse_refreshes: int
    projection_fallbacks: int
    worst_refresh_drift: float


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
    refreshes = fallbacks = 0
    worst_drift = 0.0
    for r in range(replicates):
        try:
            traj = run_chain(A0, steps, kind, derive_replicate_seed(base_seed, r), metrics_stride)
        except ChainAbortError:
            aborts += 1
            continue
        if trajectory_sink is not None:
            trajectory_sink(r, traj)
        phi_rows.append(traj.phi[grid])
        log_kappa_rows.append([np.log(s.kappa) for s in traj.snapshots])
        t_stars.append(traj.t_star)
        violations += traj.monotonicity_violations
        refreshes += traj.inverse_refreshes
        fallbacks += traj.projection_fallbacks
        worst_drift = max(worst_drift, traj.worst_refresh_drift)
        if phi0 is None:
            phi0 = float(traj.phi[0])

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
        inverse_refreshes=refreshes,
        projection_fallbacks=fallbacks,
        worst_refresh_drift=worst_drift,
    )
