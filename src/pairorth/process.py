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
alone and recomputes d_j by one QR per step. run_ensemble steps chunks of
uniform replicates as one _ChainStack: the same update over an (R, n, n)
stack with the scalar kernel's reductions row by row, so every replicate
gets the bits run_chain gives its seed. The update rules, the refresh
policy, the measured drift and the stack's selection rule are in README,
"How the step kernel keeps phi".

All randomness flows from explicit 64-bit seeds through a counter-based
generator (Philox). Replicate seeds are derived from the base seed with a
splittable scheme, never by sequential reuse; each replicate depends only
on its own seed, and results reach a trajectory sink in replicate order,
chunk by chunk.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .bounds import inflection, theorem7_bound
from .errors import ChainAbortError, DegeneratePairError, PairOrthError, UsageError
from .matrix import REAL, ColumnMatrix, PairIndex, _orth_column
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


def _draw_pair(n: int, kind: str, rng: np.random.Generator, gram=None) -> tuple[PairIndex, bool]:
    """The pair, and whether the proportional sampler fell back to uniform.

    gram is A^H A; the uniform sampler does not read it.
    """
    if kind == UNIFORM:
        k = int(rng.integers(n * (n - 1)))
        i = k // (n - 1)
        j = k % (n - 1)
        return (i, j + 1 if j >= i else j), False
    g = np.abs(gram)
    if kind == GREEDY:
        # |<a_i, a_j>| is symmetric, so a row-major argmax over the strict
        # upper triangle breaks ties by smallest i then j, never lands on
        # the diagonal and ignores the roundoff between (i, j) and (j, i)
        rows, cols = np.triu_indices(n, 1)
        k = int(np.argmax(g[rows, cols]))
        return (int(rows[k]), int(cols[k])), False
    np.fill_diagonal(g, 0.0)
    if kind == PROPORTIONAL:
        if g.max() < tol.PROPORTIONAL_FALLBACK_ABS:
            return _draw_pair(n, UNIFORM, rng)[0], True
        w = (g * g).ravel()
        k = int(rng.choice(n * n, p=w / w.sum()))
        return (k // n, k % n), False
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
    return _draw_pair(A.n, kind, rng, gram)[0]


class _ChainState:
    """Working state of one chain for the step kernel.

    arr is the matrix (F-order, updated in place) and d its distances,
    phi their potential. While the inverse path holds, inv is A^-1
    (C-order, so its rows are contiguous) and row_sq the squared norms of
    its rows; both are None on the projection path, where a step keeps d
    and recomputes only d_j by one QR. gram is A^H A for the proportional
    and greedy samplers, None for uniform. refreshes counts the full
    recomputes made by steps, fallbacks the steps whose distances came
    from the projection path, worst_drift is the largest
    |phi_kept - phi_full| seen at a refresh, on either path, and
    uniform_fallbacks counts the proportional draws that fell back to
    uniform.
    """

    def __init__(self, arr: np.ndarray, kind: str):
        self.arr = arr
        self.kind = kind
        self.gram = None if kind == UNIFORM else _gram(arr)
        self.refreshes = 0
        self.fallbacks = 0
        self.worst_drift = 0.0
        self.uniform_fallbacks = 0
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
        self._settle(sum_sq)

    def _settle(self, sum_sq: float) -> None:
        """End a step whose kept distances give sum_sq = sum_k 1 / d_k^2:
        refresh on the interval or at a crossing, count a projection step."""
        # sqrt(n) ||A^-1||_F, read off the inverse rows or, on the
        # projection path, off ||row k of A^-1|| = 1 / d_k; a crossing
        # either way refreshes, and on the inverse path so does a NaN or
        # infinite estimate (it is not below)
        below = math.sqrt(self.arr.shape[0] * sum_sq) <= tol.DISTANCE_FALLBACK_KAPPA
        if self.since_refresh >= tol.INVERSE_REFRESH_STEPS or below == (self.inv is None):
            self._refresh()
        if self.inv is None:
            self.fallbacks += 1


def _orth_update(state: _ChainState, i: int, j: int):
    """Replace column i of the state by its unit component orthogonal to
    column j and update the kept values; returns (c, c2, nu) of
    _orth_column. A degenerate pair raises DegeneratePairError before the
    state is touched."""
    new_col, c, c2, nu = _orth_column(state.arr, i, j)
    state.arr[:, i] = new_col
    state.update(i, j, c + c2, nu)
    return c, c2, nu


def _step(state: _ChainState, rng: np.random.Generator):
    """Advance the chain state by one step of the process, in place.

    Samples the pair (i, j), replaces column i by its unit component
    orthogonal to column j, updates the kept Gram and distances, and
    returns ((i, j), c, c2, nu, phi) with the coefficients of _orth_column
    and the new potential. A degenerate pair raises DegeneratePairError
    before the state is touched.
    """
    (i, j), fell_back = _draw_pair(state.arr.shape[0], state.kind, rng, state.gram)
    state.uniform_fallbacks += fell_back
    c, c2, nu = _orth_update(state, i, j)
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
    worst_phi_rise are read off phi. inverse_refreshes, projection_fallbacks,
    worst_refresh_drift and uniform_fallbacks are the step kernel's counters
    (see _ChainState).
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
    uniform_fallbacks: int = 0

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
            state.refreshes, state.fallbacks, state.worst_drift, state.uniform_fallbacks,
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


# A chunk of uniform replicates runs as one _ChainStack once it holds this
# many; smaller chunks run replicate by replicate through run_chain. The
# measured crossover is in README, "How the step kernel keeps phi".
STACK_MIN_REPLICATES = 4

# A stacked chunk holds every replicate's record until the chunk ends
# (see _replicate_bytes); chunks are sized to keep that under this budget.
STACK_BYTES = 32 * 2**20


class _ChainStack:
    """Working states of uniform chains from one start, stepped together.

    cols[r] holds replicate r's columns as rows, so cols[r].T is its F-order
    matrix. inv[r], row_sq[r], d[r], phi[r] and since[r] are its kept
    inverse, squared inverse row norms, distances, potential and steps since
    the last full recompute; on_inv[r] says whether it is on the inverse
    path (inv[r] and row_sq[r] are stale while it is not). states[r] is a
    _ChainState over cols[r].T that holds the counters: refreshes and
    projection-path steps run the scalar code through it, with the kept
    values loaded from the stack before and stored back after. The inverse
    path is one vectorized step over the replicates on it, made of the
    scalar kernel's reductions row by row, so every replicate gets the bits
    run_chain gives it.
    """

    def __init__(self, A0: ColumnMatrix, count: int):
        n, dtype = A0.n, A0.array.dtype
        self.n = n
        self.real = A0.field == REAL
        self.cols = np.empty((count, n, n), dtype=dtype)
        self.cols[:] = A0.array.T
        self.inv = np.zeros((count, n, n), dtype=dtype)
        self.row_sq = np.zeros((count, n))
        self.d = np.empty((count, n))
        self.phi = np.empty(count)
        self.since = np.empty(count, dtype=np.intp)
        self.on_inv = np.empty(count, dtype=bool)
        # every replicate starts from A0: recompute once, copy the rest
        first = _ChainState(self.cols[0].T, UNIFORM)
        self.states = [first] + [copy.copy(first) for _ in range(count - 1)]
        for r, state in enumerate(self.states):
            state.arr = self.cols[r].T
            self._store(r)

    def _load(self, r: int) -> _ChainState:
        state = self.states[r]
        state.d = self.d[r]
        state.inv, state.row_sq = (self.inv[r], self.row_sq[r]) if self.on_inv[r] else (None, None)
        state.phi = float(self.phi[r])
        state.since_refresh = int(self.since[r])
        return state

    def _store(self, r: int) -> None:
        state = self.states[r]
        self.d[r] = state.d
        self.on_inv[r] = state.inv is not None
        if state.inv is not None:
            self.inv[r] = state.inv
            self.row_sq[r] = state.row_sq
        self.phi[r] = state.phi
        self.since[r] = state.since_refresh

    def matrix(self, r: int, field: str) -> ColumnMatrix:
        return ColumnMatrix._wrap(np.array(self.cols[r].T, order="F"), field)

    def step(self, pairs: np.ndarray, live: np.ndarray, inner_abs: np.ndarray) -> None:
        """Step every live replicate r with the pair pairs[r] and write |c|
        into inner_abs[r]; a degenerate pair clears live[r] instead, with
        the replicate's state untouched, where run_chain would abort."""
        on_inv = live & self.on_inv
        for r in np.flatnonzero(live & ~on_inv):
            i, j = pairs[r]
            state = self._load(r)
            try:
                c, _, _ = _orth_update(state, int(i), int(j))
            except DegeneratePairError:
                live[r] = False
                continue
            self._store(r)
            inner_abs[r] = abs(c)
        a = np.flatnonzero(on_inv)
        if a.size:
            self._step_inverse(a, pairs[a, 0], pairs[a, 1], live, inner_abs)

    def _step_inverse(self, a, i, j, live, inner_abs) -> None:
        # _orth_column and _ChainState.update for the replicates a, row by
        # row: np.vecdot(x, y) gives the bits of np.vdot(x, y), and the norm
        # is np.linalg.norm's sqrt of a dot (of the real and imaginary parts
        # for complex)
        cols, inv = self.cols, self.inv
        a_i, a_j = cols[a, i], cols[a, j]
        c = np.vecdot(a_j, a_i)
        w = a_i - c[:, None] * a_j
        c2 = np.vecdot(a_j, w)
        w -= c2[:, None] * a_j
        if self.real:
            nu = np.sqrt(np.vecdot(w, w))
            c_abs = np.abs(c)
        else:
            nu = np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))
            # abs() of a complex scalar is hypot; np.abs of an array may
            # differ from it in the last bit
            c_abs = np.hypot(c.real, c.imag)
        ok = (c_abs < 1.0 - tol.DEGENERATE_PAIR_GUARD) & (nu > 0.0) & np.isfinite(nu)
        if not ok.all():
            live[a[~ok]] = False
            a, i, j, c, c2, w, nu, c_abs = (x[ok] for x in (a, i, j, c, c2, w, nu, c_abs))
        cols[a, i] = w / nu[:, None]
        inv_i, inv_j = inv[a, i], inv[a, j]
        inv_j += (c + c2)[:, None] * inv_i
        inv_i *= nu[:, None]
        inv[a, i], inv[a, j] = inv_i, inv_j
        row_sq, d = self.row_sq, self.d
        for k, inv_k in ((i, inv_i), (j, inv_j)):
            sq = np.vecdot(inv_k, inv_k).real
            row_sq[a, k] = sq
            d[a, k] = np.minimum(1.0 / np.sqrt(sq), 1.0)
        self.phi[a] = -np.log(d[a]).sum(axis=1) + 0.0
        sum_sq = row_sq[a].sum(axis=1)
        self.since[a] += 1
        # exactly the replicates whose _settle refreshes
        due = (self.since[a] >= tol.INVERSE_REFRESH_STEPS) | ~(
            np.sqrt(self.n * sum_sq) <= tol.DISTANCE_FALLBACK_KAPPA
        )
        for k in np.flatnonzero(due):
            self._load(a[k])._settle(float(sum_sq[k]))
            self._store(a[k])
        inner_abs[a] = c_abs


def _run_stack(A0: ColumnMatrix, steps: int, seeds: list[int], metrics_stride: int):
    """run_chain(A0, steps, UNIFORM, seed, metrics_stride) for each seed,
    stepped as one _ChainStack: the same trajectories, bit for bit, in seed
    order, with None where run_chain would raise ChainAbortError."""
    grid = _record_grid(steps, metrics_stride)
    on_grid = set(grid)
    n, count = A0.n, len(seeds)
    pairs = np.empty((count, steps, 2), dtype=np.intp)
    for r, seed in enumerate(seeds):
        # one block of draws gives the same integers as run_chain's
        # per-step draws
        i, j = np.divmod(make_rng(seed).integers(n * (n - 1), size=steps), n - 1)
        pairs[r, :, 0] = i
        pairs[r, :, 1] = j + (j >= i)
    phi = np.empty((count, steps + 1))
    inner_abs = np.empty((count, steps))
    live = np.ones(count, dtype=bool)
    stack = _ChainStack(A0, count)
    phi[:, 0] = stack.phi
    snapshots = [[snapshot(stack.matrix(r, A0.field))] for r in range(count)]
    for t in range(1, steps + 1):
        stack.step(pairs[:, t - 1], live, inner_abs[:, t - 1])
        phi[:, t] = stack.phi
        if t in on_grid:
            for r in np.flatnonzero(live):
                snapshots[r].append(snapshot(stack.matrix(r, A0.field)))
    return [
        Trajectory(
            n, phi[r], pairs[r], inner_abs[r], grid, snapshots[r], stack.matrix(r, A0.field),
            state.refreshes, state.fallbacks, state.worst_drift, state.uniform_fallbacks,
        ) if live[r] else None
        for r, state in enumerate(stack.states)
    ]


def _replicate_bytes(n: int, steps: int, snapshots: int) -> int:
    """The record of one replicate: phi, the pair and inner_abs of each
    step, 32 bytes, and each snapshot, measured at 16 n + 420 bytes and
    counted as 16 n + 512."""
    return 32 * steps + (16 * n + 512) * snapshots


def _ensemble_chunks(replicates: int, kind: str, replicate_bytes: int) -> list[tuple[range, bool]]:
    """Replicate index ranges in order, and whether each runs as one stack.

    Uniform replicates are split into the fewest chunks of near-equal size
    whose records fit STACK_BYTES; a chunk smaller than
    STACK_MIN_REPLICATES, and every other sampler, runs replicate by
    replicate.
    """
    cap = STACK_BYTES // replicate_bytes
    if kind != UNIFORM or cap < STACK_MIN_REPLICATES:
        return [(range(replicates), False)]
    size = -(-replicates // -(-replicates // cap))  # ceil(R / ceil(R / cap))
    chunks = [range(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]
    return [(chunk, len(chunk) >= STACK_MIN_REPLICATES) for chunk in chunks]


def _replicate_runs(A0, steps, kind, replicates, base_seed, metrics_stride):
    """(r, trajectory of replicate r, or None if it aborted), in index order."""
    snapshots = len(_record_grid(steps, metrics_stride))
    for chunk, stacked in _ensemble_chunks(replicates, kind, _replicate_bytes(A0.n, steps, snapshots)):
        seeds = [derive_replicate_seed(base_seed, r) for r in chunk]
        if stacked:
            yield from zip(chunk, _run_stack(A0, steps, seeds, metrics_stride))
            continue
        for r, seed in zip(chunk, seeds):
            try:
                yield r, run_chain(A0, steps, kind, seed, metrics_stride)
            except ChainAbortError:
                yield r, None


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
    uniform_fallbacks: int


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

    Replicate r runs with seed derive_replicate_seed(base_seed, r) and
    gives the trajectory run_chain gives for that seed, bit for bit.
    Replicates run in chunks, in index order: a uniform chunk of at least
    STACK_MIN_REPLICATES replicates steps as one stack, any other runs
    replicate by replicate, and chunks are sized so that a stack's records
    fit STACK_BYTES. Aborted replicates are excluded and counted; more than 1%
    aborting fails the whole run. trajectory_sink, when given, receives
    (replicate_index, trajectory) for each kept replicate, in index order,
    as each chunk finishes.
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
    refreshes = fallbacks = uniform_fallbacks = 0
    worst_drift = 0.0
    for r, traj in _replicate_runs(A0, steps, kind, replicates, base_seed, metrics_stride):
        if traj is None:
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
        uniform_fallbacks += traj.uniform_fallbacks
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
        uniform_fallbacks=uniform_fallbacks,
    )
