"""The stochastic process: pair samplers, chain runner, ensembles.

A chain starts from a unit-column matrix, repeatedly samples an ordered
pair (i, j) and orthogonalizes column i against column j. The potential
phi = -sum_j log d_j is recorded after every step; the smallest singular
value, the condition number and ||A^H A - I||_F are recorded on the record
grid, every multiple of a stride plus the last step.

One kernel, _ChainStack, keeps R >= 1 chains from one start as (R, ...)
arrays and steps them together: run_chain is a stack of one,
run_ensemble runs one stack per chunk of replicates, and the Kaczmarz
co-solver drives a stack of one. Per chain it keeps the inverse (two rows
move per step) and the distances, or above the 1e8 condition estimate the
distances alone, and for the proportional and greedy samplers the weights
|G|^2 of the Gram matrix G. A chain recomputes them when a running bound
on its rounding comes due at a checkpoint, when its estimate crosses 1e8
or, on the projection path, when it falls by a factor n. Every path that
steps a chain gives it the bits of the scalar step, _ChainStack.orth,
alone, and a grid record the bits of the call on its matrix alone. The
rules, and the path map of what selects each path, are in
README, "How the step kernel keeps phi".

All randomness flows from explicit 64-bit seeds through a counter-based
generator (Philox). Replicate seeds are derived from the base seed with a
splittable scheme (SeedSequence spawn keys, computed for a whole chunk at
once), never by sequential reuse; each replicate depends only on its own
seed. A uniform stack draws every chain's pairs up front from one Philox,
re-keyed to each chain's seed. run_ensemble summarizes each stack from its
arrays, and builds a chain's Trajectory only for a trajectory sink, which
gets them in replicate order, chunk by chunk.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tolerances as tol
from .bounds import inflection, theorem7_bound
from .errors import (ChainAbortError, DegeneratePairError, PairOrthError, SingularityError,
                     UsageError)
from .matrix import (REAL, ColumnMatrix, PairIndex, _count, _gram_offdiag_fro, _integer,
                     _orth_column, _sq_norms, _vdot, gram_offdiag_fro)
from .metrics import (_distances_full, _pair_distances, _phi_from_distances, _start_distances,
                      condition_number)

UNIFORM = "uniform"
PROPORTIONAL = "proportional"
GREEDY = "greedy"

SAMPLER_KINDS = (UNIFORM, PROPORTIONAL, GREEDY)

_EPS = float(np.finfo(float).eps)


def _check_seed(seed: int) -> int:
    if not (_integer(seed) and 0 <= int(seed) < 2**64):
        raise UsageError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(seed))))


def derive_replicate_seed(base_seed: int, r: int) -> int:
    """64-bit seed for replicate r, split off the base seed: the state
    np.random.SeedSequence(entropy=base_seed, spawn_key=(r,)) generates as
    one uint64, by _replicate_seeds below 2**32 and by SeedSequence above."""
    r = _count("replicate index", r, 0)
    if r < 2**32:
        return _replicate_seeds(base_seed, r)
    ss = np.random.SeedSequence(entropy=_check_seed(base_seed), spawn_key=(r,))
    return int(ss.generate_state(1, np.uint64)[0])


# numpy's SeedSequence: its k-th hash of a pool word (A) or an output word
# (B) xors INIT * MULT^k and multiplies by INIT * MULT^(k + 1), mod 2**32
_HASH_A, _HASH_B = ([init * pow(mult, k, 2**32) % 2**32 for k in range(19)]
                    for init, mult in ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)))


def _hash(x, consts: list[int], k: int):
    x = (x ^ consts[k]) * consts[k + 1] & 0xFFFFFFFF
    return x ^ x >> 16


def _mix(x, y):
    x = (0xCA01F9DD * x - 0x4973F715 * y) & 0xFFFFFFFF
    return x ^ x >> 16


def _replicate_seeds(base_seed: int, rs):
    """derive_replicate_seed(base_seed, r) for each r of rs, 0 <= r < 2**32,
    in the same arithmetic for one Python int or a uint64 array of them.
    The entropy is the base's two words padded to four, then r: the four
    fill the pool and mix into each other, then r mixes into each word."""
    base = _check_seed(base_seed)
    pool = [_hash(w, _HASH_A, k) for k, w in enumerate((base & 0xFFFFFFFF, base >> 32, 0, 0))]
    others = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for k, (src, dst) in enumerate(others, 4):
        pool[dst] = _mix(pool[dst], _hash(pool[src], _HASH_A, k))
    # one uint64 of state is pool words 0 and 1, which r mixes into by hashes 16 and 17
    lo, hi = (_hash(_mix(pool[k], _hash(rs, _HASH_A, 16 + k)), _HASH_B, k) for k in range(2))
    return lo | hi << 32


@functools.cache
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, row-major."""
    return np.triu_indices(n, 1)


_ones = functools.cache(np.ones)  # the vector of a product's row sums, w.dot(_ones(n))


def _weights(gram: np.ndarray) -> np.ndarray:
    """The weights |gram|^2 of the proportional and greedy samplers, with a
    zero diagonal."""
    w = np.abs(gram)
    w *= w
    np.fill_diagonal(w, 0.0)
    return w


def _draw_pair(n: int, kind: str, rng: np.random.Generator, w=None) -> tuple[PairIndex, bool]:
    """The pair, and whether the proportional sampler fell back to uniform:
    sample_pair's law and stream, off w = _weights(A^H A) (None for uniform).
    A proportional draw searches the row sums of one product, w @ 1, as
    _exact_pair searches its own, and keeps the pair where x lies farther than
    _certified's margin from every boundary around it; elsewhere _exact_pair decides."""
    if kind == UNIFORM:
        return _uniform_pairs(n, rng), False
    if kind == GREEDY:
        # w is symmetric, so a row-major argmax over the strict upper
        # triangle breaks ties by smallest i then j and never lands on the
        # diagonal
        rows, cols = _upper_triangle(n)
        k = int(np.argmax(w[rows, cols]))
        return (int(rows[k]), int(cols[k])), False
    if kind == PROPORTIONAL:
        cdf = np.add.accumulate(w.dot(_ones(n)))
        total = cdf.item(-1)
        margin, sure, below = _certified(n, total)
        if not sure:
            return _exact_pair(n, rng, w)
        if below and math.sqrt(w.max()) < tol.PROPORTIONAL_FALLBACK_ABS:
            return _uniform_pairs(n, rng), True
        u = rng.random()
        x = u * total
        i = int(cdf.searchsorted(x, "right"))  # i < n: x < total
        row, r = np.add.accumulate(w[i]), x - (cdf.item(i - 1) if i else 0.0)
        j = int(row.searchsorted(r, "right"))
        if j < n and min(r - (row.item(j - 1) if j else 0.0), cdf.item(i) - x,
                         row.item(j) - r) > margin:
            return (i, j), False
        return _exact_pair(n, rng, w, u)
    raise UsageError(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")


def _certified(n: int, total):
    """(margin, sure, below) off a total of product row sums, a float or an array: the
    margin 8 n eps total, whether the total is finite and farther than the margin from
    the fallback's 4 n^2 1e-30, and whether it lies below it. Summing k nonnegative
    terms in any order errs by at most gamma_k = k u / (1 - k u) of their sum, so both
    rules' prefix sums lie within gamma_2n of the true ones and their comparisons differ
    by at most (4 n + 2) eps total, below the margin for n >= 2 (README, "The samplers")."""
    margin, bound = 8 * n * _EPS * total, 4 * n * n * tol.PROPORTIONAL_FALLBACK_ABS**2
    return margin, abs(total - bound) > margin, total < bound  # NaN and inf are not sure


def _exact_pair(n: int, rng, w, u=None) -> tuple[PairIndex, bool]:
    """The proportional rule, with the double u if drawn: x = u total picks the row by
    a search of the cumulative pairwise row sums of w, then the column by one of that
    row's cumulative sum, the pair rng.choice(n * n, p=w.ravel() / w.sum()) would give
    unless x lands within roundoff of a boundary."""
    row_cdf = np.add.reduce(w, axis=1).cumsum()
    # sqrt(fl(g * g)) == g, so the fallback is max |g| < 1e-15; such a w sums
    # below 4 n^2 1e-30 and a NaN fails both, so w.max() is read only there
    small = tol.PROPORTIONAL_FALLBACK_ABS
    if u is None and row_cdf[-1] < 4 * n * n * small * small and math.sqrt(w.max()) < small:
        return _uniform_pairs(n, rng), True
    # u < 1 rounds u * total below total, so the row search stays
    # inside; a search lands where its cdf rises, on a positive weight
    x = (rng.random() if u is None else u) * row_cdf[-1]
    i = int(row_cdf.searchsorted(x, "right"))
    j = int(w[i].cumsum().searchsorted(x - (row_cdf[i - 1] if i else 0.0), "right"))
    if j == n:
        # the row's own sum fell short of x by roundoff
        j = int(np.flatnonzero(w[i])[-1])
    return (i, j), False


def _draw_pairs(kind: str, rngs, w: np.ndarray, rs: list[int]):
    """_draw_pair for each chain r of rs, off w[r] and from rngs[r], in one call:
    (pairs, fell_back) in the order of rs. Greedy takes one argmax over the stacked
    upper triangles; proportional certifies every draw off one batched product and
    runs _exact_pair only for the chains it cannot certify."""
    n, count = w.shape[-1], len(rs)
    w, at = (w if count == len(w) else w[rs]), np.arange(count)  # a view while all draw
    if kind == GREEDY:
        rows, cols = _upper_triangle(n)
        k = w.reshape(count, n * n).take(rows * n + cols, axis=1).argmax(axis=1)
        return np.stack((rows[k], cols[k]), axis=1), np.zeros(count, dtype=bool)
    # cdf[:, k + 1] and sums[:, k + 1] are the cumulative sums through row or entry k
    cdf, sums = np.zeros((2, count, n + 1))
    np.add.accumulate(w.reshape(-1, n).dot(_ones(n)).reshape(count, n), axis=1, out=cdf[:, 1:])
    margin, sure, fell = _certified(n, cdf[:, n])
    fell &= sure
    if low := fell.any():
        fell[fell] = np.sqrt(w[fell].max(axis=(1, 2))) < tol.PROPORTIONAL_FALLBACK_ABS
    drawn = sure & ~fell
    # each chain's uniform integer, its double, or a NaN, whose x fails every test below
    u = np.array([rngs[r].integers(n * (n - 1)) if f else rngs[r].random() if d else math.nan
                  for r, f, d in zip(rs, fell.tolist(), drawn.tolist())])
    x = u * cdf[:, n]
    # a search past the last boundary is clamped onto it and fails its test
    i = np.minimum(np.add.reduce(cdf[:, 1:] <= x[:, None], axis=1), n - 1)
    r = x - cdf[at, i]
    np.add.accumulate(w[at, i], axis=1, out=sums[:, 1:])
    j = np.minimum(np.add.reduce(sums[:, 1:] <= r[:, None], axis=1), n - 1)
    gap = np.minimum(np.minimum(r - sums[at, j], cdf[at, i + 1] - x), sums[at, j + 1] - r)
    pairs, ok = np.stack((i, j), axis=1), drawn & (gap > margin)
    if low:  # _uniform_pairs of the integers
        i, j = np.divmod(u[fell].astype(np.intp), n - 1)
        pairs[fell] = np.stack((i, j + (j >= i)), axis=1)
    for k in np.flatnonzero(~(ok | fell)).tolist():
        pairs[k], fell[k] = _exact_pair(n, rngs[rs[k]], w[k], u[k] if drawn[k] else None)
    return pairs, fell


def sample_pair(A: ColumnMatrix, kind: str, rng: np.random.Generator) -> PairIndex:
    """Draw one ordered pair (i, j); column i is the one to replace.

    uniform: each of the n(n-1) ordered pairs with equal probability.
    proportional: pair probability proportional to |<a_i, a_j>|^2, falling
    back to uniform when every off-diagonal inner product is below 1e-15.
    greedy: deterministic argmax of |<a_i, a_j>|, ties broken by smallest
    i then smallest j; it compares the squares |<a_i, a_j>|^2, so two values
    that square to the same double (within an ulp of each other, or below
    about 1e-154) count as a tie.

    Each call takes from rng what a chain's step takes: one integer for
    uniform, nothing for greedy, and for proportional exactly one double
    (rng.random()), the one rng.choice(n * n, p=...) would take, or the
    uniform integer when it falls back.
    """
    w = None if kind == UNIFORM else _weights(A.array.conj().T @ A.array)
    return _draw_pair(A.n, kind, rng, w)[0]


def _uniform_pairs(n: int, rng: np.random.Generator, count: int | None = None):
    """count uniform pairs as a (count, 2) array, or one pair (i, j) for count
    None, from the integers k of count one-draw calls: i = k // (n - 1) and
    j = k % (n - 1), plus one where j >= i."""
    i, j = divmod(rng.integers(n * (n - 1), size=count), n - 1)
    j += j >= i
    return (int(i), int(j)) if count is None else np.stack((i, j), axis=-1)


# A step updates the chains on the inverse path as one vectorized step once
# at least this many are; fewer step one by one. The measured crossover is
# in README, "The path map".
STACK_MIN_REPLICATES = 4

# A larger stack steps by stretch only up to this n: at n = 128 its saved rows and
# read-off cost more than its steps save (README, "Known limits").
STACK_STRETCH_MAX_N = 64

# Ensemble chunks are sized so that a stack's working arrays and records
# (_replicate_bytes per chain) fit this budget.
STACK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class KernelStats:
    """What the step kernel did to keep phi, for one chain or summed over
    many: full recomputes, steps on the projection path, the largest
    |phi_kept - phi_full| at a refresh (either path), proportional draws
    that fell back to uniform, and the largest running drift bound (either path)."""

    inverse_refreshes: int = 0
    projection_fallbacks: int = 0
    worst_refresh_drift: float = 0.0
    uniform_fallbacks: int = 0
    worst_drift_bound: float = 0.0

    @classmethod
    def total(cls, parts: list[KernelStats]) -> KernelStats:
        """The counts summed, the largest drift and bound over parts; zeros for none."""
        return cls(*(max((getattr(p, f.name) for p in parts), default=0.0)
                     if isinstance(f.default, float) else sum(getattr(p, f.name) for p in parts)
                     for f in fields(cls)))


class _ChainStack:
    """Working states of R >= 1 chains from one start, stepped together.

    cols[r] holds chain r's columns as rows, so cols[r].T is its F-order
    matrix, updated in place. d[r] are its distances and phi[r] their
    potential. While on_inv[r] holds, inv[r] is its A^-1 (rows contiguous)
    and row_sq[r] the squared norms of those rows; on the projection path
    both are stale, and a step keeps d[r] but d_i and d_j, read off one QR.
    w[r] is _weights(A^H A) for the proportional and greedy samplers (kind; w is None
    for uniform), first from the start's ColumnMatrix._kept_gram, then updated in row and
    column i from one product per step; since[r] counts the steps since the last full
    recompute, est0[r] is the condition estimate sqrt(n sum_k 1 / d_k^2) there and
    est_sum[r] sums it over the steps since; refreshes, fallbacks, worst_drift,
    uniform_fallbacks and worst_bound make counters(r). t counts the stack's
    steps; a degenerate pair clears live[r] and keeps (t, its
    DegeneratePairError) in aborts[r], with chain r untouched.
    _plan is step's _split, None once a chain refreshes, crosses or retires. rows[r] is
    chain r's _views, None until its first scalar step. Every stretch, vectorized step and
    co-solver block ends in _settle_all, orth in _settle: the same refresh rule.
    Which method steps which chains, and why: README, "The path map".
    """

    def __init__(self, A0: ColumnMatrix, count: int, kind: str = UNIFORM):
        n, dtype = A0.n, A0.array.dtype
        self.n, self.count, self.field, self.kind = n, count, A0.field, kind
        self.cols = np.empty((count, n, n), dtype=dtype)
        self.cols[:] = A0.array.T
        self.inv = np.empty((count, n, n), dtype=dtype)
        self.row_sq, self.d = np.empty((count, n)), np.empty((count, n))
        self.phi, self.est0 = np.empty(count), np.empty(count)
        self.since = np.empty(count, dtype=np.intp)
        self.on_inv = np.empty(count, dtype=bool)
        self.w = None if kind == UNIFORM else np.empty((count, n, n))
        self.refreshes, self.fallbacks, self.uniform_fallbacks = np.zeros((3, count), dtype=np.intp)
        self.worst_drift, self.worst_bound, self.est_sum = np.zeros((3, count))
        self.live, self.t = np.ones(count, dtype=bool), 0
        self.aborts: dict[int, tuple[int, DegeneratePairError]] = {}
        self._all = np.arange(count)
        self.rows = [None] * count
        # every chain starts from A0: its kept distances and Gram, to all
        self._recompute(slice(None), _start_distances(A0))
        if self.w is not None:
            self.w[:] = _weights(A0._kept_gram())

    def _views(self, r: int):
        # chain r's matrix, d, inv, row_sq and w: views that the scalar code
        # updates in place
        self.rows[r] = (self.cols[r].T, self.d[r], self.inv[r], self.row_sq[r],
                        None if self.w is None else self.w[r])
        return self.rows[r]

    def matrix(self, r: int) -> ColumnMatrix:
        return ColumnMatrix._wrap(np.array(self.cols[r].T, order="F"), self.field)

    def counters(self, rs) -> KernelStats:
        """Chain rs's KernelStats, or for indices rs their KernelStats.total."""
        bound = np.fmax(self.worst_bound[rs], _EPS * self.est_sum[rs])
        return KernelStats(int(self.refreshes[rs].sum()), int(self.fallbacks[rs].sum()),
                           float(self.worst_drift[rs].max(initial=0.0)),
                           int(self.uniform_fallbacks[rs].sum()), float(bound.max(initial=0.0)))

    def _recompute(self, rs, full=None) -> None:
        # chains rs (indices, or a slice for one chain: a view, where an index
        # copy slows inv at n = 128), from full if given (stacks of one, put to
        # every chain of rs); off the inverse path, inv is stale
        inv, row_norms, d, on_inv = _distances_full(self.cols[rs].mT) if full is None else full
        self.inv[rs], self.row_sq[rs], self.on_inv[rs] = inv, row_norms * row_norms, on_inv
        self.d[rs], self.phi[rs], self.since[rs] = d, -np.log(d).sum(axis=1) + 0.0, 0
        self.est0[rs], self.est_sum[rs] = np.sqrt(self.n * (1.0 / (d * d)).sum(axis=1)), 0.0
        self._plan = None

    def _refresh(self, rs) -> None:
        phi_kept = self.phi[rs].copy()
        self.worst_bound[rs] = np.fmax(self.worst_bound[rs], _EPS * self.est_sum[rs])
        self._recompute(rs)
        self.refreshes[rs] += 1
        # fmax keeps a NaN phi out of the drift, as max() did, and a NaN est_sum out of the bound
        self.worst_drift[rs] = np.fmax(self.worst_drift[rs], np.abs(phi_kept - self.phi[rs]))

    def orth(self, r: int, i: int, j: int):
        """Replace column i of chain r by its unit component orthogonal to
        column j and update its kept values; returns (c, c2, nu) of
        _orth_column. A degenerate pair raises DegeneratePairError before
        the chain is touched."""
        c, c2, nu, new = self._move(r, i, j)
        _, d, _, row_sq, _ = self.rows[r]
        self.since[r] += 1
        if self.on_inv[r]:
            row_sq[i], row_sq[j] = new
            d[i], d[j] = min(1.0 / math.sqrt(new[0]), 1.0), min(1.0 / math.sqrt(new[1]), 1.0)
            sum_sq = float(np.add.reduce(row_sq))
        else:
            d[i], d[j] = new
            sum_sq = float(np.add.reduce(1.0 / (d * d)))
        self.phi[r] = _phi_from_distances(d)
        self._settle(r, sum_sq)
        return c, c2, nu

    def _move(self, r: int, i: int, j: int):
        """orth's updates that chain r's next step reads (column i, row and
        column i of w, rows i and j of inv on the inverse path): (c, c2, nu)
        and the new (row_sq[i], row_sq[j]), or (d_i, d_j) off the inverse path."""
        arr, _, inv, _, w = self.rows[r] or self._views(r)
        c, c2, nu = _orth_column(arr, i, j)
        if w is not None:
            # row i of A^H A, so row and column i of _weights(A^H A), bit for
            # bit: |conj(z)| = |z|
            row_w = np.abs(arr[:, i].conj() @ arr)
            row_w *= row_w
            row_w[i] = 0.0
            w[i, :] = w[:, i] = row_w
        if not self.on_inv[r]:
            # span{a_i', a_j} = span{a_i, a_j}: d_k for k not in {i, j} stays
            return c, c2, nu, _pair_distances(arr, i, j)
        inv_i, inv_j = inv[i], inv[j]
        inv_j += (c + c2) * inv_i
        inv_i *= nu
        return c, c2, nu, (_vdot(inv_i, inv_i).real, _vdot(inv_j, inv_j).real)

    def _settle(self, r: int, sum_sq: float) -> None:
        """End a step of chain r whose kept distances give
        sum_sq = sum_k 1 / d_k^2: refresh, count a projection step."""
        # sqrt(n) ||A^-1||_F, off the inverse rows, or off ||row k of A^-1||
        # = 1 / d_k on the projection path. On either path a crossing refreshes,
        # and a bound come due at a checkpoint; on the inverse path so does a NaN
        # or infinite estimate (not below), on the projection path a fall below
        # est0 / n: a kept d_k errs by eps kappa at est0, the slack is n eps kappa
        est = math.sqrt(self.n * sum_sq)
        below = est <= tol.DISTANCE_FALLBACK_KAPPA
        self.est_sum[r] += est
        at = self.since[r] % tol.INVERSE_REFRESH_STEPS == 0  # spares _comes_due's arrays
        crossed = (not below) if self.on_inv[r] else (below or self.n * est < self.est0[r])
        if crossed or (at and self._comes_due(r, est)):
            self._refresh(slice(r, r + 1))
        if not self.on_inv[r]:
            self.fallbacks[r] += 1

    def _settle_all(self, rs, est) -> None:
        """_settle for chains rs on one path, whose step gave the estimates est, as
        arrays: the chains due refresh through one _refresh."""
        self.est_sum[rs] += est
        below, on_inv = est <= tol.DISTANCE_FALLBACK_KAPPA, self.on_inv[rs][0]
        due = ~below if on_inv else below | (self.n * est < self.est0[rs])
        if 0 in (self.since[rs] % tol.INVERSE_REFRESH_STEPS).tolist():  # spares _comes_due's arrays
            due |= self._comes_due(rs, est)
        if due.any():
            self._refresh(self._all[rs][due])
        elif on_inv:
            return  # only a refresh takes a chain off the inverse path
        self.fallbacks[rs] += ~self.on_inv[rs]

    def _comes_due(self, rs, est):
        # B = eps est_sum bounds the drift of the kept log d_k (a step's rounding moves
        # them by about eps est); at a multiple of K = INVERSE_REFRESH_STEPS steps since
        # the recompute, due if B (since + K) / since reaches n max(1e-8, n eps est)
        since = self.since[rs]
        at = since % tol.INVERSE_REFRESH_STEPS == 0
        slack = self.n * np.maximum(tol.DISTANCE_METHOD_REL, self.n * _EPS * est)
        return at & (_EPS * self.est_sum[rs] * (since + tol.INVERSE_REFRESH_STEPS) >= since * slack)

    def _to_checkpoint(self, rs) -> int:
        """The steps until the first of chains rs reaches a multiple of INVERSE_REFRESH_STEPS."""
        K = tol.INVERSE_REFRESH_STEPS
        return K - max(s % K for s in self.since[rs].tolist())

    def step(self, pairs: np.ndarray, inner_abs: np.ndarray) -> None:
        """Step every live chain r with the pair pairs[r] and write |c| into
        inner_abs[r]; a degenerate pair retires the chain instead.

        With at least STACK_MIN_REPLICATES live chains on the inverse path,
        those take one vectorized step, whatever the sampler; every other live
        chain runs orth on its own row, and every live chain does where the
        vectorized step meets a degenerate pair.
        """
        if self._plan is None:
            self._plan = self._split()
        self.t += 1
        vectorized, scalar = self._plan
        if vectorized is not None and not self._step_inverse(vectorized, pairs, inner_abs):
            scalar = np.flatnonzero(self.live).tolist()
        for r in scalar:
            i, j = pairs[r].tolist()
            try:
                c, _, _ = self.orth(r, i, j)
            except DegeneratePairError as exc:
                self.live[r], self.aborts[r], self._plan = False, (self.t, exc), None
                continue
            inner_abs[r] = abs(c)

    def _split(self):
        # (the chains of the vectorized step, slice(None) when they are the whole
        # stack, or None; the others)
        on_inv = self.live & self.on_inv
        a = np.flatnonzero(on_inv)
        if a.size < STACK_MIN_REPLICATES:
            return None, np.flatnonzero(self.live).tolist()
        scalar = np.flatnonzero(self.live & ~on_inv).tolist()
        return (slice(None) if a.size == self.count else a), scalar

    def _step_inverse(self, a, pairs, inner_abs) -> bool:
        # orth for the chains a, on the inverse path, one slot each, or False at a degenerate
        # pair. The per-chain arrays take a (views for a slice), the gathers by i and j rows
        rows, ij = self._all[a], pairs[a].T
        try:
            c_abs, sq = self._orth_slots(rows * self.n + ij)
        except DegeneratePairError:
            return False
        self.row_sq[rows, ij] = sq
        if self.w is not None:
            # orth's row and column i of each chain's weights, from one batched product
            i = ij[0]
            row_w = np.abs(self.cols[rows, i][:, None, :].conj() @ self.cols[a].mT)[:, 0]
            row_w *= row_w
            row_w[self._all[:rows.size], i] = 0.0
            self.w[rows, i] = self.w[rows, :, i] = row_w
        # on the inverse path d = min(1 / sqrt(row_sq), 1) bit for bit, since
        # _recompute sets row_sq = row_norms^2 and sqrt(fl(x * x)) = |x|
        row_sq = self.row_sq[a]
        self.d[a] = d = np.minimum(1.0 / np.sqrt(row_sq), 1.0)
        self.phi[a] = -np.add.reduce(np.log(d), axis=1) + 0.0
        self.since[a] += 1
        inner_abs[a] = c_abs
        self._settle_all(a, np.sqrt(self.n * np.add.reduce(row_sq, axis=1)))
        return True

    def _orth_slots(self, at):
        """orth on inverse-path chains, for disjoint slots k: chain r's pair (i, j) as
        at[:, k] = (r n + i, r n + j), its columns' rows of cols and inv taken (-1, n).
        np.vecdot(x, y) gives the bits of np.vdot(x, y), sqrt(_sq_norms) those of _norm.
        Returns |c| and the new row_sq[i] and [j]; a degenerate pair raises
        DegeneratePairError for the first such slot, with nothing written."""
        cols, inv = self.cols.reshape(-1, self.n), self.inv.reshape(-1, self.n)
        a_i, a_j = cols.take(at, axis=0)  # a_i becomes w, then the new column
        c = np.vecdot(a_j, a_i)
        a_i -= c[:, None] * a_j
        c2 = np.vecdot(a_j, a_i)
        a_i -= c2[:, None] * a_j
        nu = np.sqrt(_sq_norms(a_i))
        # abs() of a complex scalar is hypot; np.abs of an array may differ
        # from it in the last bit
        c_abs = np.abs(c) if self.field == REAL else np.hypot(c.real, c.imag)
        # maximum and minimum carry a NaN, which fails each test
        top = 1.0 - tol.DEGENERATE_PAIR_GUARD
        if at.size and not (np.maximum.reduce(c_abs) < top and 0.0 < np.minimum.reduce(nu)
                            and np.maximum.reduce(nu) < math.inf):
            k = np.argmin((c_abs < top) & (0.0 < nu) & (nu < math.inf))
            raise DegeneratePairError(at[:, k] % self.n, c_abs[k])
        a_i /= nu[:, None]
        cols[at[0]] = a_i
        v = inv.take(at, axis=0)
        v[1] += (c + c2)[:, None] * v[0]
        v[0] *= nu[:, None]
        inv[at] = v
        return c_abs, np.vecdot(v, v).real

    def stretch(self, pairs, inner_abs, phi, rngs, stops, record) -> bool:
        """Step the live chains through pairs (a weighted sampler draws them from
        rngs[r] off the kept w), writing |c| and phi, with record(k) after offset
        steps for each (offset, k) of stops: it reads only cols, which no refresh
        touches. A stack of STACK_MIN_REPLICATES or more chains, all live, uniform
        and on the inverse path, takes one _orth_slots a step over them all, up to
        and with its checkpoint step. In a smaller stack, between stops, a uniform
        inverse-path chain goes by level where its levels average
        STACK_MIN_REPLICATES steps (step s takes 1 + the level of its last step on i
        or j, and one _orth_slots a level), any other by one _move a step. _commit
        reads the rest off and settles the last step. False, with chains and rngs as
        they were, where the chains sit on both paths, a pair is degenerate, a QR
        finds A singular or a step before the last would refresh."""
        live, (n, m) = self._all[self.live].tolist(), (self.n, pairs.shape[1])
        on_inv = self.on_inv[self.live].tolist()
        small = self.count < STACK_MIN_REPLICATES
        if min(on_inv) != max(on_inv) or not small and (rngs or sum(on_inv) < self.count):
            return False
        if small:
            # each of the busiest column's steps takes a level
            leveled = [r for r in live if rngs is None and on_inv[0]
                       and np.bincount(pairs[r].ravel()).max() * STACK_MIN_REPLICATES <= m]
            others, ij = [r for r in live if r not in leveled], pairs.tolist()
            saved = [(x, slice(None), x.copy()) for x in (self.cols, self.inv, self.w)
                     if x is not None]
        else:
            # chain r's step s on (i, j) takes rows r n + i and r n + j of cols and inv,
            # flat[s] for every r; a decline puts back the rows they write
            leveled, others = [], []
            flat = (pairs + (self._all * n)[:, None, None]).transpose(1, 2, 0).copy()
            written = np.flatnonzero(np.bincount(flat.ravel()))
            saved = [(x, written, x.take(written, axis=0))
                     for x in (self.cols.reshape(-1, n), self.inv.reshape(-1, n))]
        states = [rngs[r].bit_generator.state for r in live] if rngs else []
        new = np.empty((self.count, m, 2))  # the two values (row_sq or d) each step writes
        fell, lo = [0] * self.count, 0
        try:
            for hi, k in [*stops, (m, None)]:
                levels, moved = {}, others.copy()
                for r in leveled:
                    last, mine = [0] * n, {}
                    for s, (i, j) in enumerate(ij[r][lo:hi], lo):
                        last[i] = last[j] = level = max(last[i], last[j]) + 1
                        if level * STACK_MIN_REPLICATES > hi - lo:
                            moved.append(r)
                            break
                        mine.setdefault(level, []).append((r, s, i, j))
                    else:
                        for level, slots in mine.items():
                            levels.setdefault(level, []).extend(slots)
                # (flat rows, chains, steps) of each _orth_slots: a step of the stack, a level
                slots = [(level[:, 0] * n + level[:, 2:].T, level[:, 0], level[:, 1])
                         for level in map(np.array, levels.values())] if small else [
                    (flat[s], slice(None), s) for s in range(lo, hi)]
                for at, rows, s in slots:
                    c_abs, sq = self._orth_slots(at)
                    inner_abs[rows, s], new[rows, s] = c_abs, sq.T
                for r in moved:
                    pairs_r, abs_r, out = ij[r], inner_abs[r], []
                    for s in range(lo, hi):
                        if rngs is not None:
                            pairs_r[s], fell_back = _draw_pair(n, self.kind, rngs[r], self.w[r])
                            fell[r] += fell_back
                        c, _, _, values = self._move(r, *pairs_r[s])
                        abs_r[s] = abs(c)
                        out.append(values)
                    new[r, lo:hi] = out
                if k is not None:
                    record(k)
                lo = hi
        except (DegeneratePairError, SingularityError, np.linalg.LinAlgError):
            pass
        else:
            if rngs:
                pairs[:] = ij
            # the per-chain arrays take a slice, views, while all are live
            if self._commit(slice(None) if len(live) == self.count else live, pairs, new, phi):
                if rngs:
                    self.uniform_fallbacks += fell
                return True
        for x, at, kept in saved:
            x[at] = kept
        for r, state in zip(live, states):
            rngs[r].bit_generator.state = state
        return False

    def _commit(self, rs, pairs, new, phi) -> bool:
        """Read the rest off a stretch of chains rs on one path, whose step s on
        pairs[r, s] wrote new[r, s] (row_sq or d of its two columns): orth's bits by
        a forward fill, reductions for phi and the estimate, a cumsum for est_sum,
        and _settle_all for the last step. False, with nothing written, where a
        step before the last would refresh."""
        (R, n), m, on_inv = self.d[rs].shape, pairs.shape[1], bool(self.on_inv[rs].all())
        # each chain's start values then its writes, flat, and at[r, s, k] the
        # index of column k's value after step s: the start's or its latest write
        flat = np.concatenate((self.row_sq[rs] if on_inv else self.d[rs],
                               new[rs].reshape(R, 2 * m)), axis=1).ravel()
        ids = np.arange(R * (n + 2 * m)).reshape(R, -1)  # each chain's indices into flat
        at = np.repeat(ids[:, None, :n], m, axis=1)
        np.put(at, pairs[rs] + n * np.arange(R * m).reshape(R, m, 1), ids[:, n:])
        np.maximum.accumulate(at, axis=1, out=at)
        # each value's d and term of sum_sq = sum_k 1 / d_k^2, then each step's
        d = np.minimum(1.0 / np.sqrt(flat), 1.0) if on_inv else flat
        sum_sq = np.add.reduce((flat if on_inv else 1.0 / (d * d)).take(at), axis=-1)
        est = np.concatenate((self.est_sum[rs, None], np.sqrt(n * sum_sq)), axis=1)
        below = est[:, 1:-1] <= tol.DISTANCE_FALLBACK_KAPPA  # est[:, 0] is est_sum
        if not below.all() if on_inv else (below | (n * est[:, 1:-1] < self.est0[rs, None])).any():
            return False
        phi[rs] = -np.add.reduce(np.log(d).take(at), axis=-1) + 0.0
        if on_inv:
            self.row_sq[rs] = flat.take(at[:, -1])
        else:
            self.fallbacks[rs] += m - 1  # the last step's, if any, is _settle_all's
        self.d[rs], self.phi[rs] = d.take(at[:, -1]), phi[rs, -1]
        self.est_sum[rs] = est[:, :-1].cumsum(axis=1)[:, -1]
        self.since[rs] += m
        self.t += m
        self._settle_all(rs, est[:, -1])
        phi[rs, -1] = self.phi[rs]  # a refresh's phi, if any
        return True


@dataclass
class Trajectory:
    """Record of one chain run, stored by column.

    phi[t] is the potential after t steps (steps + 1 entries, t = 0 the
    start); pairs[t - 1] is the ordered pair drawn at step t and
    inner_abs[t - 1] the magnitude |c| of its projection coefficient.
    sigma_min[k], kappa[k] and gram_offdiag[k] are the smallest singular
    value, the condition number and ||A^H A - I||_F after step grid[k] of
    the record grid. The trajectory of an aborted chain holds the prefix
    recorded before the abort. t_star, monotonicity_violations and
    worst_phi_rise are read off phi; kernel is the chain's KernelStats.

    monotonicity_violations counts rises above the absolute 1e-10 slack.
    On projection-path chains phi is accurate only to about n^2 eps kappa,
    so there it also counts rises at roundoff level.
    """

    n: int
    phi: np.ndarray
    pairs: np.ndarray
    inner_abs: np.ndarray
    grid: list[int]
    sigma_min: np.ndarray
    kappa: np.ndarray
    gram_offdiag: np.ndarray
    final_matrix: ColumnMatrix | None = None
    kernel: KernelStats = KernelStats()

    @property
    def t_star(self) -> int | None:
        return detect_t_star(self)

    @property
    def monotonicity_violations(self) -> int:
        return int(np.count_nonzero(_phi_marks(self.phi, self.n)[1]))

    @property
    def worst_phi_rise(self) -> float:
        return float(_phi_marks(self.phi, self.n)[1].max(initial=0.0))


def _phi_marks(phi: np.ndarray, n: int):
    """For phi of shape (..., steps + 1): t_star, the first t with phi[..., t]
    strictly below (log2/2) n, or -1, and each step's rise of phi where it
    exceeds the 1e-10 slack, else 0."""
    below, rise = phi < inflection(n), np.diff(phi)
    return (np.where(below.any(axis=-1), below.argmax(axis=-1), -1) if phi.shape[-1] else -1,
            np.where(phi[..., 1:] > phi[..., :-1] + tol.MONOTONE_ABS, rise, 0.0))


def detect_t_star(traj: Trajectory) -> int | None:
    """First step index with phi strictly below (log2/2) n, if any."""
    if len(traj.phi) == 0:
        raise UsageError("trajectory has no recorded steps")
    t_star = int(_phi_marks(traj.phi, traj.n)[0])
    return t_star if t_star >= 0 else None


def _record_grid(steps: int, stride: int) -> list[int]:
    """Steps whose condition is recorded: every multiple of stride, and the last."""
    steps, stride = _count("steps", steps, 0), _count("metrics_stride", stride, 1)
    grid = list(range(0, steps + 1, stride))
    if grid[-1] != steps:
        grid.append(steps)
    return grid


def _run_stack(A0: ColumnMatrix, steps: int, kind: str, seeds, grid: list[int]):
    """The chains of run_chain(A0, steps, kind, seed) for each seed, with
    records on grid, stepped as one _ChainStack until its last live chain
    retires: (phi, pairs, inner_abs, records, stack), each array by chain in
    seed order and records sigma_min, kappa and gram_offdiag on the grid;
    _chain_result reads one chain off them."""
    if kind not in SAMPLER_KINDS:
        raise UsageError(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")
    n, count = A0.n, len(seeds)
    rng = make_rng(seeds[0])
    rngs = None if kind == UNIFORM else [rng] + [make_rng(seed) for seed in seeds[1:]]
    pairs = np.empty((count, steps, 2), dtype=np.intp)
    if kind == UNIFORM:
        # Philox is counter-based: keyed [seed, 0] at counter 0 with its
        # buffers empty, one generator draws make_rng(seed)'s stream; the
        # integers k map to pairs as in _uniform_pairs, in place
        state = rng.bit_generator.state
        for r, seed in enumerate(seeds):
            if r:
                state["state"]["key"][0] = seed
                rng.bit_generator.state = state
            pairs[r, :, 0] = rng.integers(n * (n - 1), size=steps)
        i, j = np.divmod(pairs[..., 0], n - 1, out=(pairs[..., 0], pairs[..., 1]))
        j += j >= i
    phi = np.empty((count, steps + 1))
    inner_abs = np.empty((count, steps))
    stack = _ChainStack(A0, count, kind)
    phi[:, 0] = stack.phi
    # sigma_min, kappa and gram_offdiag of each chain at each grid point
    records = np.empty((3, count, len(grid)))

    def record(k: int) -> None:
        rs = slice(None) if stack.live.all() else np.flatnonzero(stack.live)  # a view for one
        cols = stack.cols[rs]
        sigma = np.linalg.svd(cols.mT, compute_uv=False)
        records[:, rs, k] = sigma[:, -1], sigma[:, 0] / sigma[:, -1], _gram_offdiag_fro(cols)

    # every chain starts from A0, by condition_number's singular values (the stacked SVD's
    # bits) and gram_offdiag_fro off its kept Gram (the stacked Gram's)
    sigma = condition_number(A0)[1]
    records[..., 0] = np.array([[sigma[-1]], [sigma[0] / sigma[-1]], [gram_offdiag_fro(A0)]])
    # checkpoint to checkpoint (or the end): a stretch of STACK_MIN_REPLICATES steps or more,
    # grid[k:top] recorded inside, or one by one. A stack of fewer chains takes any such
    # stretch; a larger one, n <= STACK_STRETCH_MAX_N, one that ends at a checkpoint
    small, end, k = count < STACK_MIN_REPLICATES, 0, 1
    while end < steps:
        t, end = end, end + stack._to_checkpoint(stack.live)
        by_stretch, end = small or end <= steps and n <= STACK_STRETCH_MAX_N, min(steps, end)
        top = bisect.bisect_left(grid, end, k)
        taken = by_stretch and STACK_MIN_REPLICATES <= end - t and stack.stretch(
            pairs[:, t:end], inner_abs[:, t:end], phi[:, t + 1:end + 1], rngs,
            [(g - t, q) for q, g in enumerate(grid[k:top], k)], record)
        for t in range((end if taken else t) + 1, end + 1):
            if rngs:
                live = np.flatnonzero(stack.live).tolist()
                pairs[live, t - 1], fell = _draw_pairs(kind, rngs, stack.w, live)
                stack.uniform_fallbacks[live] += fell
            stack.step(pairs[:, t - 1], inner_abs[:, t - 1])
            phi[:, t] = stack.phi
            if stack.aborts and not stack.live.any():
                return phi, pairs, inner_abs, records, stack
            if grid[k] == t < end:
                record(k)
                k += 1
        if grid[top] == end:
            record(top)
        k = bisect.bisect_right(grid, end, top)
    return phi, pairs, inner_abs, records, stack


def _chain_result(grid: list[int], run, r: int):
    """Chain r of a _run_stack run: the trajectory run_chain returns for its
    seed, or the ChainAbortError it raises."""
    phi, pairs, inner_abs, records, stack = run
    # an aborted chain keeps the prefix recorded before its failing step
    at, exc = stack.aborts.get(r, (phi.shape[1], None))
    k = bisect.bisect_left(grid, at)
    result = Trajectory(stack.n, phi[r, :at], pairs[r, :at - 1], inner_abs[r, :at - 1], grid[:k],
                        *records[:, r, :k], stack.matrix(r), stack.counters(r))
    if exc is not None:
        result = ChainAbortError(at, exc.pair, exc.inner_abs, result)
        result.__cause__ = exc
    return result


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
    result = _chain_result(grid, _run_stack(A0, steps, kind, [seed], grid), 0)
    if isinstance(result, ChainAbortError):
        raise result
    return result


def _replicate_bytes(n: int, steps: int, grid_points: int) -> int:
    """What a stack holds per replicate: phi, the pair and inner_abs of each
    step, 32 bytes; sigma_min, kappa, gram_offdiag and the grid entry of
    each grid point, 32 bytes; the final matrix, cols and inv, 16 n^2 bytes
    each, and w, 8 n^2: all at the complex size and for every sampler."""
    return 32 * (steps + grid_points) + 56 * n * n


def _ensemble_chunks(replicates: int, replicate_bytes: int) -> list[range]:
    """Replicate index ranges in order, each run as one _ChainStack: the
    fewest chunks of near-equal size whose records fit STACK_BYTES, for
    every sampler, or chunks of one when a single replicate does not fit."""
    cap = max(STACK_BYTES // replicate_bytes, 1)
    size = -(-replicates // -(-replicates // cap))  # ceil(R / ceil(R / cap))
    return [range(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]


@dataclass
class EnsembleStats:
    """Per-recorded-step aggregates across replicates, plus bound curves.

    The rows are the record grid of the chains. exceed is True where
    mean_phi - 2 stderr_phi rises above the closed-form expectation bound
    evaluated at phi0 (the bound constrains the true mean; two standard
    errors is the Monte Carlo allowance). The comparison carries a 1e-12
    float allowance: at t = 0 both sides equal phi0 analytically but are
    computed by different double-precision routes, and a strict
    comparison would flag ulp-level noise. kernel is the KernelStats.total
    of the kept replicates' records.
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
    kernel: KernelStats


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
    Replicates run in chunks, in index order, each as one stack, whatever
    the sampler: chunks are sized so that a stack's records fit
    STACK_BYTES. Each chunk's seeds come from one vectorized call, and its
    summaries (phi on the grid, log kappa, t_star, the phi rises and the
    KernelStats) from the stack's arrays, with the bits the trajectories
    would give. Aborted replicates are excluded and counted; more than 1%
    aborting fails the whole run.
    trajectory_sink, when given, receives (replicate_index, trajectory) for
    each kept replicate, in index order, as each chunk finishes; only then
    are Trajectory objects built.
    """
    replicates = _count("replicates", replicates, 1)
    n, grid = A0.n, _record_grid(steps, metrics_stride)
    # the kept replicates' phi and log kappa on the grid, row by row: C order,
    # which the axis-0 reductions below need for their bits
    phi_mat, lk_mat = np.empty((2, replicates, len(grid)))
    t_stars: list[int | None] = []
    kept = violations = 0
    kernels = []
    for chunk in _ensemble_chunks(replicates, _replicate_bytes(n, steps, len(grid))):
        rs = np.arange(chunk.start, chunk.stop, dtype=np.uint64)
        seeds = (_replicate_seeds(base_seed, rs) if chunk.stop <= 2**32
                 else [derive_replicate_seed(base_seed, r) for r in chunk])
        run = _run_stack(A0, steps, kind, seeds, grid)
        phi, _, _, records, stack = run
        live = np.flatnonzero(stack.live)
        if trajectory_sink is not None:
            for r in live.tolist():
                trajectory_sink(chunk[r], _chain_result(grid, run, r))
        phi = phi[live]
        phi_mat[kept: kept + live.size] = phi[:, grid]
        lk_mat[kept: kept + live.size] = np.log(records[1, live])
        kept += live.size
        t_star, rises = _phi_marks(phi, n)
        t_stars += [t if t >= 0 else None for t in t_star.tolist()]
        violations += int(np.count_nonzero(rises))
        kernels.append(stack.counters(live))
        del run, stack  # before the next chunk's stack is built
    aborts = replicates - kept

    if aborts / replicates > tol.ENSEMBLE_ABORT_FRACTION:
        raise PairOrthError(
            f"{aborts} of {replicates} replicates aborted on degenerate pairs "
            f"(more than {tol.ENSEMBLE_ABORT_FRACTION:.0%})"
        )

    phi_mat, lk_mat = phi_mat[:kept], lk_mat[:kept]
    phi0 = float(phi_mat[0, 0])
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
        kernel=KernelStats.total(kernels),
    )
