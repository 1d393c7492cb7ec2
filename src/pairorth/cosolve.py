"""Kaczmarz solving of A* x = b interleaved with orthogonalization of A.

Equation k of the system reads <x, a_k> = b_k. When column i is replaced
by (a_i - c a_j) / nu, rewriting equation i as
<x, a_i'> = (b_i - conj(c) b_j) / nu shows the unique right-hand-side
update that keeps the solution unchanged, which is exactly what
orth_with_rhs applies. Kaczmarz steps project the iterate onto one
equation's solution hyperplane; columns are unit so no division is
needed.

run_cosolve advances the matrix as a one-chain stack of the step kernel
of pairorth.process, with the right-hand-side and Kaczmarz updates of
orth_with_rhs and kaczmarz_step, from checkpoint to checkpoint by block
(README, "The path map"). It draws pairs and rows up front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePairError, SingularityError, UsageError
from .matrix import (ColumnMatrix, PairIndex, _count, _integer, _norm, _orth_column, _sq_norms, _vdot,
                     validate_pair)
from .process import KernelStats, _ChainStack, _replicate_seeds, _uniform_pairs, make_rng

ORTH = "orth"
KACZ = "kacz"
# run_cosolve's history, one row per op
HISTORY_DTYPE = np.dtype([("step", np.int64), ("kind", "<U4"), ("err_norm", float), ("phi", float)])


@dataclass(frozen=True)
class CosolveState:
    """One co-solving state: the matrix, right-hand side, and iterate.

    x_true is held for verification only; the defining contract is that
    ||A* x_true - b|| stays within 1e-8 after every step of either kind.
    kernel is the step kernel's record over a run_cosolve.
    """

    A: ColumnMatrix
    b: np.ndarray
    x: np.ndarray
    x_true: np.ndarray
    kernel: KernelStats = KernelStats()

    def residual(self) -> float:
        return float(np.linalg.norm(self.A.array.conj().T @ self.x_true - self.b))

    def error(self) -> float:
        return float(np.linalg.norm(self.x - self.x_true))


def initial_state(A0: ColumnMatrix, x_true) -> CosolveState:
    """State with b = A0* x_true and a zero iterate."""
    x_true = np.asarray(x_true)
    if x_true.shape != (A0.n,):
        raise UsageError(f"x_true must have shape ({A0.n},), got {x_true.shape}")
    b = A0.array.conj().T @ x_true
    return CosolveState(A=A0, b=b, x=np.zeros_like(b), x_true=np.array(x_true))


def _update_rhs(b: np.ndarray, i: int, j: int, c, c2, nu) -> None:
    # equation i after a_i <- (a_i - (c + c2) a_j) / nu, written into b in place
    b[i] = (b[i] - np.conj(c + c2) * b[j]) / nu


def _kaczmarz(arr: np.ndarray, b: np.ndarray, x: np.ndarray, row: int) -> None:
    # the projection onto equation row, written into x in place
    a = arr[:, row]
    x += (b[row] - _vdot(a, x)) * a


def orth_with_rhs(state: CosolveState, pair: PairIndex) -> CosolveState:
    """Orthogonalize one column and co-update b so the solution is kept.

    Uses the exact coefficients of the column update (including the
    refinement pass), so the preserved-solution invariant holds to
    roundoff, not merely to first order.
    """
    i, j = validate_pair(state.A.n, pair)
    arr = np.array(state.A.array, order="F")
    c, c2, nu = _orth_column(arr, i, j)
    b = np.array(state.b)
    _update_rhs(b, i, j, c, c2, nu)
    return replace(state, A=ColumnMatrix._wrap(arr, state.A.field), b=b)


def kaczmarz_step(state: CosolveState, row: int) -> CosolveState:
    """Project the iterate onto the solution hyperplane of one equation.

    x <- x + (b_row - <x, a_row>) a_row; the selected equation's residual
    becomes zero to 1e-12. A and b are untouched.
    """
    if not (_integer(row) and 0 <= row < state.A.n):
        raise UsageError(f"row must be an integer in [0, {state.A.n}), got {row!r}")
    x = np.array(state.x)
    _kaczmarz(state.A.array, state.b, x, row)
    return replace(state, x=x)


def run_cosolve(
    A0: ColumnMatrix,
    x_true,
    interleave: tuple[int, int] = (1, 1),
    steps: int = 1000,
    seed: int = 0,
) -> tuple[np.recarray, CosolveState]:
    """Run the interleaved process for a total number of operations.

    The schedule is a fixed round-robin: p orthogonalization steps then q
    Kaczmarz steps, repeated. Pair choices and row choices come from two
    generators split off the seed, so runs with different ratios but the
    same seed see identical row draws (paired comparisons stay paired).
    Returns a record array, one row (step, kind, err_norm, phi) per op, and the final state.
    """
    steps = _count("steps", steps, 0)
    try:
        p, q = interleave
    except (TypeError, ValueError):  # not iterable, or not two items
        raise UsageError(f"interleave ratio must be two counts, got {interleave!r}") from None
    p, q = _count("interleave count", p, 0), _count("interleave count", q, 0)
    if p == q == 0:
        raise UsageError(f"interleave ratio must be two counts, not 0:0, got {interleave!r}")
    state = initial_state(A0, x_true)
    rng_pairs, rng_rows = map(make_rng, _replicate_seeds(seed, np.arange(2, dtype=np.uint64)))

    history, orth = np.recarray(steps, HISTORY_DTYPE), np.arange(steps) % (p + q) < p
    history["step"], history["kind"] = np.arange(1, steps + 1), np.where(orth, ORTH, KACZ)
    out_phi, out_err = history["phi"], history["err_norm"]
    at = np.flatnonzero(orth)  # the op of each orth op
    ij = _uniform_pairs(A0.n, rng_pairs, at.size)
    rows = rng_rows.integers(A0.n, size=steps - at.size)
    chain = _ChainStack(A0, 1)
    arr = chain.cols[0].T
    b, x, x_true = np.array(state.b), state.x, state.x_true
    # err[m] is the error after m Kaczmarz ops (err[0] the zero iterate's), read off their
    # iterates 256 at a time
    err, xs = np.full(steps - at.size + 1, _norm(x_true)), np.empty((256, A0.n), x.dtype)

    def run(lo, hi, o, top, step):
        # ops lo to hi: among them orth ops o to top, by step, and Kaczmarz ops lo - o to
        # hi - top, their kinds and rows read 256 ops at a time (a 0:q run is one block);
        # returns the orth ops' values after (c, c2, nu), in order
        pairs, new = iter(ij[o:top].tolist()), []
        m = m0 = lo - o
        for at_op in range(lo, hi, len(xs)):
            kinds = orth[at_op:min(at_op + len(xs), hi)].tolist()
            kacz = iter(rows[m:m + kinds.count(False)].tolist())
            for is_orth in kinds:
                if is_orth:
                    i, j = next(pairs)
                    c, c2, nu, *values = step(0, i, j)
                    new += values
                    _update_rhs(b, i, j, c, c2, nu)
                else:
                    _kaczmarz(arr, b, x, next(kacz))
                    xs[m - m0] = x
                    m += 1
                    if m - m0 == len(xs):
                        err[m0 + 1:m + 1], m0 = np.sqrt(_sq_norms(xs - x_true)), m
        err[m0 + 1:m + 1] = np.sqrt(_sq_norms(xs[:m - m0] - x_true))  # _norm's bits
        return new

    # block by block, each to the chain's next checkpoint or the end: _commit reads the rest
    # off its _moves, or the block is put back and replayed through orth, which gives phi
    # op by op; a Kaczmarz op keeps the last phi and an orth op the last error
    lo, o = 0, 0
    while lo < steps:
        top = min(at.size, o + chain._to_checkpoint(slice(None)))
        hi = steps if top == at.size else int(at[top - 1]) + 1
        moved = np.flatnonzero(np.bincount(ij[o:top].ravel()))  # the rows its _moves write
        saved = chain.cols[:, moved], chain.inv[:, moved], b.copy(), x.copy()
        phi = np.full((1, top - o + 1), chain.phi[0])
        try:
            new = run(lo, hi, o, top, chain._move)
            done = top == o or chain._commit(slice(None), ij[None, o:top],
                                             np.array(new).reshape(1, -1, 2), phi[:, 1:])
        except (DegeneratePairError, SingularityError, np.linalg.LinAlgError):
            done = False
        if not done:
            chain.cols[:, moved], chain.inv[:, moved], b[:], x[:] = saved
            phi[0, 1:] = run(lo, hi, o, top, lambda r, i, j: (*chain.orth(r, i, j), chain.phi[r]))
        out_phi[lo:hi] = phi[0, np.cumsum(orth[lo:hi])]
        out_err[lo:hi] = err[lo - o + np.cumsum(~orth[lo:hi])]
        lo, o = hi, top
    return history, replace(state, A=chain.matrix(0), b=b, x=x, kernel=chain.counters(0))
