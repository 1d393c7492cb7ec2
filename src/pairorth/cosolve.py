"""Kaczmarz solving of A* x = b interleaved with orthogonalization of A.

Equation k of the system reads <x, a_k> = b_k. When column i is replaced
by (a_i - c a_j) / nu, rewriting equation i as
<x, a_i'> = (b_i - conj(c) b_j) / nu shows the unique right-hand-side
update that keeps the solution unchanged, which is exactly what
orth_with_rhs applies. Kaczmarz steps project the iterate onto one
equation's solution hyperplane; columns are unit so no division is
needed.

run_cosolve advances the matrix with the step kernel of pairorth.process
on one working array, and applies the same right-hand-side and Kaczmarz
updates as the one-op functions orth_with_rhs and kaczmarz_step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError
from .matrix import ColumnMatrix, PairIndex, _orth_column, validate_pair
from .process import UNIFORM, _phi, _step, derive_replicate_seed, make_rng

ORTH = "orth"
KACZ = "kacz"


@dataclass(frozen=True)
class CosolveState:
    """One co-solving state: the matrix, right-hand side, and iterate.

    x_true is held for verification only; the defining contract is that
    ||A* x_true - b|| stays within 1e-8 after every step of either kind.
    interleave is (orth steps : kaczmarz steps) per round-robin cycle.
    """

    A: ColumnMatrix
    b: np.ndarray
    x: np.ndarray
    x_true: np.ndarray
    interleave: tuple[int, int] = (1, 1)
    step_count: int = 0

    def residual(self) -> float:
        return float(np.linalg.norm(self.A.array.conj().T @ self.x_true - self.b))

    def error(self) -> float:
        return float(np.linalg.norm(self.x - self.x_true))


def initial_state(
    A0: ColumnMatrix,
    x_true,
    interleave: tuple[int, int] = (1, 1),
) -> CosolveState:
    """State with b = A0* x_true and a zero iterate."""
    x_true = np.asarray(x_true)
    if x_true.shape != (A0.n,):
        raise UsageError(f"x_true must have shape ({A0.n},), got {x_true.shape}")
    p, q = interleave
    if p < 0 or q < 0 or (p == 0 and q == 0):
        raise UsageError(f"interleave ratio must be non-negative and not 0:0, got {p}:{q}")
    b = A0.array.conj().T @ x_true
    return CosolveState(
        A=A0,
        b=b,
        x=np.zeros_like(b),
        x_true=np.array(x_true),
        interleave=(int(p), int(q)),
    )


def _update_rhs(b: np.ndarray, i: int, j: int, c, c2, nu) -> None:
    # equation i after a_i <- (a_i - (c + c2) a_j) / nu, written into b in place
    b[i] = (b[i] - np.conj(c + c2) * b[j]) / nu


def _kaczmarz(arr: np.ndarray, b: np.ndarray, x: np.ndarray, row: int) -> np.ndarray:
    a = arr[:, row]
    return x + (b[row] - np.vdot(a, x)) * a


def orth_with_rhs(state: CosolveState, pair: PairIndex) -> CosolveState:
    """Orthogonalize one column and co-update b so the solution is kept.

    Uses the exact coefficients of the column update (including the
    refinement pass), so the preserved-solution invariant holds to
    roundoff, not merely to first order.
    """
    i, j = validate_pair(state.A.n, pair)
    arr = np.array(state.A.array, order="F")
    new_col, c, c2, nu = _orth_column(arr, i, j)
    arr[:, i] = new_col
    b = np.array(state.b)
    _update_rhs(b, i, j, c, c2, nu)
    return replace(
        state,
        A=ColumnMatrix._wrap(arr, state.A.field),
        b=b,
        step_count=state.step_count + 1,
    )


def kaczmarz_step(state: CosolveState, row: int) -> CosolveState:
    """Project the iterate onto the solution hyperplane of one equation.

    x <- x + (b_row - <x, a_row>) a_row; the selected equation's residual
    becomes zero to 1e-12. A and b are untouched.
    """
    if not (0 <= row < state.A.n):
        raise UsageError(f"row {row} out of range for n = {state.A.n}")
    x = _kaczmarz(state.A.array, state.b, state.x, row)
    return replace(state, x=x, step_count=state.step_count + 1)


@dataclass(frozen=True)
class CosolveRecord:
    step: int
    kind: str
    err_norm: float
    phi: float


def run_cosolve(
    A0: ColumnMatrix,
    x_true,
    interleave: tuple[int, int] = (1, 1),
    steps: int = 1000,
    seed: int = 0,
) -> tuple[list[CosolveRecord], CosolveState]:
    """Run the interleaved process for a total number of operations.

    The schedule is a fixed round-robin: p orthogonalization steps then q
    Kaczmarz steps, repeated. Pair choices and row choices come from two
    generators split off the seed, so runs with different ratios but the
    same seed see identical row draws (paired comparisons stay paired).
    Returns the per-operation history and the final state.
    """
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    state = initial_state(A0, x_true, interleave)
    rng_pairs = make_rng(derive_replicate_seed(seed, 0))
    rng_rows = make_rng(derive_replicate_seed(seed, 1))

    p, q = state.interleave
    cycle: list[str] = [ORTH] * p + [KACZ] * q
    cur = np.array(A0.array, order="F")
    b = np.array(state.b)
    x = state.x
    history: list[CosolveRecord] = []
    phi = _phi(cur)
    for step in range(1, steps + 1):
        kind = cycle[(step - 1) % len(cycle)]
        if kind == ORTH:
            (i, j), c, c2, nu, phi = _step(cur, UNIFORM, rng_pairs)
            _update_rhs(b, i, j, c, c2, nu)
        else:
            x = _kaczmarz(cur, b, x, int(rng_rows.integers(A0.n)))
        history.append(CosolveRecord(step, kind, float(np.linalg.norm(x - state.x_true)), phi))
    final = replace(state, A=ColumnMatrix._wrap(cur, A0.field), b=b, x=x, step_count=steps)
    return history, final
