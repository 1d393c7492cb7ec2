"""The step kernel's kept state against full recomputes and the oracle.

The kernel updates two inverse rows per step; above the 1e8 condition
estimate it keeps the distances and reads d_i and d_j off one R-only QR.
On either path it recomputes in full at a multiple of
INVERSE_REFRESH_STEPS where its running bound on rounding, at its rate so
far, would reach the slack by the next multiple, and when the condition
estimate crosses 1e8; on the projection path also when the estimate falls
below 1/n of its value at the last full recompute.
The proportional and greedy samplers keep the weights |G|^2 of the Gram
matrix G by column. These properties check the kept values at every step,
refresh points included.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from pairorth import (
    ColumnMatrix,
    brute_force_distance,
    condition_number,
    generate,
    leave_one_out_distances,
    make_rng,
    potential_phi,
    run_chain,
    sample_pair,
)
from pairorth import tolerances as tol
from pairorth.errors import ConstructionError, DegeneratePairError
from pairorth.generators import (
    GAUSSIAN,
    HAAR,
    NEAR_SINGULAR,
    PRESCRIBED,
    TWO_BY_TWO,
    GeneratorSpec,
)
from pairorth.matrix import COMPLEX, REAL
from pairorth.metrics import AUTO, PROJECTION, _distances_projection, _pair_distances
from pairorth.process import (
    GREEDY,
    PROPORTIONAL,
    SAMPLER_KINDS,
    UNIFORM,
    _ChainStack,
    _draw_pair,
    _uniform_pairs,
    _weights,
)

EPS = float(np.finfo(float).eps)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from((HAAR, GAUSSIAN, PRESCRIBED, TWO_BY_TWO, NEAR_SINGULAR)))
    field = draw(st.sampled_from((REAL, COMPLEX)))
    n = 2 if kind == TWO_BY_TWO else draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32))
    params = {}
    if kind == TWO_BY_TWO:
        params["theta"] = draw(st.floats(0.1, 1.5))
    elif kind == PRESCRIBED:
        params["sigma"] = tuple(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    elif kind == NEAR_SINGULAR:
        params["eta"] = draw(st.sampled_from((1e-2, 1e-6, 1e-8, 1e-10)))
    try:
        A, _ = generate(GeneratorSpec(kind, n=n, field=field, seed=seed, **params))
    except ConstructionError:
        # the generator refuses some draws, near-singular n = 2 most often
        reject()
    return A


class _ChainState:
    """One chain of a _ChainStack, under the names the properties below
    use. Their bodies keep this text because derandomized Hypothesis keys
    its draws on a test's source: a renamed local draws other instances."""

    def __init__(self, arr: np.ndarray, kind: str):
        self.kind = kind
        field = COMPLEX if np.iscomplexobj(arr) else REAL
        self.stack = _ChainStack(ColumnMatrix._wrap(arr, field), 1, kind)

    arr = property(lambda self: self.stack.cols[0].T)
    d = property(lambda self: self.stack.d[0])
    phi = property(lambda self: self.stack.phi[0])
    w = property(lambda self: self.stack.w[0])
    inv = property(lambda self: self.stack.inv[0] if self.stack.on_inv[0] else None)
    refreshes = property(lambda self: self.stack.refreshes[0])
    fallbacks = property(lambda self: self.stack.fallbacks[0])


def _step(state: _ChainState, rng: np.random.Generator):
    """One step of the chain, its pair drawn as run_chain draws it; returns
    ((i, j),). A degenerate pair raises before the chain is touched."""
    w = None if state.stack.w is None else state.stack.w[0]
    (i, j), _ = _draw_pair(state.arr.shape[0], state.kind, rng, w)
    state.stack.orth(0, i, j)
    return ((i, j),)


def _wrap(state: _ChainState, field: str) -> ColumnMatrix:
    return ColumnMatrix._wrap(np.array(state.arr, order="F"), field)


def _slack(A: ColumnMatrix) -> float:
    # the two-method slack of perfbench and the acceptance checks: distances
    # relative to n eps kappa, never tighter than DISTANCE_METHOD_REL
    kappa, _ = condition_number(A)
    return max(tol.DISTANCE_METHOD_REL, A.n * EPS * kappa)


def _check_distances(state: _ChainState, A: ColumnMatrix, method: str = AUTO) -> None:
    n = A.n
    rel = _slack(A)
    log_d = np.log(state.d)
    d_full = leave_one_out_distances(A, method)
    d_bf = np.array([brute_force_distance(A, j) for j in range(n)])
    assert np.max(np.abs(log_d - np.log(d_full))) <= rel
    assert np.max(np.abs(log_d - np.log(d_bf))) <= rel
    assert abs(state.phi + float(np.log(d_full).sum())) <= n * rel
    assert abs(state.phi + float(np.log(d_bf).sum())) <= n * rel


def _refresh_rule_held(state: _ChainState) -> bool:
    """After a step that did not refresh: a projection-path chain's
    condition estimate est has not fallen below est0 / n, and a chain of
    either path that stands at a multiple of INVERSE_REFRESH_STEPS did not
    refresh there only because its running bound B = eps sum_t est_t, at
    its rate so far, stays below the slack n max(1e-8, n eps est) up to the
    next one. est is read off the kept inverse rows, or on the projection
    path off the kept distances, as the kernel reads it."""
    stack, K = state.stack, tol.INVERSE_REFRESH_STEPS
    since, n = int(stack.since[0]), state.d.size
    if since == 0:
        return True
    est = np.sqrt(n * (stack.row_sq[0] if stack.on_inv[0] else 1.0 / (state.d * state.d)).sum())
    if not stack.on_inv[0] and n * est < stack.est0[0]:
        return False
    if since % K:
        return True
    slack = n * max(tol.DISTANCE_METHOD_REL, n * EPS * est)
    return EPS * stack.est_sum[0] * (since + K) / since < slack


def _near_singular(n: int, eta: float, field: str) -> ColumnMatrix:
    return generate(GeneratorSpec(NEAR_SINGULAR, n=n, field=field, seed=0, eta=eta))[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(A=instances(), sampler=st.sampled_from(SAMPLER_KINDS), seed=st.integers(0, 2**32))
# projection-path starts whose kept distances left the slack while the
# kernel kept d_i' = d_i / nu, or kept distances past a fall of kappa
@example(A=_near_singular(3, 1e-10, REAL), sampler=UNIFORM, seed=1)
@example(A=_near_singular(3, 1e-10, REAL), sampler=PROPORTIONAL, seed=1)
@example(A=_near_singular(3, 1e-10, COMPLEX), sampler=GREEDY, seed=1)
@example(A=_near_singular(4, 1e-12, REAL), sampler=UNIFORM, seed=1)
def test_kept_distances_match_full_recompute_and_oracle(A, sampler, seed):
    state = _ChainState(np.array(A.array, order="F"), sampler)
    rng = make_rng(seed)
    _check_distances(state, A)
    steps = tol.INVERSE_REFRESH_STEPS + 6
    for t in range(1, steps + 1):
        try:
            _step(state, rng)
        except DegeneratePairError:
            # a planted near-parallel pair aborts a chain; the state is untouched
            break
        _check_distances(state, _wrap(state, A.field))
        # either path refreshes at a multiple of K only where its bound comes due
        assert _refresh_rule_held(state)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from((GAUSSIAN, NEAR_SINGULAR)),
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(3, 8),
    sampler=st.sampled_from((PROPORTIONAL, GREEDY)),
    seed=st.integers(0, 2**32),
)
def test_kept_gram_and_picks_match_a_fresh_product(kind, field, n, sampler, seed):
    eta = 1e-6 if kind == NEAR_SINGULAR else None
    try:
        A, _ = generate(GeneratorSpec(kind, n=n, field=field, seed=seed, eta=eta))
    except ConstructionError:
        reject()  # a draw the generator refuses, as in instances()
    state = _ChainState(np.array(A.array, order="F"), sampler)
    rng_kernel, rng_fresh = make_rng(seed), make_rng(seed)
    in_step = True
    for _ in range(100):
        fresh = state.arr.conj().T @ state.arr
        # |g| <= 1 and a kept g within n eps of the fresh one: |g|^2 within 3 n eps
        assert np.max(np.abs(state.w - _weights(fresh))) <= 3 * n * EPS
        # near the orthonormal fixed point the weights are roundoff, and a
        # pick among them depends on the order of the sums: from there on
        # only the weights themselves are compared
        in_step = in_step and np.abs(fresh - np.diag(np.diag(fresh))).max() >= 1e-6
        expected = sample_pair(_wrap(state, field), sampler, rng_fresh) if in_step else None
        try:
            pair, *_ = _step(state, rng_kernel)
        except DegeneratePairError as exc:
            assert not in_step or exc.pair == expected
            break
        assert not in_step or pair == expected


def _mp_distances(arr: np.ndarray) -> np.ndarray:
    """d_j = 1 / ||row j of A^-1||, the inverse taken in 50-digit arithmetic."""
    with mpmath.workdps(50):
        inv = mpmath.inverse(mpmath.matrix(arr.tolist()))
        n = arr.shape[0]
        return np.array(
            [float(1 / mpmath.sqrt(sum(abs(inv[j, k]) ** 2 for k in range(n)))) for j in range(n)]
        )


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(4, 16),
    eta=st.sampled_from((1e-10, 1e-11, 1e-12)),
    seed=st.integers(0, 2**32),
)
# the derandomized draws stay at small n; these two pin n = 16 at both ends of eta
@example(field=REAL, n=16, eta=1e-10, seed=1)
@example(field=COMPLEX, n=16, eta=1e-12, seed=2)
def test_projection_path_keeps_distances(field, n, eta, seed):
    try:
        A, _ = generate(GeneratorSpec(NEAR_SINGULAR, n=n, field=field, seed=seed, eta=eta))
    except ConstructionError:
        reject()  # a draw the generator refuses, as in instances()
    state = _ChainState(np.array(A.array, order="F"), UNIFORM)
    rng = make_rng(seed)
    steps = tol.INVERSE_REFRESH_STEPS + 6
    # a few steps against the 50-digit reference: the first, the last kept
    # step before the refresh, the refresh itself and the last
    mp_steps = {1, tol.INVERSE_REFRESH_STEPS - 1, tol.INVERSE_REFRESH_STEPS, steps}
    for t in range(1, steps + 1):
        d_before, kept, refreshes = state.d.copy(), state.inv is None, state.refreshes
        try:
            (i, j), *_ = _step(state, rng)
        except DegeneratePairError:
            break
        if kept and state.refreshes == refreshes:
            # span{a_i', a_j} = span{a_i, a_j}: every other distance is untouched
            others = np.ones(n, dtype=bool)
            others[[i, j]] = False
            assert np.array_equal(state.d[others], d_before[others])
        now = _wrap(state, A.field)
        _check_distances(state, now, PROJECTION)
        if t in mp_steps:
            d_mp = _mp_distances(state.arr)
            assert np.max(np.abs(np.log(state.d) - np.log(d_mp))) <= _slack(now)
    assert state.fallbacks > 0


def _checkpoints(stack: _ChainStack) -> list[tuple[int, bool]]:
    """Record (since, due) of each _comes_due the stack's scalar step asks."""
    calls, comes_due = [], stack._comes_due

    def spy(rs, est):
        due = bool(comes_due(rs, est))
        calls.append((int(stack.since[rs]), due))
        return due

    stack._comes_due = spy
    return calls


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_projection_path_refreshes_when_its_bound_comes_due(field):
    # a planted distance of 1e-10 at n = 32 keeps the chain on the projection
    # path. With a steady estimate B = eps sum_t est_t reaches the slack
    # n^2 eps est about n^2 - K steps after a recompute, so the chain passes
    # its checkpoints where a fixed interval refreshed 15 times in 1,000
    # steps; at each checkpoint and at the end the kept phi stays within the
    # slack of PROJECTION and under B
    A = _near_singular(32, 1e-10, field)
    stack = _ChainStack(A, 1)
    calls = _checkpoints(stack)
    steps, K = 1000, tol.INVERSE_REFRESH_STEPS
    for t, (i, j) in enumerate(_uniform_pairs(A.n, make_rng(1), steps).tolist(), start=1):
        stack.orth(0, i, j)
        if (t % K and t != steps) or stack.since[0] == 0:
            continue
        now = stack.matrix(0)
        gap = abs(stack.phi[0] - potential_phi(now, PROJECTION))
        assert gap <= A.n * _slack(now)
        assert gap < EPS * stack.est_sum[0]
    assert stack.fallbacks[0] == steps and stack.refreshes[0] <= 2
    assert calls[0] == (K, False)
    assert stack.counters(0).worst_drift_bound > 0.0


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_projection_path_bound_comes_due_at_small_n(field):
    # at n = 8 the slack n^2 eps est is n^2 = K steps of a steady estimate:
    # the bound comes due at the first checkpoint, the only refresh there
    A = _near_singular(8, 1e-10, field)
    stack = _ChainStack(A, 1)
    calls = _checkpoints(stack)
    K = tol.INVERSE_REFRESH_STEPS
    for i, j in _uniform_pairs(A.n, make_rng(1), K).tolist():
        stack.orth(0, i, j)
    assert calls == [(K, True)]
    assert stack.refreshes[0] == 1 and stack.fallbacks[0] == K


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("eta", [1e-10, 1e-12])
def test_pair_read_off_recompute_matches_50_digits(field, n, eta):
    # the full recompute of the projection path reads two distances per QR,
    # pair by pair, and the odd column off one more; it must agree with the
    # 50-digit inverse rows, the brute-force oracle and the read-off of d_j
    # alone, with j last, within the slack of the property above
    for seed in range(3):
        if n == 2:
            # the generator refuses n = 2, whose only pair is degenerate
            c = np.exp(1j * seed) if field == COMPLEX else 1.0
            A = ColumnMatrix._wrap(np.array([[1.0, c * np.cos(eta)], [0.0, np.sin(eta)]]), field)
        else:
            A, _ = generate(GeneratorSpec(NEAR_SINGULAR, n=n, field=field, seed=seed, eta=eta))
        log_d = np.log(_distances_projection(A.array))
        one_per_column = [_pair_distances(A.array, (j - 1) % n, j)[1] for j in range(n)]
        for ref in (
            _mp_distances(A.array),
            [brute_force_distance(A, j) for j in range(n)],
            one_per_column,
        ):
            assert np.max(np.abs(log_d - np.log(ref))) <= _slack(A)


@pytest.mark.parametrize("count", [3, 5])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("kind,eta", [(GAUSSIAN, None), (NEAR_SINGULAR, 1e-10)])
def test_kept_weights_are_the_kept_gram_squared(kind, eta, field, count):
    # the near-singular start takes projection-path steps and refreshes. No
    # Gram is kept: W is checked against the weights of a fresh A^H A within
    # the slack of the property above, and is exactly symmetric with a zero
    # diagonal. A stack of 3 updates W chain by chain (orth), a stack of 5
    # on the inverse path in the vectorized step
    A, _ = generate(GeneratorSpec(kind, n=8, field=field, seed=3, eta=eta))
    stack = _ChainStack(A, count, PROPORTIONAL)
    rngs = [make_rng(seed) for seed in range(count)]
    pairs, inner_abs = np.empty((count, 2), dtype=np.intp), np.empty(count)
    for _ in range(100):
        for r, rng in enumerate(rngs):
            pairs[r], _ = _draw_pair(A.n, PROPORTIONAL, rng, stack.w[r])
        stack.step(pairs, inner_abs)
        for r in range(count):
            arr = stack.cols[r].T
            gram = arr.conj().T @ arr
            fresh = np.abs(gram) ** 2
            np.fill_diagonal(fresh, 0.0)
            assert np.array_equal(_weights(gram), fresh)
            assert np.max(np.abs(stack.w[r] - fresh)) <= 3 * A.n * EPS
            assert np.array_equal(stack.w[r], stack.w[r].T) and not np.diag(stack.w[r]).any()
    # the Gaussian chains' running bounds never come due; the near-singular
    # ones refresh on the projection path
    assert stack.live.all() and (stack.refreshes.min() > 0) == (kind == NEAR_SINGULAR)
    assert (stack.fallbacks.min() > 0) == (kind == NEAR_SINGULAR)


def test_projection_path_kept_distance_of_the_replaced_column():
    # the derandomized property above does not draw this instance
    A, _ = generate(GeneratorSpec(NEAR_SINGULAR, n=3, field=REAL, seed=0, eta=1e-10))
    state = _ChainState(np.array(A.array, order="F"), PROPORTIONAL)
    rng = make_rng(1)
    for _ in range(3):
        _step(state, rng)
        assert state.inv is None
        now = _wrap(state, REAL)
        d_bf = np.array([brute_force_distance(now, j) for j in range(now.n)])
        assert np.max(np.abs(np.log(state.d) - np.log(d_bf))) <= _slack(now)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_projection_path_steps_call_no_public_qr(field, monkeypatch):
    # a projection-path step reads its distances off the QR gufunc itself:
    # a chain from a planted distance of 1e-10 runs with np.linalg.qr gone
    A, _ = generate(GeneratorSpec(NEAR_SINGULAR, n=8, field=field, seed=0, eta=1e-10))

    def public_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called on the step path")

    monkeypatch.setattr(np.linalg, "qr", public_qr)
    assert run_chain(A, 70, seed=1).kernel.projection_fallbacks > 0
