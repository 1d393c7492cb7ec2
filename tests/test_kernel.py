"""The step kernel's kept state against full recomputes and the oracle.

The kernel updates two inverse rows per step and refreshes them every
INVERSE_REFRESH_STEPS steps; the proportional and greedy samplers keep the
Gram matrix by column. These properties check the kept values at every
step, refresh points included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pairorth import (
    ColumnMatrix,
    brute_force_distance,
    condition_number,
    generate,
    leave_one_out_distances,
    make_rng,
    sample_pair,
)
from pairorth import tolerances as tol
from pairorth.errors import DegeneratePairError
from pairorth.generators import (
    GAUSSIAN,
    HAAR,
    NEAR_SINGULAR,
    PRESCRIBED,
    TWO_BY_TWO,
    GeneratorSpec,
)
from pairorth.matrix import COMPLEX, REAL
from pairorth.process import GREEDY, PROPORTIONAL, SAMPLER_KINDS, _ChainState, _step

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
    A, _ = generate(GeneratorSpec(kind, n=n, field=field, seed=seed, **params))
    return A


def _wrap(state: _ChainState, field: str) -> ColumnMatrix:
    return ColumnMatrix._wrap(np.array(state.arr, order="F"), field)


def _check_distances(state: _ChainState, A: ColumnMatrix) -> None:
    # the two-method slack of perfbench and the acceptance checks: distances
    # relative to n eps kappa, never tighter than DISTANCE_METHOD_REL
    n = A.n
    kappa, _ = condition_number(A)
    rel = max(tol.DISTANCE_METHOD_REL, n * EPS * kappa)
    log_d = np.log(state.d)
    d_full = leave_one_out_distances(A)
    d_bf = np.array([brute_force_distance(A, j) for j in range(n)])
    assert np.max(np.abs(log_d - np.log(d_full))) <= rel
    assert np.max(np.abs(log_d - np.log(d_bf))) <= rel
    assert abs(state.phi + float(np.log(d_full).sum())) <= n * rel
    assert abs(state.phi + float(np.log(d_bf).sum())) <= n * rel


@settings(max_examples=40, deadline=None, derandomize=True)
@given(A=instances(), sampler=st.sampled_from(SAMPLER_KINDS), seed=st.integers(0, 2**32))
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
        # since_refresh restarts at every refresh, so no K steps pass without one
        assert state.refreshes >= t // tol.INVERSE_REFRESH_STEPS


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
    A, _ = generate(GeneratorSpec(kind, n=n, field=field, seed=seed, eta=eta))
    state = _ChainState(np.array(A.array, order="F"), sampler)
    rng_kernel, rng_fresh = make_rng(seed), make_rng(seed)
    in_step = True
    for _ in range(100):
        fresh = state.arr.conj().T @ state.arr
        assert np.max(np.abs(state.gram - fresh)) <= n * EPS
        # near the orthonormal fixed point the weights are roundoff, and a
        # pick among them depends on the order of the sums: from there on
        # only the Gram itself is compared
        in_step = in_step and np.abs(fresh - np.diag(np.diag(fresh))).max() >= 1e-6
        expected = sample_pair(_wrap(state, field), sampler, rng_fresh) if in_step else None
        try:
            pair, *_ = _step(state, rng_kernel)
        except DegeneratePairError as exc:
            assert not in_step or exc.pair == expected
            break
        assert not in_step or pair == expected
