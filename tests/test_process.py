"""Pair samplers, chain runs, stopping-time detection, ensembles."""

import math
import tracemalloc
from collections import namedtuple
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from pairorth import (
    ChainAbortError,
    ColumnMatrix,
    UsageError,
    build_unit_column_matrix,
    condition_number,
    derive_replicate_seed,
    detect_t_star,
    generate,
    gram_offdiag_fro,
    inflection,
    leave_one_out_distances,
    make_rng,
    potential_phi,
    run_chain,
    run_cosolve,
    run_ensemble,
    sample_pair,
)
import pairorth
from pairorth import metrics, process
from pairorth import tolerances as tol
from pairorth.errors import PairOrthError, SingularityError
from pairorth.generators import GeneratorSpec
from pairorth.matrix import _gram_offdiag_fro, _sq_norms
from pairorth.process import (
    GREEDY,
    PROPORTIONAL,
    KernelStats,
    STACK_BYTES,
    STACK_MIN_REPLICATES,
    UNIFORM,
    Trajectory,
    _draw_pair,
    _ensemble_chunks,
    _record_grid,
    _replicate_bytes,
    _uniform_pairs,
    _weights,
)

EPS = float(np.finfo(float).eps)


def angle_matrix(theta=np.pi / 3):
    return build_unit_column_matrix([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])


def random_state(n, seed, field="real"):
    A, _ = generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=seed))
    return A


def pair_code(n, pair):
    return pair[0] * n + pair[1]


class TestUniformSampler:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chi_square_against_exact_law(self, n):
        A = random_state(n, seed=n)
        rng = make_rng(123 + n)
        draws = 100_000
        counts = np.zeros(n * n, dtype=int)
        for _ in range(draws):
            counts[pair_code(n, sample_pair(A, UNIFORM, rng))] += 1
        offdiag = np.array([counts[i * n + j] for i in range(n) for j in range(n) if i != j])
        assert counts.sum() == draws and offdiag.sum() == draws
        _, p = scipy_stats.chisquare(offdiag)
        assert p >= 0.001

    def test_never_diagonal(self):
        A = random_state(4, seed=1)
        rng = make_rng(0)
        for _ in range(1000):
            i, j = sample_pair(A, UNIFORM, rng)
            assert i != j

    @pytest.mark.parametrize("n", [2, 3, 8, 128])
    def test_block_draw_gives_the_scalar_draws(self, n):
        # one block of k draws takes the integers of k one-draw calls: those
        # of sample_pair, and raw rng.integers(n (n - 1)) under the map
        # k -> (k // (n - 1), k % (n - 1), plus one where that is >= i)
        A = build_unit_column_matrix(np.eye(n))
        for seed in range(5):
            block = _uniform_pairs(n, make_rng(seed), 50).tolist()
            rng = make_rng(seed)
            assert block == [list(sample_pair(A, UNIFORM, rng)) for _ in range(50)]
            rng = make_rng(seed)
            raw = [divmod(int(rng.integers(n * (n - 1))), n - 1) for _ in range(50)]
            assert block == [[i, j + (j >= i)] for i, j in raw]


class TestProportionalSampler:
    def test_orthonormal_falls_back_to_uniform(self):
        A, _ = generate(GeneratorSpec("haar_orthonormal", n=3, field="real", seed=2))
        rng = make_rng(7)
        counts = np.zeros(9, dtype=int)
        for _ in range(30_000):
            counts[pair_code(3, sample_pair(A, PROPORTIONAL, rng))] += 1
        offdiag = np.array([counts[i * 3 + j] for i in range(3) for j in range(3) if i != j])
        _, p = scipy_stats.chisquare(offdiag)
        assert p >= 0.001

    def test_matches_squared_inner_product_law(self):
        A = random_state(3, seed=9)
        g = np.abs(A.array.conj().T @ A.array) ** 2
        np.fill_diagonal(g, 0.0)
        expected = g.ravel() / g.sum()
        rng = make_rng(11)
        draws = 60_000
        counts = np.zeros(9, dtype=int)
        for _ in range(draws):
            counts[pair_code(3, sample_pair(A, PROPORTIONAL, rng))] += 1
        keep = expected > 0
        _, p = scipy_stats.chisquare(counts[keep], draws * expected[keep])
        assert p >= 0.001


def reference_pick(w, u):
    """The pair rng.choice(n * n, p=w.ravel() / w.sum()) picks with the
    double u: a right search of u in the normalized cumulative sum."""
    cdf = np.cumsum(w.ravel() / w.sum())
    k = int(np.searchsorted(cdf / cdf[-1], u, side="right"))
    return divmod(k, w.shape[0])


def spread_weights(n, seed):
    """Symmetric weights 10^U(-12, 0) off the diagonal, zero on it."""
    w = np.triu(10.0 ** np.random.default_rng(seed).uniform(-12.0, 0.0, (n, n)), 1)
    return w + w.T


def one_pair_state(n):
    """Unit columns e_k, but for column 1, which leans on column 0: the
    only nonzero inner product is <a_0, a_1> = 0.6."""
    entries = np.eye(n)
    entries[:2, 1] = (0.6, 0.8)
    return build_unit_column_matrix(entries)


class FixedDouble:
    """A stand-in generator whose random() always returns u; it has no
    other draw, so a sampler that asks for one fails."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestProportionalDraw:
    """_draw_pair's row-then-column search against the cdf search of
    rng.choice, from the same single double."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 8, 32, 128])
    def test_picks_and_stream_match_rng_choice(self, n, field):
        A = random_state(n, 40 + n, field)
        for w in (_weights(A.array.conj().T @ A.array), spread_weights(n, n)):
            # the reference is rng.choice's own pick
            for seed in range(3):
                k = int(make_rng(seed).choice(n * n, p=w.ravel() / w.sum()))
                assert reference_pick(w, make_rng(seed).random()) == divmod(k, n)
            rng, twin = make_rng(n), make_rng(n)
            for _ in range(200):
                pair, fell_back = _draw_pair(n, PROPORTIONAL, rng, w=w)
                assert not fell_back and pair == reference_pick(w, twin.random())
                # the draw took exactly one double: both streams are in step
                assert rng.random() == twin.random()

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_one_nonzero_pair(self, n):
        A = one_pair_state(n)
        picks = {sample_pair(A, PROPORTIONAL, make_rng(seed)) for seed in range(60)}
        assert picks == {(0, 1), (1, 0)}

    def test_fallback_decides_on_the_largest_inner_product(self):
        # the weights are |<a_i, a_j>|^2, and the rule is max |<a_i, a_j>| < 1e-15
        below = np.nextafter(1e-15, 0.0)
        for g, falls_back in ((below, True), (1e-15, False), (1.1e-15, False)):
            w = np.full((3, 3), g * g)
            np.fill_diagonal(w, 0.0)
            assert _draw_pair(3, PROPORTIONAL, make_rng(0), w=w)[1] == falls_back

    @pytest.mark.parametrize("n", [2, 3, 8, 128])
    def test_fallback_guard_on_the_row_total(self, n):
        # w.max() is read only when the total is below 4 n^2 1e-30: weights
        # on one pair either side of that bound, and all-equal weights either
        # side of the fallback rule, decide as max |g| < 1e-15 alone does
        bound = 4 * n * n * tol.PROPORTIONAL_FALLBACK_ABS**2
        inputs = []
        for total in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0)):
            w = np.zeros((n, n))
            w[0, 1] = w[1, 0] = total / 2
            inputs.append(w)
        for g in (np.nextafter(1e-15, 0.0), 1e-15):
            w = np.full((n, n), g * g)
            np.fill_diagonal(w, 0.0)
            inputs.append(w)
        for w in inputs:
            falls_back = math.sqrt(w.max()) < tol.PROPORTIONAL_FALLBACK_ABS
            rng, twin = make_rng(n), make_rng(n)
            pair, fell_back = _draw_pair(n, PROPORTIONAL, rng, w=w)
            assert fell_back == falls_back
            if falls_back:
                assert pair == _draw_pair(n, UNIFORM, twin)[0]
            else:
                assert pair == reference_pick(w, twin.random())
            assert rng.random() == twin.random()
        assert [math.sqrt(w.max()) < 1e-15 for w in inputs] == [False] * 3 + [True, False]

    def test_nan_weight_does_not_fall_back(self):
        # a NaN weight fails max |g| < 1e-15 and the total's bound alike; the
        # draw takes its double (FixedDouble has no uniform draw to fall back
        # on), and the search of a NaN then runs off the table
        w = np.full((3, 3), 1e-40)
        w[0, 1] = np.nan
        with pytest.raises(IndexError):
            _draw_pair(3, PROPORTIONAL, FixedDouble(0.5), w=w)

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_roundoff_clamp_lands_on_a_positive_weight(self, u):
        # at u = 1 - 2^-53 the column search of some of these runs past the
        # end of its row: in row 7, whose last entry is the diagonal, and in
        # row 6 of a matrix whose last row and column weigh nothing
        spread = [spread_weights(8, seed) for seed in range(200)]
        inputs = spread + [np.pad(w[:-1, :-1], (0, 1)) for w in spread]
        inputs += [_weights(A.array.T @ A.array) for A in map(one_pair_state, (2, 3, 8))]
        for w in inputs:
            i, j = _draw_pair(len(w), PROPORTIONAL, FixedDouble(u), w=w)[0]
            assert i != j and w[i, j] > 0.0


class Scripted:
    """A stand-in generator: random() returns u and integers(high) high // 3, and
    takes records each call, so that two draws compare by what they took."""

    def __init__(self, u):
        self.u, self.takes = u, []

    def random(self):
        self.takes.append("random")
        return self.u

    def integers(self, high, size=None):
        self.takes.append(("integers", high))
        return high // 3


class TestCertifiedDraw:
    """_draw_pair and the stacked _draw_pairs against _exact_pair, the rule
    itself: the same pair, or the same error, and the same draws taken from the
    generator, with _exact_pair run only where the total lies within the margin
    of the fallback's 4 n^2 1e-30, is not finite, or the double lands within a
    few ulps of a boundary."""

    @staticmethod
    def weights(n, field, seed, shape, total):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        if field == "complex":
            a = a + 1j * rng.standard_normal((n, n))
        a /= np.linalg.norm(a, axis=0)
        w = _weights(a.conj().T @ a)
        if shape == "zero rows":  # columns orthogonal to all others
            w[:, : (n - 1) // 2] = w[: (n - 1) // 2] = 0.0
        elif shape == "ties":
            w[w > 0] = 0.25
        elif shape == "nan":
            w[n - 1, 0] = np.nan
        bound = 4 * n * n * tol.PROPORTIONAL_FALLBACK_ABS**2
        scale = {None: 1.0, "above": 1 + 2.0**-20, "at": 1.0, "below": 1 - 2.0**-20}[total]
        if total is not None and shape != "nan":
            w *= bound * scale / np.add.reduce(w, axis=1).sum()
        return w

    @staticmethod
    def doubles(w, at, seed, ulps):
        """One generic double, or for each row boundary (at "row") or each boundary
        in one row (at "column") of _exact_pair's sums the double whose x lands
        there, moved by ulps."""
        rng = np.random.default_rng(seed)
        if at == "generic":
            return [rng.random()]
        cdf = np.add.reduce(w, axis=1).cumsum()
        if at == "row":
            marks = cdf
        else:
            i = int(rng.choice(np.flatnonzero(np.add.reduce(w, axis=1))))
            marks = (cdf[i - 1] if i else 0.0) + w[i].cumsum()
        us = []
        for mark in (marks / cdf[-1]).tolist():
            for _ in range(abs(ulps)):
                mark = np.nextafter(mark, math.copysign(2.0, ulps))
            us.append(min(max(float(mark), 0.0), 1.0 - 2.0**-53))
        return us

    @staticmethod
    def outcome(draw, u):
        gen = Scripted(u)
        try:
            result = draw(gen)
        except IndexError as exc:
            result = type(exc)
        return result, gen.takes

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 160), field=st.sampled_from(["real", "complex"]),
           seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["gram", "zero rows", "ties", "nan"]),
           total=st.sampled_from([None, "above", "at", "below"]),
           at=st.sampled_from(["generic", "row", "column"]), ulps=st.integers(-3, 3))
    @example(n=160, field="complex", seed=1, shape="gram", total=None, at="column", ulps=0)
    @example(n=2, field="real", seed=2, shape="ties", total="at", at="generic", ulps=0)
    @example(n=9, field="real", seed=3, shape="zero rows", total="below", at="row", ulps=-3)
    def test_same_pair_and_stream(self, n, field, seed, shape, total, at, ulps):
        at = "generic" if shape == "nan" else at
        w = self.weights(n, field, seed, shape, total)
        exact, stack = process._exact_pair, np.stack([w, w])

        def stacked(gen):
            # chain 1 of a stack of two, gathered
            pairs, fell = process._draw_pairs(PROPORTIONAL, [None, gen], stack, [1])
            return tuple(pairs[0].tolist()), bool(fell[0])

        spied = []
        with mock.patch.object(process, "_exact_pair",
                               lambda *args: spied.append(args) or exact(*args)):
            for u in self.doubles(w, at, seed, ulps):
                want = self.outcome(lambda gen: exact(n, gen, w), u)
                assert self.outcome(lambda gen: _draw_pair(n, PROPORTIONAL, gen, w), u) == want
                assert self.outcome(stacked, u) == want
                # both forms run the exact rule where a margin cannot decide, and only there
                exact_path = shape == "nan" or total == "at" or at != "generic"
                assert len(spied) == 2 * exact_path
                del spied[:]


class TestGreedySampler:
    def test_tie_break_on_angle_matrix(self):
        rng = make_rng(0)
        assert sample_pair(angle_matrix(), GREEDY, rng) == (0, 1)

    def test_picks_largest_inner_product(self):
        # |<a0,a2>| = 0.9 dominates; ties (0,2)/(2,0) break to smallest i
        entries = np.array(
            [[1.0, 0.0, 0.9], [0.0, 1.0, 0.3], [0.0, 0.0, np.sqrt(0.1)]]
        )
        A = build_unit_column_matrix(entries)
        assert sample_pair(A, GREEDY, make_rng(0)) == (0, 2)

    def test_deterministic(self):
        A = random_state(5, seed=3)
        picks = {sample_pair(A, GREEDY, make_rng(s)) for s in range(5)}
        assert len(picks) == 1

    def test_orthonormal_picks_first_pair_not_the_diagonal(self):
        # every inner product is zero: the tie rule gives (0, 1), never (0, 0)
        A = build_unit_column_matrix(np.eye(3))
        assert sample_pair(A, GREEDY, make_rng(0)) == (0, 1)
        traj = run_chain(A, steps=5, kind=GREEDY, seed=0)
        assert np.all(traj.phi == 0.0)
        assert np.array_equal(traj.final_matrix.array, A.array)



def test_unknown_sampler_kind_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown sampler kind 'bogus'; expected one of"):
        sample_pair(random_state(3, seed=1), "bogus", make_rng(0))

class TestRunChain:
    def test_orthonormal_fixed_point(self):
        A = build_unit_column_matrix(np.eye(3))
        traj = run_chain(A, steps=50, kind=UNIFORM, seed=4)
        assert np.all(traj.phi == 0.0)
        assert np.array_equal(traj.final_matrix.array, A.array)
        assert traj.t_star == 0

    def test_two_by_two_single_step_orthogonalizes(self):
        for seed in (1, 2, 3):
            for kind in (UNIFORM, PROPORTIONAL, GREEDY):
                traj = run_chain(angle_matrix(), steps=1, kind=kind, seed=seed)
                assert traj.phi[1] <= 1e-12

    def test_record_count_and_t0(self):
        traj = run_chain(random_state(4, 5), steps=20, seed=1, metrics_stride=7)
        assert len(traj.phi) == 21
        # t = 0 draws no pair: pairs[t - 1] belongs to step t
        assert traj.pairs.shape == (20, 2) and traj.inner_abs.shape == (20,)
        # records at t = 0, on the stride grid and at the final step
        assert traj.grid == [0, 7, 14, 20]
        assert len(traj.sigma_min) == len(traj.kappa) == len(traj.gram_offdiag) == 4

    def test_snapshot_grid_is_record_grid(self):
        # 7 does not divide 20, so the final step is added to the grid
        A = random_state(4, 5)
        traj = run_chain(A, steps=20, seed=1, metrics_stride=7)
        assert traj.grid == _record_grid(20, 7) == [0, 7, 14, 20]
        for k, t in enumerate(traj.grid):
            # the chain's state after step t: the kept phi against a full
            # recompute, the recorded columns bit for bit
            M = run_chain(A, t, seed=1).final_matrix
            assert traj.phi[t] == pytest.approx(potential_phi(M), rel=1e-12)
            kappa, sigma = condition_number(M)
            assert (traj.sigma_min[k], traj.kappa[k], traj.gram_offdiag[k]) == (
                sigma[-1], kappa, gram_offdiag_fro(M)
            )

    def test_reproducible_bit_identical(self):
        A = random_state(5, 8)
        t1 = run_chain(A, steps=300, kind=UNIFORM, seed=99, metrics_stride=50)
        t2 = run_chain(A, steps=300, kind=UNIFORM, seed=99, metrics_stride=50)
        assert np.array_equal(t1.phi, t2.phi)
        assert np.array_equal(t1.final_matrix.array, t2.final_matrix.array)
        assert np.array_equal(t1.pairs, t2.pairs)

    def test_different_seed_differs(self):
        A = random_state(5, 8)
        t1 = run_chain(A, steps=100, seed=1)
        t2 = run_chain(A, steps=100, seed=2)
        assert not np.array_equal(t1.phi, t2.phi)

    def test_degenerate_pair_aborts_with_diagnostic(self):
        A = angle_matrix(1e-7)
        with pytest.raises(ChainAbortError) as err:
            run_chain(A, steps=5, seed=1)
        assert err.value.step == 1
        assert err.value.partial_trajectory is not None
        assert err.value.inner_abs > 1.0 - 1e-12

    def test_aborted_chain_keeps_the_recorded_prefix(self):
        # columns 0 and 1 are nearly parallel; seed 3 draws them at step 4
        A = build_unit_column_matrix(
            [[1.0, np.cos(1e-7), 0.3], [0.0, np.sin(1e-7), 0.2], [0.0, 0.0, 0.9]],
            normalize=True,
        )
        with pytest.raises(ChainAbortError) as err:
            run_chain(A, steps=10, seed=3, metrics_stride=2)
        partial = err.value.partial_trajectory
        assert err.value.step == 4
        assert len(partial.phi) == err.value.step
        assert len(partial.pairs) == len(partial.inner_abs) == err.value.step - 1
        assert partial.grid == [0, 2]
        assert len(partial.sigma_min) == len(partial.kappa) == len(partial.gram_offdiag) == 2
        assert err.value.pair == (0, 1) and err.value.inner_abs == 0.9999999999999952
        # the matrix before the failing step, and the counters up to it
        assert np.array_equal(partial.final_matrix.array, [
            [0.9999999999999998, 0.999999999999995, -2.1693042681035958e-08],
            [4.705881007612464e-09, 9.999999999999982e-08, 0.21693042681035887],
            [2.1176467710726454e-08, 0.0, 0.9761870670746847],
        ])
        # no refresh came due in three steps; the running bound is eps times
        # the sum of their condition estimates, about 2.5e7 each
        assert partial.kernel == KernelStats(0, 0, 0.0, 0, 1.6714910508928036e-08)

    def test_usage_errors(self):
        A = angle_matrix()
        with pytest.raises(UsageError):
            run_chain(A, steps=-1, seed=1)
        with pytest.raises(UsageError):
            run_chain(A, steps=1, seed=1, metrics_stride=0)
        with pytest.raises(UsageError):
            run_chain(A, steps=1, kind="roundrobin", seed=1)

    @pytest.mark.parametrize(
        "run",
        [
            lambda A: run_cosolve(A, np.ones(2), (1.5, 1)),
            lambda A: run_cosolve(A, np.ones(2), (1, 1, 1)),
            lambda A: run_cosolve(A, np.ones(2), (1, 1), 2.5),
            lambda A: run_chain(A, 2.5),
            lambda A: run_chain(A, 10, metrics_stride=1.5),
            lambda A: run_ensemble(A, 10, UNIFORM, 2.5, 1),
        ],
        ids=["cosolve-ratio-float", "cosolve-ratio-triple", "cosolve-steps-float",
             "chain-steps-float", "chain-stride-float", "ensemble-replicates-float"],
    )
    def test_malformed_counts_are_usage_errors(self, run):
        # one integer check names each malformed count before range() or a
        # list repeat fails on it with a bare TypeError or ValueError
        with pytest.raises(UsageError, match="must be"):
            run(angle_matrix())


class TestStartRecord:
    """condition_number, and through it the t = 0 record, reads the singular
    values a validated start kept from its rank check; a wrapped start
    takes one SVD."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_kept_sigma_gives_the_bits_of_the_stack_svd(self, n, field):
        for seed in range(2):
            A = random_state(n, seed, field)
            wrapped = ColumnMatrix._wrap(np.array(A.array, order="F"), A.field)
            assert A._sigma is not None and not A._sigma.flags.writeable
            assert wrapped._sigma is None
            for kind in (UNIFORM, PROPORTIONAL):
                kept = run_chain(A, steps=3, kind=kind, seed=seed)
                fresh = run_chain(wrapped, steps=3, kind=kind, seed=seed)
                for name in ("phi", "pairs", "sigma_min", "kappa", "gram_offdiag"):
                    assert np.array_equal(getattr(kept, name), getattr(fresh, name))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_condition_number_of_kept_and_wrapped_agree(self, n, field):
        for seed in range(2):
            A = random_state(n, seed, field)
            wrapped = ColumnMatrix._wrap(np.array(A.array, order="F"), A.field)
            kappa, sigma = condition_number(A)
            kappa_wrapped, sigma_wrapped = condition_number(wrapped)
            assert sigma is A._sigma and kappa == kappa_wrapped
            assert np.array_equal(sigma, sigma_wrapped)

    @pytest.mark.parametrize("kind", ["haar_orthonormal", "gaussian_normalized",
                                      "prescribed_spectrum", "near_singular"])
    def test_generate_takes_one_svd(self, kind, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        params = {"prescribed_spectrum": {"sigma": (1.0, 0.5, 0.1, 0.01)},
                  "near_singular": {"eta": 1e-6}}.get(kind, {})
        for field in ("real", "complex"):
            A, s = generate(GeneratorSpec(kind, n=4, field=field, seed=3, **params))
            assert s.sigma is A._sigma
        assert len(calls) == 2


def near_singular_state(n, seed, field="real", eta=1e-10):
    A, _ = generate(GeneratorSpec("near_singular", n=n, field=field, seed=seed, eta=eta))
    return A


class TestKeptStart:
    """A validated start keeps its inverse, row norms, distances and path
    flag (metrics._start_distances) from first use; every chain stack from
    it copies them in place of a recompute, and a wrapped start keeps none."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n,start", [(2, random_state), (8, random_state),
                                         (32, random_state), (128, random_state),
                                         (8, near_singular_state), (32, near_singular_state)])
    def test_kept_start_is_the_bits_of_a_fresh_recompute(self, n, start, field):
        A = start(n, 3, field)
        kept = metrics._start_distances(A)
        assert A._start is kept and metrics._start_distances(A) is kept
        fresh = metrics._distances_full(np.array(A.array, order="F")[None])
        for values, fresh_values in zip(kept, fresh, strict=True):
            assert not values.flags.writeable
            assert values.dtype == fresh_values.dtype
            assert np.array_equal(values, fresh_values, equal_nan=True)
        # the projection path for a planted distance 1e-10, the inverse rows otherwise
        assert bool(kept[3][0]) == (start is random_state)
        d = leave_one_out_distances(A)
        assert d.flags.writeable and np.array_equal(d, kept[2][0])
        wrapped = ColumnMatrix._wrap(np.array(A.array, order="F"), A.field)
        assert np.array_equal(metrics._start_distances(wrapped)[2], kept[2])
        assert wrapped._start is None

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n,start", [(8, random_state), (32, random_state),
                                         (8, near_singular_state)])
    def test_chain_from_a_kept_start_matches_a_wrapped_copy(self, n, start, field):
        A = start(n, 5, field)
        for kind in (UNIFORM, PROPORTIONAL):
            # the wrapped copy first, so the kept start is filled by run_chain itself
            wrapped = ColumnMatrix._wrap(np.array(A.array, order="F"), A.field)
            fresh = run_chain(wrapped, steps=70, kind=kind, seed=2, metrics_stride=20)
            kept = run_chain(A, steps=70, kind=kind, seed=2, metrics_stride=20)
            assert A._start is not None and wrapped._start is None
            assert_same_trajectory(kept, fresh)

    def test_generate_chains_and_cosolve_take_one_inverse(self, monkeypatch):
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: calls.append(1) or inv(*a, **k))
        A, s = generate(GeneratorSpec("gaussian_normalized", n=32, seed=4))
        for kind in (UNIFORM, PROPORTIONAL):
            traj = run_chain(A, steps=20, kind=kind, seed=1)
            assert traj.phi[0] == s.phi and traj.kernel.inverse_refreshes == 0
        _, final = run_cosolve(A, np.ones(32), steps=20, seed=1)
        assert final.kernel.inverse_refreshes == 0
        assert len(calls) == 1


class TestDetectTStar:
    def _traj(self, phis, n=2):
        steps = len(phis) - 1
        return Trajectory(
            n=n, phi=np.array(phis),
            pairs=np.tile([0, 1], (steps, 1)), inner_abs=np.zeros(steps), grid=[],
            sigma_min=np.empty(0), kappa=np.empty(0), gram_offdiag=np.empty(0),
        )

    def test_immediate_when_starting_low(self):
        assert detect_t_star(self._traj([0.5, 0.4])) == 0

    def test_absent_when_never_crossing(self):
        assert detect_t_star(self._traj([2.0, 1.5, 0.8])) is None

    def test_scan_example(self):
        # inflection(2) = log 2 = 0.6931...
        t_star = detect_t_star(self._traj([1.0, 0.8, 0.6]))
        assert t_star == 2 and type(t_star) is int

    def test_phi_rises_read_off_phi(self):
        # rises of 0.5 and 0.8 count; 5e-11 is inside the 1e-10 slack
        traj = self._traj([1.0, 1.5, 1.2, 1.2 + 5e-11, 2.0])
        assert traj.monotonicity_violations == 2
        assert traj.worst_phi_rise == 2.0 - (1.2 + 5e-11)
        flat = self._traj([1.0, 0.9])
        assert (flat.monotonicity_violations, flat.worst_phi_rise) == (0, 0.0)

    def test_empty_phi(self):
        # no rises on an empty phi; t* has no step to read it off
        traj = self._traj([0.0])
        traj.phi = np.empty(0)
        assert (traj.monotonicity_violations, traj.worst_phi_rise) == (0, 0.0)
        with pytest.raises(UsageError, match="no recorded steps"):
            detect_t_star(traj)

    def test_phi_rises_match_the_scalar_rule(self):
        A, _ = generate(GeneratorSpec("near_singular", n=4, field="real", seed=5, eta=1e-3))
        traj = run_chain(A, steps=400, seed=17)
        phi = traj.phi.tolist()
        rises = [new - old for old, new in zip(phi, phi[1:]) if new > old + 1e-10]
        assert rises and traj.monotonicity_violations == len(rises)
        assert traj.worst_phi_rise == max(rises)

    def test_matches_chain_field(self):
        A, _ = generate(GeneratorSpec("near_singular", n=4, field="real", seed=5, eta=1e-3))
        traj = run_chain(A, steps=400, seed=17)
        assert detect_t_star(traj) == traj.t_star
        if traj.t_star is not None:
            assert traj.phi[traj.t_star] < inflection(4)
            assert np.all(traj.phi[: traj.t_star] >= inflection(4))


class TestKernelCounters:
    @pytest.mark.parametrize("n,steps", [(4, 2 * tol.INVERSE_REFRESH_STEPS + 5), (32, 1000)])
    def test_refresh_deferred_on_a_well_conditioned_chain(self, n, steps):
        # the running bound eps sum_t est_t stays far below the slack
        # n max(1e-8, n eps est) at every checkpoint, so none refreshes; the
        # kept phi still matches a full recompute as closely as a refresh saw
        traj = run_chain(random_state(n, 31), steps, UNIFORM, seed=3)
        assert traj.kernel.inverse_refreshes == 0
        assert traj.kernel.projection_fallbacks == 0
        assert traj.kernel.worst_refresh_drift == 0.0
        assert 0.0 < traj.kernel.worst_drift_bound <= 1e-3 * n * tol.DISTANCE_METHOD_REL
        assert abs(traj.phi[-1] - potential_phi(traj.final_matrix)) <= 1e-12

    def test_ill_conditioned_steps_take_the_projection_path(self):
        A, _ = generate(GeneratorSpec("near_singular", n=8, field="real", seed=7, eta=1e-10))
        traj = run_chain(A, 20, UNIFORM, seed=3)
        assert traj.kernel.projection_fallbacks > 0
        # every step keeps the distances and recomputes d_j by projection;
        # 20 steps reach neither the refresh interval nor the 1e8 crossing
        assert (traj.kernel.projection_fallbacks, traj.kernel.inverse_refreshes) == (20, 0)

    def test_ensemble_sums_counts_and_keeps_worst_drift(self):
        A, _ = generate(GeneratorSpec("near_singular", n=8, field="real", seed=7, eta=1e-8))
        steps = 2 * tol.INVERSE_REFRESH_STEPS
        stats = run_ensemble(A, steps, UNIFORM, replicates=3, base_seed=5, metrics_stride=steps)
        trajs = [
            run_chain(A, steps, UNIFORM, derive_replicate_seed(5, r), steps) for r in range(3)
        ]
        kernels = [t.kernel for t in trajs]
        assert stats.kernel.inverse_refreshes == sum(k.inverse_refreshes for k in kernels)
        assert stats.kernel.projection_fallbacks == sum(k.projection_fallbacks for k in kernels)
        assert stats.kernel.worst_refresh_drift == max(k.worst_refresh_drift for k in kernels)
        # each replicate starts on the projection path and returns to the
        # inverse path within its first 64 steps (after 59, 42 and 62
        # projection steps): one refresh at that crossing, one 64 steps later
        assert (stats.kernel.projection_fallbacks, stats.kernel.inverse_refreshes) == (
            59 + 42 + 62, 3 * 2
        )

    def test_record_fields_in_summary_order(self):
        assert pairorth.KernelStats is KernelStats
        assert [f.name for f in fields(KernelStats)] == [
            "inverse_refreshes", "projection_fallbacks", "worst_refresh_drift",
            "uniform_fallbacks", "worst_drift_bound",
        ]

    def test_total_of_no_parts_is_zeros(self):
        assert KernelStats.total([]) == KernelStats(0, 0, 0.0, 0)

    def test_total_sums_counts_and_keeps_the_largest_drift(self):
        parts = [KernelStats(3, 0, 1e-12, 0, 2e-9), KernelStats(0, 5, 4e-9, 2, 1e-10),
                 KernelStats(1, 1, 0.0, 7)]
        assert KernelStats.total(parts) == KernelStats(4, 6, 4e-9, 9, 2e-9)


class TestUniformFallbacks:
    def test_proportional_chain_from_the_identity_falls_back_every_step(self):
        A = build_unit_column_matrix(np.eye(3))
        assert run_chain(A, steps=20, kind=PROPORTIONAL, seed=1).kernel.uniform_fallbacks == 20
        stats = run_ensemble(A, steps=20, kind=PROPORTIONAL, replicates=3, base_seed=1)
        assert stats.kernel.uniform_fallbacks == 60

    def test_counts_only_proportional_fallbacks(self):
        A = random_state(4, 5)
        for kind in (UNIFORM, GREEDY):
            assert run_chain(A, steps=30, kind=kind, seed=2).kernel.uniform_fallbacks == 0
        # far from orthonormal the proportional sampler keeps its law; near
        # it every inner product drops below 1e-15 and it falls back
        assert run_chain(A, steps=3, kind=PROPORTIONAL, seed=2).kernel.uniform_fallbacks == 0
        assert run_chain(A, steps=30, kind=PROPORTIONAL, seed=2).kernel.uniform_fallbacks > 0


def ensemble_trajectories(A, steps, replicates, base_seed, stride, kind=UNIFORM):
    """{r: trajectory} of the kept replicates, in the order the sink saw
    them, and the PairOrthError the ensemble raised, if any."""
    seen = {}
    try:
        run_ensemble(A, steps, kind, replicates, base_seed, stride,
                     trajectory_sink=lambda r, traj: seen.setdefault(r, traj))
    except PairOrthError as exc:
        return seen, str(exc)
    return seen, None


def assert_same_trajectory(a, b):
    for name in ("phi", "pairs", "inner_abs", "sigma_min", "kappa", "gram_offdiag"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.grid == b.grid
    assert np.array_equal(a.final_matrix.array, b.final_matrix.array)
    assert a.kernel == b.kernel


def assert_stack_matches_run_chain(A, steps, replicates, base_seed, stride, kind=UNIFORM):
    """Each replicate of a stacked run_ensemble with the sampler kind
    against run_chain alone on its seed; returns the stacked trajectories."""
    record = _replicate_bytes(A.n, steps, len(_record_grid(steps, stride)))
    assert _ensemble_chunks(replicates, record) == [range(replicates)]
    stacked, error = ensemble_trajectories(A, steps, replicates, base_seed, stride, kind)
    kept = []
    for r in range(replicates):
        try:
            alone = run_chain(A, steps, kind, derive_replicate_seed(base_seed, r), stride)
        except ChainAbortError:
            continue
        kept.append(r)
        assert_same_trajectory(stacked[r], alone)
    assert list(stacked) == kept
    return stacked, error


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n,count", [(2, 5), (8, 50), (32, 20), (128, 4)])
def test_stacked_lapack_calls_match_per_matrix_calls(n, count, field):
    """A stack's refresh and grid record make one call over its chains'
    matrices, and each chain must get the bits of the call on its matrix
    alone: np.linalg.inv (with the row norms and the Frobenius norm the
    refresh rule reads off it), np.linalg.svd(compute_uv=False) and the
    Gram off-diagonal norm. numpy does not guarantee this. It holds because
    LAPACK (and BLAS) runs once per matrix in a loop over the batch, as it
    does with numpy 2.4 and its bundled OpenBLAS 0.3.31. Where it fails,
    stacked results leave the bits of per-matrix calls, and the golden
    outputs with them."""
    # the kernel's layout: chain k's columns are the rows of cols[k]
    cols = np.stack([
        generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=s))[0].array.T
        for s in range(count)
    ])
    inv = np.linalg.inv(cols.mT)
    sigma = np.linalg.svd(cols.mT, compute_uv=False)
    row_norms = np.linalg.norm(inv, axis=2)
    inv_fro = np.sqrt(_sq_norms(inv.reshape(count, n * n)))
    offdiag = _gram_offdiag_fro(cols)
    for k in range(count):
        A = np.array(cols[k].T, order="F")
        inv_k = np.linalg.inv(A)
        assert np.array_equal(inv[k], inv_k)
        assert np.array_equal(row_norms[k], np.linalg.norm(inv_k, axis=1))
        assert inv_fro[k] == np.linalg.norm(inv_k)
        assert np.array_equal(sigma[k], np.linalg.svd(A, compute_uv=False))
        g = A.conj().T @ A
        g[np.diag_indices(n)] -= 1.0
        assert offdiag[k] == np.linalg.norm(g)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [4, 8, 32, 128])
def test_stacked_weight_rows_match_per_chain_products(n, field):
    """The vectorized step takes row i of A^H A for each of its chains a
    from one batched product over the gathered columns, and each chain must
    get the bits of orth's arr[:, i].conj() @ arr on its matrix alone, so
    that weighted chains keep the bits run_chain gives them. numpy does not
    guarantee this; it holds with numpy 2.4 and its bundled OpenBLAS 0.3.31."""
    count = 7
    cols = np.stack([
        generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=s))[0].array.T
        for s in range(count)
    ])
    rng = np.random.default_rng(n)
    # every chain, and a subset out of order, each with its own column i
    for a in (np.arange(count), np.array([5, 0, 3, 6])):
        i = rng.integers(n, size=a.size)
        rows = (cols[a, i][:, None, :].conj() @ cols[a].mT)[:, 0]
        for k, (r, ik) in enumerate(zip(a, i)):
            arr = cols[r].T
            assert np.array_equal(rows[k], arr[:, ik].conj() @ arr)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [4, 8, 32, 128, 160])
def test_kept_gram_is_the_stacked_product(n, field):
    """A validated start keeps one Gram, the 2-D product of its C-order A^T, and
    a weighted stack's start weights and its t = 0 gram_offdiag record read it:
    it must have the bits of the stacked product the grid records take, and a
    matrix built by _wrap recomputes the same bits."""
    A = random_state(n, n, field)
    gram = A._kept_gram()
    assert gram is A._kept_gram() and not gram.flags.writeable
    cols = np.stack([A.array.T] * 3)
    assert np.array_equal(gram, (cols.conj() @ cols.mT)[1])
    wrapped = ColumnMatrix._wrap(np.array(A.array, order="F"), field)
    assert np.array_equal(wrapped._kept_gram(), gram) and wrapped._gram is None
    assert gram_offdiag_fro(A) == _gram_offdiag_fro(cols[:1])[0]
    stack = process._ChainStack(A, 2, PROPORTIONAL)
    assert np.array_equal(stack.w[1], _weights(cols[0].conj() @ cols[0].T))


@pytest.mark.parametrize("kind", [PROPORTIONAL, GREEDY])
def test_weighted_stack_takes_the_vectorized_step(kind, monkeypatch):
    # 7 chains from a Gaussian start stay on the inverse path, so no step
    # runs the scalar orth, whatever the sampler
    A = random_state(8, 3)
    calls = []
    orth = process._ChainStack.orth
    monkeypatch.setattr(process._ChainStack, "orth",
                        lambda self, *args: calls.append(args) or orth(self, *args))
    stats = run_ensemble(A, 100, kind, 7, 5, 50)
    assert stats.replicates == 7 and stats.kernel.projection_fallbacks == 0
    assert calls == []


class TestStackedEnsemble:
    """run_ensemble steps each chunk as one stack, whatever the sampler;
    every replicate must get the bits run_chain gives its seed."""

    @pytest.mark.parametrize("replicates", [7, 50])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_bit_identical_to_run_chain(self, n, field, replicates):
        stacked, error = assert_stack_matches_run_chain(
            random_state(n, n, field), 150, replicates, 17, 40
        )
        assert error is None and len(stacked) == replicates
        # the inverse path throughout, where the running bound never comes due
        assert all(t.kernel.projection_fallbacks == 0 and t.kernel.inverse_refreshes == 0
                   for t in stacked.values())

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bit_identical_on_an_ill_conditioned_inverse_path(self, field):
        # the criterion-6 instance: condition estimate ~1e6, below the 1e8
        # crossing, so the vectorized inverse path, where running bounds come
        # due and refresh at checkpoints
        A, _ = generate(GeneratorSpec("near_singular", n=8, field=field, seed=7, eta=1e-6))
        stacked, error = assert_stack_matches_run_chain(A, 200, 50, 42, 100)
        assert error is None and len(stacked) == 50
        assert all(t.kernel.projection_fallbacks == 0 for t in stacked.values())
        assert sum(t.kernel.inverse_refreshes > 0 for t in stacked.values()) > STACK_MIN_REPLICATES

    @pytest.mark.parametrize("field,seed,due", [
        ("real", 3, {64: 8, 128: 1}), ("complex", 0, {64: 8, 128: 3}),
    ], ids=["real", "complex"])
    def test_due_chains_refresh_at_checkpoints_through_one_inv(self, field, seed, due, monkeypatch):
        # planted distance 1e-6, condition estimate ~1e6: the running bounds
        # come due at some checkpoints and not at others. No step between
        # checkpoints refreshes, the chains due at one go through one stacked
        # inv, and the kept phi stays within the slack of a full recompute
        K = tol.INVERSE_REFRESH_STEPS
        A, _ = generate(GeneratorSpec("near_singular", n=8, field=field, seed=seed, eta=1e-6))
        seeds = [derive_replicate_seed(42, r) for r in range(8)]
        stack = process._ChainStack(A, len(seeds))
        pairs = np.stack([_uniform_pairs(A.n, make_rng(s), 3 * K) for s in seeds])
        calls, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda arrs: calls.append(len(arrs)) or inv(arrs))
        refreshed, inner_abs = {}, np.empty(len(seeds))
        for t in range(1, 3 * K + 1):
            before, calls[:] = stack.refreshes.sum(), []
            stack.step(pairs[:, t - 1], inner_abs)
            if stack.refreshes.sum() > before:
                refreshed[t] = int(stack.refreshes.sum() - before)
            assert calls == ([refreshed[t]] if t in refreshed else [])
            if t % K == 0:
                for r in range(len(seeds)):
                    kappa, _ = condition_number(stack.matrix(r))
                    slack = A.n * max(tol.DISTANCE_METHOD_REL, A.n * EPS * kappa)
                    assert abs(stack.phi[r] - potential_phi(stack.matrix(r))) <= slack
        assert refreshed == due
        assert stack.live.all() and stack.on_inv.all()

    @pytest.mark.parametrize("field,seed,base_seed,steps,crossed", [
        ("real", 2, 9, 200, 7), ("complex", 2, 10, 120, 6),
    ])
    def test_projection_path_start_crosses_back(self, field, seed, base_seed, steps, crossed):
        # planted distance 1e-10: every replicate starts on the projection
        # path, and `crossed` of the 7 return to the inverse path in time
        A, _ = generate(GeneratorSpec("near_singular", n=6, field=field, seed=seed, eta=1e-10))
        stacked, error = assert_stack_matches_run_chain(A, steps, 7, base_seed, 50)
        assert error is None and len(stacked) == 7
        assert all(t.kernel.projection_fallbacks > 0 for t in stacked.values())
        assert sum(t.kernel.projection_fallbacks < steps for t in stacked.values()) == crossed

    @pytest.mark.parametrize("kind", [PROPORTIONAL, GREEDY])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [5, 8])
    def test_weighted_samplers_bit_identical_to_run_chain(self, n, field, kind):
        # the chains of a stack keep their own weights and take the vectorized step
        stacked, error = assert_stack_matches_run_chain(
            random_state(n, n, field), 150, 7, 17, 40, kind
        )
        assert error is None and len(stacked) == 7

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_weighted_projection_path_start_crosses_back(self, field):
        # planted distance 1e-10: each proportional replicate leaves the
        # projection path after 66 to 141 steps, so for a while one stack
        # holds projection-path and inverse-path chains, each with its weights
        A, _ = generate(GeneratorSpec("near_singular", n=8, field=field, seed=7, eta=1e-10))
        stacked, error = assert_stack_matches_run_chain(A, 200, 7, 9, 50, PROPORTIONAL)
        assert error is None and len(stacked) == 7
        fallbacks = [t.kernel.projection_fallbacks for t in stacked.values()]
        assert 0 < min(fallbacks) < max(fallbacks) < 200

    def test_retired_replicates_match_the_scalar_loop(self, monkeypatch):
        # 3 of the 7 replicates hit a degenerate pair on the projection path
        A, _ = generate(GeneratorSpec("near_singular", n=5, field="real", seed=3, eta=1e-10))
        stacked, error = assert_stack_matches_run_chain(A, 120, 7, 9, 40)
        assert list(stacked) == [0, 1, 2, 5] and error.startswith("3 of 7 replicates aborted")
        monkeypatch.setattr(process, "STACK_MIN_REPLICATES", 8)
        scalar, scalar_error = ensemble_trajectories(A, 120, 7, 9, 40)
        assert list(scalar) == list(stacked) and scalar_error == error

    def test_retired_on_the_inverse_path(self):
        # columns 0 and 1 are nearly parallel; the guard retires 6 of 7
        # replicates inside the vectorized step
        A = build_unit_column_matrix(
            [[1.0, np.cos(1e-7), 0.3], [0.0, np.sin(1e-7), 0.2], [0.0, 0.0, 0.9]],
            normalize=True,
        )
        stacked, error = assert_stack_matches_run_chain(A, 30, 7, 4, 10)
        assert list(stacked) == [6] and error.startswith("6 of 7 replicates aborted")

    def test_chunk_rule(self):
        budget = STACK_BYTES // STACK_MIN_REPLICATES
        ones = [range(r, r + 1) for r in range(50)]
        assert _ensemble_chunks(50, 1000) == [range(50)]
        # a stack smaller than STACK_MIN_REPLICATES steps its chains one by one
        assert _ensemble_chunks(STACK_MIN_REPLICATES - 1, 1000) == [
            range(STACK_MIN_REPLICATES - 1)
        ]
        # the fewest near-equal chunks whose records fit the budget
        chunks = _ensemble_chunks(50, STACK_BYTES // 20)
        assert chunks == [range(0, 17), range(17, 34), range(34, 50)]
        assert _ensemble_chunks(50, budget)[0] == range(0, 4)
        # past the budget for STACK_MIN_REPLICATES, chunks of 3 (and a last 2)
        assert _ensemble_chunks(50, budget + 1) == [range(lo, min(lo + 3, 50))
                                                    for lo in range(0, 50, 3)]
        # past the budget for one replicate, chunks of one
        assert _ensemble_chunks(50, STACK_BYTES + 1) == ones
        # grid points count: 200,000 steps fit at stride 100, not at stride 1
        assert _replicate_bytes(8, 200_000, 2_001) < budget < _replicate_bytes(8, 200_000, 200_001)

    @pytest.mark.parametrize("kind", [UNIFORM, PROPORTIONAL])
    def test_large_n_stacks_stay_near_the_budget(self, kind):
        # 127 complex chains at n = 128, 2 steps: their working arrays (cols,
        # inv and w, 56 n^2 bytes each), not their records, set the chunks
        A = random_state(128, 1, "complex")
        assert [len(c) for c in _ensemble_chunks(127, _replicate_bytes(128, 2, 2))] == [
            32, 32, 32, 31
        ]
        tracemalloc.start()
        try:
            run_ensemble(A, 2, kind, 127, 3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * STACK_BYTES

    def test_default_stride_fits_one_stack(self):
        # 15,000 steps recorded at every step: four replicates step as one stack
        assert _ensemble_chunks(4, _replicate_bytes(8, 15_000, 15_001)) == [range(4)]

    def test_budget_exceeding_steps_take_the_scalar_loop(self, monkeypatch):
        A = random_state(4, 31)
        # four replicates of 60 steps with stride 20 fit, of 61 steps do not
        budget = STACK_MIN_REPLICATES * _replicate_bytes(4, 60, len(_record_grid(60, 20)))
        monkeypatch.setattr(process, "STACK_BYTES", budget)
        stacks = []
        run_stack = process._run_stack
        monkeypatch.setattr(process, "_run_stack", lambda *args: stacks.append(len(args[3])) or run_stack(*args))
        within = run_ensemble(A, 60, UNIFORM, 8, 3, 20)
        assert stacks == [4, 4]  # two chunks of 4
        beyond = run_ensemble(A, 61, UNIFORM, 8, 3, 20)
        assert stacks == [4, 4] + [3, 3, 2]  # below STACK_MIN_REPLICATES: one by one
        alone = [run_chain(A, 61, UNIFORM, derive_replicate_seed(3, r), 20) for r in range(8)]
        assert np.array_equal(beyond.mean_phi, np.mean([t.phi[beyond.t] for t in alone], axis=0))
        assert within.replicates == beyond.replicates == 8


class TestStackCheckpoint:
    """A stack keeps which chains take the vectorized step until a chain
    refreshes, crosses or retires; the vectorized step calls _comes_due only
    where one of them reaches a checkpoint."""

    @pytest.mark.parametrize("n,field,seed,eta,count,base_seed,steps,staggered", [
        # the criterion-6 instance: some chains refresh at a checkpoint, others
        # not, and all stay at multiples of K apart
        (8, "real", 3, 1e-6, 8, 42, 200, False),
        # planted distance 1e-10: each chain's crossing refresh comes at its
        # own step, so their since fall out of step. The first is the stack of
        # test_projection_path_start_crosses_back; in the others a chain is
        # still on the projection path at a checkpoint, and none retires
        (6, "real", 2, 1e-10, 7, 9, 200, True),
        (6, "real", 3, 1e-10, 7, 12, 150, True),
        (6, "complex", 2, 1e-10, 7, 19, 125, True),
    ])
    def test_comes_due_runs_at_the_checkpoints_of_the_set(
        self, n, field, seed, eta, count, base_seed, steps, staggered, monkeypatch
    ):
        K = tol.INVERSE_REFRESH_STEPS
        A = near_singular_state(n, seed, field, eta)
        seeds = [derive_replicate_seed(base_seed, r) for r in range(count)]
        pairs = np.stack([_uniform_pairs(n, make_rng(s), steps) for s in seeds])
        stack, inner_abs = process._ChainStack(A, count), np.empty(count)
        calls, expected, out_of_step = [], [], []
        comes_due = process._ChainStack._comes_due

        def spy(self, rs, est):
            # the scalar step passes one chain, the vectorized step a slice or indices
            if not isinstance(rs, (int, np.integer)):
                calls.append((t, np.arange(count)[rs].tolist()))
            return comes_due(self, rs, est)

        monkeypatch.setattr(process._ChainStack, "_comes_due", spy)
        for t in range(1, steps + 1):
            vectorized = np.flatnonzero(stack.live & stack.on_inv)
            since = stack.since[vectorized] + 1
            if vectorized.size >= STACK_MIN_REPLICATES and (since % K == 0).any():
                expected.append((t, vectorized.tolist()))
                out_of_step.append(np.unique(since % K).size > 1)
            stack.step(pairs[:, t - 1], inner_abs)
        assert calls == expected
        assert expected and any(out_of_step) == staggered
        assert stack.live.all()

    def test_retirement_leaves_the_slice_path_mid_run(self, monkeypatch):
        # columns 0 and 1 lie 1e-7 apart, and 2 of 8 replicates draw that pair:
        # replicate 2 retires at step 2, inside the vectorized step of the whole
        # stack, and replicate 5 at step 3, inside the step over the indices of
        # the other 7; the remaining 6 step on by their indices
        rng = np.random.default_rng(1)
        M = rng.standard_normal((6, 6))
        M[:, 1] = M[:, 0] + 1e-7 * np.linalg.norm(M[:, 0]) * rng.standard_normal(6)
        A = build_unit_column_matrix(M, normalize=True)
        selectors = []
        step_inverse = process._ChainStack._step_inverse
        monkeypatch.setattr(process._ChainStack, "_step_inverse",
                            lambda self, a, *args: selectors.append(isinstance(a, slice))
                            or step_inverse(self, a, *args))
        stacked, error = assert_stack_matches_run_chain(A, 150, 8, 2, 50)
        assert list(stacked) == [0, 1, 3, 4, 6, 7] and error.startswith("2 of 8 replicates aborted")
        assert selectors == [True] * 2 + [False] * 148


def chain_or_abort(A, steps, seed, stride):
    """run_chain's trajectory, or the ChainAbortError it raises."""
    try:
        return run_chain(A, steps, UNIFORM, seed, stride)
    except ChainAbortError as exc:
        return exc


def chain_outcome(A, steps, kind, seed, stride, replicates=1):
    """run_chain's trajectory, or the error it raises; for more replicates,
    run_ensemble's kept trajectories and the error it raised, if any."""
    if replicates > 1:
        return ensemble_trajectories(A, steps, replicates, seed, stride, kind)
    try:
        return run_chain(A, steps, kind, seed, stride)
    except (PairOrthError, np.linalg.LinAlgError) as exc:
        return exc


def assert_same_outcome(a, b):
    """The same trajectory, or the same error with the same partial trajectory;
    for ensembles the same kept trajectories and error."""
    assert type(a) is type(b)
    if isinstance(a, tuple):
        assert list(a[0]) == list(b[0]) and a[1] == b[1]
        for r in a[0]:
            assert_same_trajectory(a[0][r], b[0][r])
        return
    if isinstance(a, ChainAbortError):
        assert (a.step, a.pair, a.inner_abs) == (b.step, b.pair, b.inner_abs)
        a, b = a.partial_trajectory, b.partial_trajectory
    elif isinstance(a, Exception):
        assert (str(a), getattr(a, "column", None)) == (str(b), getattr(b, "column", None))
        return
    assert_same_trajectory(a, b)


# one stretch call: its steps, whether it was taken, the refreshes and
# proportional fallbacks it made, the grid records it took, whether any of
# its steps went by level, and whether its live chains sat on both paths
Stretch = namedtuple("Stretch", "steps taken refreshed fell recorded by_level both_paths")


class TestStretch:
    """A stack of fewer than STACK_MIN_REPLICATES chains steps from one
    checkpoint to the next by stretch, recording the grid points inside it:
    uniform inverse-path chains by level where their levels average
    STACK_MIN_REPLICATES steps, any other chain by _move, making only the
    updates the next step reads; d, phi, the estimate and the refresh rule
    are read off the stretch. Every chain must get the bits of the same
    chains with every stretch declined, so through orth step by step, with
    its refreshes, crossings, aborts, errors and records."""

    @staticmethod
    def spy(monkeypatch):
        """Spy on stretch; returns the list of its calls, as Stretch."""
        stretch, calls = process._ChainStack.stretch, []

        def spy(self, pairs, inner_abs, phi, rngs, stops, record):
            live = self.live.copy()
            both_paths = 0 < self.on_inv[live].sum() < live.sum()
            before = int(self.refreshes.sum()), int(self.uniform_fallbacks.sum())
            recorded, levels, orth_slots = [], [], self._orth_slots
            self._orth_slots = lambda *args: levels.append(args) or orth_slots(*args)
            try:
                taken = stretch(self, pairs, inner_abs, phi, rngs, stops,
                                lambda k: recorded.append(k) or record(k))
            finally:
                del self._orth_slots
            calls.append(Stretch(pairs.shape[1], taken, int(self.refreshes.sum()) - before[0],
                                 int(self.uniform_fallbacks.sum()) - before[1], len(recorded),
                                 bool(levels), both_paths))
            return taken

        monkeypatch.setattr(process._ChainStack, "stretch", spy)
        return calls

    def by_stretch_and_by_step(self, A, steps, kind, seed, stride, monkeypatch, replicates=1):
        """The chains by stretch, checked against the same chains with every
        stretch declined, and the stretch calls of the first run."""
        calls = self.spy(monkeypatch)
        by_stretch = chain_outcome(A, steps, kind, seed, stride, replicates)
        monkeypatch.setattr(process._ChainStack, "stretch", lambda *args: False)
        assert_same_outcome(by_stretch, chain_outcome(A, steps, kind, seed, stride, replicates))
        return by_stretch, calls

    @pytest.mark.parametrize("kind", [UNIFORM, PROPORTIONAL, GREEDY])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [4, 8, 32, 128])
    @pytest.mark.parametrize("eta", [None, 1e-10])
    def test_bit_identical_to_step_by_step(self, n, field, kind, eta, monkeypatch):
        # stride 50: stretches end at the checkpoints 64, 128, ... and the end,
        # with the grid points 50, 100, ... inside; from the planted distance
        # 1e-10 they start on the projection path (n = 4 aborts at step 19)
        A = random_state(n, 3, field) if eta is None else near_singular_state(n, 1, field, eta)
        steps = 70 if n == 128 else 200
        result, calls = self.by_stretch_and_by_step(A, steps, kind, 5, 50, monkeypatch)
        assert any(c.taken for c in calls) or isinstance(result, ChainAbortError)
        if kind == UNIFORM and eta is None:
            # no refresh: a stretch to each checkpoint and one to the end; a
            # level holds at most 2 pairs at n = 4 and averages under 2 at n = 8
            assert [c.steps for c in calls] == [64] * (steps // 64) + [steps % 64]
            assert all(c.taken for c in calls)
            assert any(c.by_level for c in calls) == (n >= 32)
        else:
            assert not any(c.by_level for c in calls)

    @pytest.mark.parametrize("kind", [UNIFORM, PROPORTIONAL])
    @pytest.mark.parametrize("stride", [1, 4, 7])
    @pytest.mark.parametrize("n", [8, 32])
    def test_records_inside_a_stretch(self, n, stride, kind, monkeypatch):
        # a grid point no longer ends a stretch: the first, of 64 steps, takes
        # the records at the multiples of the stride below 64, the bits of the
        # records taken step by step. Its steps go by level only where the
        # 4 steps between records at n = 32 can share a level
        result, calls = self.by_stretch_and_by_step(random_state(n, 2, "complex"), 200, kind, 3,
                                                    stride, monkeypatch)
        assert len(result.grid) == 200 // stride + 1 + (200 % stride > 0)
        assert calls[0] == Stretch(64, True, 0, 0, 63 // stride, kind == UNIFORM and n == 32
                                   and stride == 4, False)

    @pytest.mark.parametrize("stride", [50, 100])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_records_inside_a_stretch_by_level_at_n_128(self, field, stride, monkeypatch):
        # the large-n chain's shape: a stretch to each checkpoint, every one by
        # level, and the grid points 50, 100, 150 (or 100 alone) inside the
        # stretches; 64, 128 and 192 are not grid points, 200 is recorded after
        result, calls = self.by_stretch_and_by_step(random_state(128, 3, field), 200, UNIFORM, 5,
                                                    stride, monkeypatch)
        assert result.grid == list(range(0, 201, stride))
        assert calls == [Stretch(m, True, 0, 0, k, True, False) for m, k in
                         zip([64, 64, 64, 8], [1, 1, 1, 0] if stride == 50 else [0, 1, 0, 0])]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_refresh_at_a_checkpoint(self, field, monkeypatch):
        # planted distance 1e-6, condition estimate ~1e7: the running bound
        # comes due at a checkpoint after about n^2 steps, which ends a
        # stretch taken by level, with the grid point 550 inside another
        A = near_singular_state(32, 0, field, 1e-6)
        result, calls = self.by_stretch_and_by_step(A, 1100, UNIFORM, 1, 550, monkeypatch)
        assert result.kernel.inverse_refreshes == 1 and result.kernel.projection_fallbacks == 0
        assert [(c.steps, c.taken, c.by_level) for c in calls if c.refreshed] == [(64, True, True)]
        assert sum(c.recorded for c in calls) == 1

    @pytest.mark.parametrize("stride", [100, 10])
    def test_crossing_replays_the_stretch(self, stride, monkeypatch):
        # the start's estimate is just below the 1e8 crossing, and a step of
        # the first stretch takes it above: the stretch replays through orth,
        # which refreshes onto the projection path; at stride 10 the stretch
        # declines after the records it took inside, and the replay takes them again
        A = near_singular_state(32, 0, "real", 2.4e-7)
        est0 = math.sqrt(32 * (1.0 / leave_one_out_distances(A) ** 2).sum())
        assert 0.9e8 < est0 <= tol.DISTANCE_FALLBACK_KAPPA
        result, calls = self.by_stretch_and_by_step(A, 200, UNIFORM, 8, stride, monkeypatch)
        assert calls[0][:2] == (64, False) and result.kernel.projection_fallbacks > 0
        assert (calls[0].recorded > 0) == (stride == 10)

    def test_projection_path_falls_and_checkpoints(self, monkeypatch):
        # planted distance 1e-12 at n = 8: every step stays on the projection
        # path, so a declined stretch is a fall of the estimate by a factor n,
        # and a taken stretch that refreshes does so at its last step
        A = near_singular_state(8, 0, "real", 1e-12)
        result, calls = self.by_stretch_and_by_step(A, 300, UNIFORM, 3, 50, monkeypatch)
        assert result.kernel.projection_fallbacks == 300
        assert any(not c.taken for c in calls)
        assert any(c.taken and c.refreshed for c in calls)

    @pytest.mark.parametrize("stride", [100, 10])
    @pytest.mark.parametrize("kind", [UNIFORM, PROPORTIONAL])
    def test_degenerate_pair_replays_the_stretch(self, kind, stride, monkeypatch):
        # columns 0 and 1 lie 1e-7 apart: the chain draws them in its first
        # stretch (the uniform one at step 26), which declines after the records
        # it took inside, replays and aborts there; the uniform chain's steps go
        # by level until then at stride 100, by _move at stride 10
        result, calls = self.by_stretch_and_by_step(degenerate_pair_state(32), 200, kind, 14,
                                                    stride, monkeypatch)
        assert isinstance(result, ChainAbortError) and result.step < 64
        assert kind != UNIFORM or result.step == 26
        recorded, by_level = (result.step - 1) // stride, kind == UNIFORM and stride == 100
        assert calls == [Stretch(64, False, 0, 0, recorded, by_level, False)]
        assert recorded > 0 or stride == 100

    def test_singularity_error_replays_the_stretch(self, monkeypatch):
        # a QR that finds the matrix singular at step 30 of the first stretch,
        # made to happen by raising where _pair_distances returns one recorded
        # value: the stretch replays, and orth raises the same error
        A = near_singular_state(32, 1, "real", 1e-10)
        pair_distances, seen = process._pair_distances, []
        monkeypatch.setattr(process, "_pair_distances",
                            lambda arr, i, j: seen.append(pair_distances(arr, i, j)) or seen[-1])
        run_chain(A, 40, UNIFORM, 5, 40)
        target = seen[29]

        def singular(arr, i, j):
            d = pair_distances(arr, i, j)
            if d == target:
                raise SingularityError(f"column {j} is numerically in the span of the others",
                                       column=j)
            return d

        monkeypatch.setattr(process, "_pair_distances", singular)
        result, calls = self.by_stretch_and_by_step(A, 100, UNIFORM, 5, 100, monkeypatch)
        assert isinstance(result, SingularityError)
        assert calls == [Stretch(64, False, 0, 0, 0, False, False)]

    def test_proportional_fallback_inside_a_stretch(self, monkeypatch):
        # near orthonormal every inner product drops below 1e-15 and the
        # proportional draw falls back to uniform, inside taken stretches; a
        # stretch that declines after its draws puts back the generators and
        # counts none of its fallbacks
        A = random_state(4, 5)
        result, calls = self.by_stretch_and_by_step(A, 60, PROPORTIONAL, 2, 10, monkeypatch)
        assert result.kernel.uniform_fallbacks > 0
        assert any(c.taken and c.fell for c in calls)
        monkeypatch.undo()
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(process._ChainStack, "_commit", lambda *args: False)
        assert_same_outcome(result, chain_outcome(A, 60, PROPORTIONAL, 2, 10))
        assert calls and not any(c.taken for c in calls)

    @pytest.mark.parametrize("start,steps,stride", [
        ("gaussian", 200, 50), ("near_singular", 1100, 550)])
    def test_stack_of_three(self, start, steps, stride, monkeypatch):
        # three replicates step as one stack, whose stretches end at the first
        # checkpoint of a live chain; from the planted distance 1e-6 a chain's
        # running bound comes due, after which the chains' checkpoints differ
        A = random_state(32, 4, "complex") if start == "gaussian" else near_singular_state(
            32, 0, "real", 1e-6)
        stacked, calls = self.by_stretch_and_by_step(A, steps, UNIFORM, 6, stride, monkeypatch, 3)
        assert stacked[1] is None and any(c.taken and c.by_level for c in calls)
        for r in range(3):
            alone = run_chain(A, steps, UNIFORM, derive_replicate_seed(6, r), stride)
            assert_same_trajectory(stacked[0][r], alone)
        assert (start == "gaussian") == all(t.kernel.inverse_refreshes == 0
                                            for t in stacked[0].values())

    @pytest.mark.parametrize("replicates", [2, 3])
    @pytest.mark.parametrize("kind,eta", [
        (PROPORTIONAL, None), (GREEDY, None), (UNIFORM, 1e-10), (PROPORTIONAL, 1e-10)])
    def test_weighted_and_projection_path_stacks(self, kind, eta, replicates, monkeypatch):
        # each chain of a weighted stack draws from its own generator inside the
        # stretch; from the planted distance 1e-10 the chains start on the
        # projection path, and one of the uniform replicates aborts
        A = random_state(8, 5, "complex") if eta is None else near_singular_state(6, 2, "real", eta)
        (stacked, error), calls = self.by_stretch_and_by_step(A, 200, kind, 5, 50, monkeypatch,
                                                              replicates)
        assert any(c.taken for c in calls) and not any(c.by_level for c in calls)
        assert (error is not None) == (kind == UNIFORM and eta is not None)
        monkeypatch.undo()
        assert_stack_matches_run_chain(A, 200, replicates, 5, 50, kind)

    @pytest.mark.parametrize("field,seed,base_seed", [("real", 2, 9), ("complex", 2, 19)])
    def test_a_stack_on_both_paths_steps_one_by_one(self, field, seed, base_seed, monkeypatch):
        # planted distance 1e-10: the three chains leave the projection path at
        # different steps, and a stretch that finds them on both paths declines
        A, _ = generate(GeneratorSpec("near_singular", n=6, field=field, seed=seed, eta=1e-10))
        (stacked, error), calls = self.by_stretch_and_by_step(A, 200, UNIFORM, base_seed, 50,
                                                              monkeypatch, 3)
        assert error is None and len(stacked) == 3
        assert any(c.taken for c in calls)
        # such a stretch declines before its first step, so before the record
        # at the grid point 100 inside it
        both = [c for c in calls if c.both_paths]
        assert both and all(not c.taken and c.recorded == 0 for c in both)
        monkeypatch.undo()
        assert_stack_matches_run_chain(A, 200, 3, base_seed, 50)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_full_levels_at_n_8(self, field, monkeypatch):
        # 16 rounds of 4 disjoint pairs, each round one level: the only way a
        # level holds STACK_MIN_REPLICATES steps at n = 8
        A = random_state(8, 5, field)
        rng = np.random.default_rng(2)
        pairs = np.concatenate([rng.permutation(8).reshape(4, 2) for _ in range(16)])
        by_level, by_step = process._ChainStack(A, 1), process._ChainStack(A, 1)
        phi, inner_abs = np.empty((2, 64)), np.empty((2, 64))
        levels, orth_slots = [], by_level._orth_slots
        monkeypatch.setattr(by_level, "_orth_slots",
                            lambda *args: levels.append(args) or orth_slots(*args))
        assert by_level.stretch(pairs[None], inner_abs[:1], phi[:1], None, [], None)
        assert len(levels) == 16
        for s, (i, j) in enumerate(pairs.tolist()):
            inner_abs[1, s] = abs(by_step.orth(0, i, j)[0])
            phi[1, s] = by_step.phi[0]
        assert np.array_equal(phi[0], phi[1]) and np.array_equal(inner_abs[0], inner_abs[1])
        for name in ("cols", "inv", "row_sq", "d", "phi", "est_sum", "since"):
            assert np.array_equal(getattr(by_level, name), getattr(by_step, name)), name
        assert by_level.counters(0) == by_step.counters(0)

    @pytest.mark.parametrize("n,stride", [(4, 50), (128, 1)])
    def test_never_by_level_where_it_cannot_pay(self, n, stride, monkeypatch):
        # a level at n = 4 holds 2 pairs, one between stride-1 records one
        # step: every stretch is taken, by _move
        calls = self.spy(monkeypatch)
        run_chain(random_state(n, 1), 60, UNIFORM, 2, stride)
        assert calls == [Stretch(60, True, 0, 0, 59 // stride, False, False)]

    def test_taken_by_stacks_under_the_floor(self, monkeypatch):
        # stacks of one to three take stretches at every stride, stacks of
        # four or more step as one vectorized step, and a stretch shorter than
        # STACK_MIN_REPLICATES steps (here the last 3) goes one by one
        counts, stretch = [], process._ChainStack.stretch
        monkeypatch.setattr(process._ChainStack, "stretch", lambda self, pairs, *args: (
            counts.append((self.count, pairs.shape[1])) or stretch(self, pairs, *args)))
        A = random_state(8, 1)
        for kind in (UNIFORM, PROPORTIONAL, GREEDY):
            for stride in range(1, STACK_MIN_REPLICATES):
                run_chain(A, 67, kind, 2, stride)
            for replicates in (2, 3, 5):
                run_ensemble(A, 60, kind, replicates, 2, 20)
        assert counts == ([(1, 64)] * (STACK_MIN_REPLICATES - 1) + [(2, 60), (3, 60)]) * 3
        counts[:] = []
        run_chain(A, STACK_MIN_REPLICATES - 1, UNIFORM, 2, 1)
        assert counts == []


def stack_outcomes(A, steps, seeds, stride):
    """Each chain of one _run_stack run: its trajectory, or its ChainAbortError."""
    grid = _record_grid(steps, stride)
    run = process._run_stack(A, steps, UNIFORM, seeds, grid)
    return [process._chain_result(grid, run, r) for r in range(len(seeds))]


class TestStackStretch:
    """A stack of STACK_MIN_REPLICATES or more uniform chains, all live and on
    the inverse path, steps by stretch up to each checkpoint: one _orth_slots a
    step over every chain, the checkpoint step too, and one _commit.
    Every chain must get run_chain's bits and the bits of the same stack with
    every stretch declined, through each kind of decline."""

    def by_stretch_and_by_step(self, A, steps, seeds, stride, monkeypatch):
        """The stack's chains by stretch, checked chain by chain against the
        same stack with every stretch declined, and the stretch calls."""
        calls = TestStretch.spy(monkeypatch)
        by_stretch = stack_outcomes(A, steps, seeds, stride)
        with monkeypatch.context() as patch:
            patch.setattr(process._ChainStack, "stretch", lambda *args: False)
            for a, b in zip(by_stretch, stack_outcomes(A, steps, seeds, stride), strict=True):
                assert_same_outcome(a, b)
        return by_stretch, calls

    @pytest.mark.parametrize("replicates", [STACK_MIN_REPLICATES, 50])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_bit_identical_to_run_chain_and_to_step_by_step(self, n, field, replicates,
                                                             monkeypatch):
        # 140 steps at stride 7: two stretches to the checkpoints 64 and 128,
        # each with the records 7, ..., 63 (70, ..., 126) inside and ending
        # with its checkpoint step, then a tail of 12 steps one by one
        A = random_state(n, 2, field)
        seeds = [derive_replicate_seed(9, r) for r in range(replicates)]
        result, calls = self.by_stretch_and_by_step(A, 140, seeds, 7, monkeypatch)
        assert calls == [Stretch(64, True, 0, 0, 9, True, False)] * 2
        monkeypatch.undo()
        stacked, error = assert_stack_matches_run_chain(A, 140, replicates, 9, 7)
        assert error is None
        for r, traj in enumerate(result):
            assert_same_trajectory(traj, stacked[r])

    @staticmethod
    def near_parallel_state():
        """Columns 0 and 1 of a Gaussian n = 6 start 1e-7 apart, on the
        inverse path: a chain that draws that pair before touching either
        column aborts."""
        rng = np.random.default_rng(1)
        M = rng.standard_normal((6, 6))
        M[:, 1] = M[:, 0] + 1e-7 * np.linalg.norm(M[:, 0]) * rng.standard_normal(6)
        return build_unit_column_matrix(M, normalize=True)

    def test_a_degenerate_pair_mid_stretch_replays_it(self, monkeypatch):
        # chain 5 of 8 draws the near-parallel pair at step 12 of the first
        # stretch, after its record at 7. The stretch declines and replays
        # through step, which retires the chain there; the next stretch finds
        # a retired chain and declines before its first step
        seeds = [derive_replicate_seed(22, r) for r in range(8)]
        result, calls = self.by_stretch_and_by_step(self.near_parallel_state(), 140, seeds, 7,
                                                    monkeypatch)
        aborted = [(r, out.step) for r, out in enumerate(result)
                   if isinstance(out, ChainAbortError)]
        assert aborted == [(5, 12)]
        assert calls == [Stretch(64, False, 0, 0, 1, True, False),
                         Stretch(64, False, 0, 0, 0, False, False)]

    def test_a_retired_chain_keeps_the_bits(self, monkeypatch):
        # the same stack: after chain 5 retires, every stretch of the stack
        # declines, and each chain keeps run_chain's bits or abort
        A, seeds = self.near_parallel_state(), [derive_replicate_seed(22, r) for r in range(8)]
        result, calls = self.by_stretch_and_by_step(A, 300, seeds, 50, monkeypatch)
        assert [c.taken for c in calls] == [False] * 4
        for r, out in enumerate(result):
            assert_same_outcome(out, chain_or_abort(A, 300, seeds[r], 50))
        assert [isinstance(out, ChainAbortError) for out in result].count(True) == 1

    def test_a_crossing_mid_stretch_replays_it(self, monkeypatch):
        # the start's estimate is just below the 1e8 crossing: chain 0 of 4
        # crosses it inside the first stretch, which _commit declines after all
        # its steps and records. The replay refreshes the chain onto the
        # projection path, and back by step 64, out of step with the others:
        # the next stretches end at its checkpoint 116, then at theirs, 128
        A = near_singular_state(32, 0, "real", 2.4e-7)
        seeds = [derive_replicate_seed(1, r) for r in range(STACK_MIN_REPLICATES)]
        result, calls = self.by_stretch_and_by_step(A, 140, seeds, 7, monkeypatch)
        assert calls == [Stretch(64, False, 0, 0, 9, True, False),
                         Stretch(52, True, 0, 0, 7, True, False),
                         Stretch(12, True, 0, 0, 2, True, False)]
        assert [out.kernel.projection_fallbacks > 0 for out in result] == [True, False, False,
                                                                          False]

    def test_chains_back_on_the_inverse_path_out_of_step(self, monkeypatch):
        # five n = 8 chains start on the projection path, so the stretches to 64
        # and 128 decline and replay through step. There the chains come back
        # onto the inverse path at different steps, and step's plan at 128
        # counts to chain 3's checkpoint at 138, which ends the next stretch.
        # From then on every stretch is taken, and each checkpoint step must
        # still test _comes_due, as run_chain does
        A = near_singular_state(8, 3, "real", 1e-8)
        seeds = [derive_replicate_seed(1, r) for r in range(5)]
        result, calls = self.by_stretch_and_by_step(A, 400, seeds, 50, monkeypatch)
        assert [c.taken for c in calls[:3]] == [False, False, True]
        assert all(c.taken for c in calls[2:]) and len(calls) > 10
        for r, out in enumerate(result):
            assert_same_outcome(out, chain_or_abort(A, 400, seeds[r], 50))
        assert [out.kernel.inverse_refreshes for out in result] == [4, 4, 4, 3, 4]

    def test_a_declined_commit_replays_the_stretch(self, monkeypatch):
        # _commit refusing every stretch: each is put back after its steps and
        # records, and steps again through step, taking its records again
        A = random_state(8, 3, "complex")
        seeds = [derive_replicate_seed(4, r) for r in range(50)]
        expected = stack_outcomes(A, 140, seeds, 7)
        monkeypatch.setattr(process._ChainStack, "_commit", lambda *args: False)
        calls = TestStretch.spy(monkeypatch)
        for a, b in zip(expected, stack_outcomes(A, 140, seeds, 7), strict=True):
            assert_same_outcome(a, b)
        assert calls == [Stretch(64, False, 0, 0, 9, True, False)] * 2

    @pytest.mark.parametrize("field,seed", [("real", 3), ("complex", 0)])
    def test_due_chains_refresh_through_one_inv(self, field, seed, monkeypatch):
        # the stack of test_due_chains_refresh_at_checkpoints_through_one_inv,
        # through _run_stack: each stretch ends at a checkpoint where chains come
        # due, and they refresh through one _refresh, so one stacked inv, over
        # all of them, whether the stretch or step makes the checkpoint step
        K = tol.INVERSE_REFRESH_STEPS
        A = near_singular_state(8, seed, field, 1e-6)
        seeds = [derive_replicate_seed(42, r) for r in range(8)]
        calls, taken = [], []
        refresh, stretch = process._ChainStack._refresh, process._ChainStack.stretch
        monkeypatch.setattr(process._ChainStack, "_refresh", lambda self, rs: calls.append(
            (self.t, self._all[rs].tolist())) or refresh(self, rs))
        monkeypatch.setattr(process._ChainStack, "stretch", lambda self, *args: taken.append(
            stretch(self, *args)) or taken[-1])
        result = stack_outcomes(A, 200, seeds, 50)
        by_stretch, calls[:] = calls.copy(), []
        monkeypatch.setattr(process._ChainStack, "stretch", lambda *args: False)
        for a, b in zip(result, stack_outcomes(A, 200, seeds, 50), strict=True):
            assert_same_outcome(a, b)
        assert taken == [True] * 3 and calls == by_stretch
        steps = [t for t, _ in calls]
        assert steps == sorted(set(steps)) and all(t % K == 0 for t in steps)
        assert max(len(rs) for _, rs in calls) >= 2
        for r, out in enumerate(result):
            assert_same_outcome(out, chain_or_abort(A, 200, seeds[r], 50))

    @pytest.mark.parametrize("kind", [PROPORTIONAL, GREEDY])
    def test_weighted_stacks_step_one_by_one(self, kind, monkeypatch):
        # a weighted stack's stretch declines before its first step
        calls = TestStretch.spy(monkeypatch)
        run_ensemble(random_state(8, 1), 70, kind, 5, 2, 35)
        assert calls == [Stretch(64, False, 0, 0, 0, False, False)]

    @pytest.mark.parametrize("n", [64, 128])
    def test_a_stack_steps_by_stretch_up_to_the_widest(self, n, monkeypatch):
        # at n = 64 one stretch to the checkpoint 64, the record at 35 inside,
        # then step; above STACK_STRETCH_MAX_N none
        A = random_state(n, 2, "complex")
        seeds = [derive_replicate_seed(9, r) for r in range(STACK_MIN_REPLICATES)]
        result, calls = self.by_stretch_and_by_step(A, 70, seeds, 35, monkeypatch)
        taken = n <= process.STACK_STRETCH_MAX_N
        assert calls == [Stretch(64, True, 0, 0, 1, True, False)] * taken
        for r, out in enumerate(result):
            assert_same_outcome(out, chain_or_abort(A, 70, seeds[r], 35))



class TestVectorizedStep:
    """The vectorized step sends every live chain of a step through orth where
    it meets a degenerate pair: each chain must get the bits or the abort of
    the chain alone, and _comes_due must run on the checkpoint steps only."""

    def test_two_chains_retire_in_one_step(self, monkeypatch):
        # chains 2 and 5 of 8 leave columns 0 and 1 alone, then draw the
        # near-parallel pair at step 3; the others never draw it. That step's
        # vectorized step writes nothing and every live chain goes through orth:
        # the two retire with the pair and |c| of the chain alone, the six others
        # keep its bits, and step 4 splits the stack again, over their indices
        A, count, steps = TestStackStretch.near_parallel_state(), 8, 6
        n, rng = A.n, np.random.default_rng(3)
        ordered = [(i, j) for i in range(n) for j in range(n) if i != j and {i, j} != {0, 1}]
        pairs = np.array(ordered)[rng.integers(len(ordered), size=(count, steps))]
        pairs[[2, 5], :3] = [[(2, 3), (4, 5), (0, 1)], [(3, 4), (5, 2), (1, 0)]]
        stack, alone = process._ChainStack(A, count), [process._ChainStack(A, 1) for _ in pairs]
        inner_abs, alone_abs = np.full((2, count, steps), np.nan)
        orths, splits = [], []
        orth, split = process._ChainStack.orth, process._ChainStack._split
        monkeypatch.setattr(process._ChainStack, "orth", lambda self, r, i, j: (
            self is stack and orths.append((self.t, r))) or orth(self, r, i, j))
        monkeypatch.setattr(process._ChainStack, "_split", lambda self: (
            self is stack and splits.append(self.t)) or split(self))
        for t in range(steps):
            stack.step(pairs[:, t], inner_abs[:, t])
            for r, one in enumerate(alone):
                if one.live[0]:
                    one.step(pairs[r:r + 1, t], alone_abs[r:r + 1, t])
        assert orths == [(3, r) for r in range(count)]
        assert splits == [0, 3] and stack._plan[0].tolist() == [0, 1, 3, 4, 6, 7]
        assert sorted(stack.aborts) == [2, 5] and stack.on_inv.all()
        for r, pair in ((2, (0, 1)), (5, (1, 0))):
            (at, exc), (alone_at, alone_exc) = stack.aborts[r], alone[r].aborts[0]
            assert at == alone_at == 3 and exc.pair == alone_exc.pair == pair
            assert exc.inner_abs == alone_exc.inner_abs > 1.0 - tol.DEGENERATE_PAIR_GUARD
        assert np.array_equal(inner_abs, alone_abs, equal_nan=True)
        for r, one in enumerate(alone):
            assert stack.live[r] == one.live[0] and stack.counters(r) == one.counters(0)
            for name in ("cols", "inv", "row_sq", "d", "phi", "est_sum", "since"):
                assert np.array_equal(getattr(stack, name)[r], getattr(one, name)[0]), (r, name)

    def test_comes_due_at_the_checkpoints_through_stack_stretches(self, monkeypatch):
        # the stack of test_chains_back_on_the_inverse_path_out_of_step, through
        # run_ensemble: the first two stretches decline and replay through step,
        # where the chains come back onto the inverse path out of step; from then
        # on every stretch is taken, its checkpoint step too. The vectorized step
        # and _commit must call _comes_due on each step at which one of their
        # chains reaches a multiple of K, and on no other
        K = tol.INVERSE_REFRESH_STEPS
        A = near_singular_state(8, 3, "real", 1e-8)
        calls, expected, out_of_step, taken = [], [], [], []
        step, comes_due = process._ChainStack.step, process._ChainStack._comes_due
        stretch = process._ChainStack.stretch

        def spy_step(self, pairs, inner_abs):
            vectorized = np.flatnonzero(self.live & self.on_inv)
            since = self.since[vectorized] + 1
            if vectorized.size >= STACK_MIN_REPLICATES and (since % K == 0).any():
                expected.append(self.t + 1)
                out_of_step.append(np.unique(since % K).size > 1)
            return step(self, pairs, inner_abs)

        def spy_comes_due(self, rs, est):
            # the scalar step passes one chain, the vectorized step a slice or indices
            if not isinstance(rs, (int, np.integer)):
                calls.append(self.t)
            return comes_due(self, rs, est)

        def spy_stretch(self, *args):
            t, since = self.t, self.since[self.live]
            taken.append(stretch(self, *args))
            # the steps _commit took at a chain's checkpoint: its last, which it settles
            expected.extend(t + s for s in range(1, self.t - t + 1) if ((since + s) % K == 0).any())
            return taken[-1]

        monkeypatch.setattr(process._ChainStack, "step", spy_step)
        monkeypatch.setattr(process._ChainStack, "_comes_due", spy_comes_due)
        monkeypatch.setattr(process._ChainStack, "stretch", spy_stretch)
        stats = run_ensemble(A, 400, UNIFORM, 5, 1, 50)
        assert stats.replicates == 5 and stats.kernel.projection_fallbacks > 0
        assert taken[:3] == [False, False, True] and all(taken[2:]) and len(taken) > 10
        assert calls == sorted(expected) and any(out_of_step)


class TestRunEnsemble:
    def test_single_replicate_degenerates_to_chain(self):
        A = random_state(4, 31)
        stats = run_ensemble(A, steps=60, kind=UNIFORM, replicates=1, base_seed=5, metrics_stride=20)
        traj = run_chain(A, steps=60, kind=UNIFORM, seed=derive_replicate_seed(5, 0), metrics_stride=20)
        assert np.array_equal(stats.mean_phi, traj.phi[stats.t])
        assert np.array_equal(stats.min_phi, stats.max_phi)
        assert np.all(stats.stderr_phi == 0.0)

    def test_orthonormal_all_zero(self):
        A = build_unit_column_matrix(np.eye(4))
        stats = run_ensemble(A, steps=30, kind=UNIFORM, replicates=3, base_seed=1, metrics_stride=10)
        assert np.all(stats.mean_phi == 0.0)
        assert np.all(stats.max_phi == 0.0)
        assert np.all(stats.mean_log_kappa == pytest.approx(0.0, abs=1e-12))
        assert not stats.exceed.any()

    def test_aggregate_ordering_invariant(self):
        A = random_state(5, 13)
        stats = run_ensemble(A, steps=100, kind=UNIFORM, replicates=8, base_seed=3, metrics_stride=25)
        assert np.all(stats.min_phi <= stats.mean_phi + 1e-15)
        assert np.all(stats.mean_phi <= stats.max_phi + 1e-15)
        assert stats.replicates == 8
        assert stats.t[0] == 0 and stats.t[-1] == 100

    def test_deterministic(self):
        A = random_state(4, 99)
        kwargs = dict(steps=80, kind=UNIFORM, replicates=6, base_seed=21, metrics_stride=16)
        s1 = run_ensemble(A, **kwargs)
        s2 = run_ensemble(A, **kwargs)
        assert np.array_equal(s1.mean_phi, s2.mean_phi)
        assert np.array_equal(s1.mean_log_kappa, s2.mean_log_kappa)
        assert s1.t_stars == s2.t_stars

    def test_trajectory_sink_order(self):
        A = random_state(3, 55)
        seen = []
        run_ensemble(
            A, steps=10, kind=UNIFORM, replicates=4, base_seed=9, metrics_stride=5,
            trajectory_sink=lambda r, traj: seen.append((r, traj.phi)),
        )
        assert [r for r, _ in seen] == [0, 1, 2, 3]
        for r, phi in seen:
            alone = run_chain(A, steps=10, kind=UNIFORM, seed=derive_replicate_seed(9, r),
                              metrics_stride=5)
            assert np.array_equal(phi, alone.phi)

    def test_replicate_validation(self):
        with pytest.raises(UsageError):
            run_ensemble(angle_matrix(), steps=1, kind=UNIFORM, replicates=0, base_seed=1)

    @pytest.mark.parametrize("steps,stride", [(-1, 1), (5, 0)])
    def test_record_grid_validation(self, steps, stride):
        with pytest.raises(UsageError):
            run_ensemble(angle_matrix(), steps=steps, kind=UNIFORM, replicates=1,
                         base_seed=1, metrics_stride=stride)


class TestSeedDerivation:
    def test_seeds_must_be_u64(self):
        with pytest.raises(UsageError):
            make_rng(-1)
        with pytest.raises(UsageError):
            derive_replicate_seed(2**64, 0)
        with pytest.raises(UsageError, match="replicate index"):
            derive_replicate_seed(1, -1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(1.0), "1"])
    def test_seeds_and_replicate_indices_must_be_integers(self, seed):
        # int() would read 1.5 and True as 1: a silent alias of another seed
        with pytest.raises(UsageError, match="seed"):
            make_rng(seed)
        with pytest.raises(UsageError, match="seed"):
            derive_replicate_seed(seed, 1)
        with pytest.raises(UsageError, match="replicate index"):
            derive_replicate_seed(1, seed)

    def test_numpy_integer_seeds_pass(self):
        assert derive_replicate_seed(np.uint64(7), np.int32(3)) == derive_replicate_seed(7, 3)
        assert make_rng(np.uint64(2**64 - 1)).integers(2**62) == make_rng(2**64 - 1).integers(2**62)

    def test_deterministic(self):
        assert derive_replicate_seed(42, 3) == derive_replicate_seed(42, 3)

    def test_distinct_across_replicates(self):
        seeds = {derive_replicate_seed(42, r) for r in range(100)}
        assert len(seeds) == 100

    def test_distinct_across_bases(self):
        assert derive_replicate_seed(1, 0) != derive_replicate_seed(2, 0)

    def test_vectorized_seeds_match_seed_sequence(self):
        def reference(base, r):
            ss = np.random.SeedSequence(entropy=base, spawn_key=(r,))
            return int(ss.generate_state(1, np.uint64)[0])

        rng = np.random.default_rng(24)
        bases = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        bases += rng.integers(0, 2**64 - 1, size=20, dtype=np.uint64, endpoint=True).tolist()
        rs = [*range(300), 2**31, 2**32 - 1]
        for base in bases:
            expected = [reference(base, r) for r in rs]
            seeds = process._replicate_seeds(base, np.array(rs, dtype=np.uint64))
            assert seeds.dtype == np.uint64 and seeds.tolist() == expected
            assert [derive_replicate_seed(base, r) for r in rs] == expected
            # a two-word spawn key goes to SeedSequence itself
            assert derive_replicate_seed(base, 2**32 + 5) == reference(base, 2**32 + 5)


def degenerate_pair_state(n, seed=1):
    """Gaussian unit columns with columns 0 and 1 1e-7 apart: a chain that
    draws that pair before touching either column aborts."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M[:, 1] = M[:, 0] + 1e-7 * np.linalg.norm(M[:, 0]) * rng.standard_normal(n)
    return build_unit_column_matrix(M, normalize=True)


def test_a_stack_stops_when_its_last_chain_retires(monkeypatch):
    """_run_stack takes no step after its last live chain retires: a chain
    that aborts at step 1 of 200,000 returns after one step, with the abort
    the 20-step run gives."""
    A = degenerate_pair_state(6)
    short = chain_or_abort(A, 20, 13, 1)
    calls = []
    step = process._ChainStack.step
    monkeypatch.setattr(process._ChainStack, "step",
                        lambda self, *args: calls.append(self.live.sum()) or step(self, *args))
    long = chain_or_abort(A, 200_000, 13, 1)
    assert calls == [1]
    for exc in (short, long):
        assert isinstance(exc, ChainAbortError) and exc.step == 1
        assert exc.pair == (0, 1) and exc.inner_abs > 1.0 - 1e-12
        partial = exc.partial_trajectory
        assert len(partial.phi) == 1 and len(partial.pairs) == len(partial.inner_abs) == 0
        assert partial.grid == [0] and np.array_equal(partial.final_matrix.array, A.array)
    assert (long.pair, long.inner_abs) == (short.pair, short.inner_abs)
    assert_same_trajectory(long.partial_trajectory, short.partial_trajectory)


def reference_stats(A, steps, kind, replicates, base_seed, stride):
    """EnsembleStats from run_chain alone on each replicate's seed,
    aggregated replicate by replicate."""
    grid = _record_grid(steps, stride)
    kept = []
    for r in range(replicates):
        try:
            kept.append(run_chain(A, steps, kind, derive_replicate_seed(base_seed, r), stride))
        except ChainAbortError:
            pass
    phi = np.array([t.phi[grid] for t in kept])
    log_kappa = np.array([np.log(t.kappa) for t in kept])
    stderr = phi.std(axis=0, ddof=1) / np.sqrt(len(kept)) if len(kept) > 1 else np.zeros(len(grid))
    return dict(replicates=len(kept), phi0=float(phi[0, 0]), t=np.array(grid),
                mean_phi=phi.mean(axis=0), min_phi=phi.min(axis=0), max_phi=phi.max(axis=0),
                stderr_phi=stderr, mean_log_kappa=log_kappa.mean(axis=0),
                t_stars=[t.t_star for t in kept], aborts=replicates - len(kept),
                monotonicity_violations=sum(t.monotonicity_violations for t in kept),
                kernel=KernelStats.total([t.kernel for t in kept]))


class TestStackSetUpAndSummary:
    """run_ensemble draws a uniform stack's pairs from one re-keyed
    generator and summarizes each stack from its arrays: every field of
    EnsembleStats must keep the bits of the replicate-by-replicate
    aggregation of run_chain's trajectories, with a sink or without."""

    @pytest.mark.parametrize("n,steps,count", [(2, 5, 1), (5, 40, 7), (8, 200, 50)])
    def test_uniform_stack_pairs_are_each_seeds_stream(self, n, steps, count):
        A = random_state(n, 3)
        seeds = process._replicate_seeds(17, np.arange(count, dtype=np.uint64))
        pairs = process._run_stack(A, steps, UNIFORM, seeds, _record_grid(steps, steps))[1]
        for r, seed in enumerate(seeds):
            assert np.array_equal(pairs[r], _uniform_pairs(n, make_rng(seed), steps))

    def assert_same_stats(self, A, steps, kind, replicates, base_seed, stride):
        plain = run_ensemble(A, steps, kind, replicates, base_seed, stride)
        seen = []
        sunk = run_ensemble(A, steps, kind, replicates, base_seed, stride,
                            trajectory_sink=lambda r, traj: seen.append(r))
        reference = reference_stats(A, steps, kind, replicates, base_seed, stride)
        for stats in (plain, sunk):
            for f in fields(stats):
                value = getattr(stats, f.name)
                if isinstance(value, np.ndarray):
                    assert value.tobytes() == getattr(plain, f.name).tobytes(), f.name
                    if f.name in reference:
                        assert value.tobytes() == reference[f.name].tobytes(), f.name
                else:
                    assert value == getattr(plain, f.name) == reference.get(f.name, value), f.name
            assert all(t is None or type(t) is int for t in stats.t_stars)
        assert len(seen) == plain.replicates and seen == sorted(seen)
        return plain

    @pytest.mark.parametrize("kind", [UNIFORM, PROPORTIONAL, GREEDY])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_summary_keeps_the_bits_of_the_replicate_loop(self, kind, field):
        stats = self.assert_same_stats(near_singular_state(6, 2, field, 1e-6), 90, kind, 9, 7, 20)
        assert stats.replicates == 9

    def test_an_aborted_replicate_in_a_later_chunk(self, monkeypatch):
        # replicate 47 of 100 aborts at step 23, in the second of four chunks
        A = degenerate_pair_state(40)
        monkeypatch.setattr(process, "STACK_BYTES", 25 * _replicate_bytes(40, 40, 5))
        assert len(_ensemble_chunks(100, _replicate_bytes(40, 40, 5))) == 4
        stats = self.assert_same_stats(A, 40, UNIFORM, 100, 4, 10)
        assert stats.aborts == 1 and stats.replicates == 99

    def test_a_chunk_past_two_to_the_32_takes_seed_sequence(self, monkeypatch):
        # a two-word spawn key: the chunk derives its seeds one by one
        A, chunk = random_state(4, 5), range(2**32 - 2, 2**32 + 2)
        monkeypatch.setattr(process, "_ensemble_chunks", lambda replicates, size: [chunk])
        seen = {}
        run_ensemble(A, 20, UNIFORM, 4, 9, 10, trajectory_sink=seen.__setitem__)
        assert list(seen) == list(chunk)
        for r in chunk:
            alone = run_chain(A, 20, UNIFORM, derive_replicate_seed(9, r), 10)
            assert_same_trajectory(seen[r], alone)

    @pytest.mark.parametrize("kind", [UNIFORM, PROPORTIONAL])
    def test_several_chunks(self, kind, monkeypatch):
        A = random_state(5, 13)
        monkeypatch.setattr(process, "STACK_BYTES", 6 * _replicate_bytes(5, 60, 4))
        assert [len(c) for c in _ensemble_chunks(20, _replicate_bytes(5, 60, 4))] == [5, 5, 5, 5]
        self.assert_same_stats(A, 60, kind, 20, 11, 20)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n,seed,eta", [(8, 3, None), (6, 2, 1e-10), (8, 3, 1e-6)])
def test_inverse_path_distances_follow_the_row_norms(n, seed, eta, field):
    """On an inverse-path chain d = min(1 / sqrt(row_sq), 1) bit for bit,
    after _recompute and after every step, which the vectorized step uses
    to derive d from row_sq in one pass."""
    A = random_state(n, seed, field) if eta is None else near_singular_state(n, seed, field, eta)
    count, steps = 7, 200
    seeds = [derive_replicate_seed(5, r) for r in range(count)]
    pairs = np.stack([_uniform_pairs(n, make_rng(s), steps) for s in seeds])
    stack, inner_abs = process._ChainStack(A, count), np.empty(count)
    checked = 0
    for t in range(steps + 1):
        if t:
            stack.step(pairs[:, t - 1], inner_abs)
        on = stack.on_inv
        assert np.array_equal(stack.d[on], np.minimum(1.0 / np.sqrt(stack.row_sq[on]), 1.0))
        checked += int(on.sum())
    # the 1e-10 starts begin on the projection path and cross to the inverse path
    assert checked >= 10 * count


class TestEveryPath:
    """One property over every path that steps a chain: the scalar orth, the
    vectorized step, a small stack's stretch by level and by _move, the stack
    stretch and the co-solver's blocks. Each chain must get the bits of the
    same run with every stretch (or block) declined, through orth and step,
    and of run_chain for its seed."""

    @staticmethod
    def start(n, field, start, x, seed):
        """A Gaussian start, a prescribed spectrum with kappa_0 = 10^x, or a
        planted distance 10^-x; None for a start the generator refuses."""
        spec = {"gaussian": dict(kind="gaussian_normalized"),
                "prescribed": dict(kind="prescribed_spectrum",
                                   sigma=tuple(np.logspace(0.0, -x, n).tolist())),
                "near_singular": dict(kind="near_singular", eta=10.0 ** -x)}[start]
        try:
            return generate(GeneratorSpec(n=n, field=field, seed=seed, **spec))[0]
        except pairorth.ConstructionError:
            return None

    @staticmethod
    def outcomes(A, steps, kind, seeds, stride):
        """Each chain of one _run_stack run, trajectory or ChainAbortError, or
        the error the run raised."""
        grid = _record_grid(steps, stride)
        try:
            run = process._run_stack(A, steps, kind, seeds, grid)
        except (PairOrthError, np.linalg.LinAlgError) as exc:
            return exc
        return [process._chain_result(grid, run, r) for r in range(len(seeds))]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(n=st.integers(2, 16), field=st.sampled_from(["real", "complex"]),
           kind=st.sampled_from([UNIFORM, PROPORTIONAL, GREEDY]), count=st.integers(1, 6),
           start=st.sampled_from(["gaussian", "prescribed", "near_singular"]),
           x=st.floats(0.5, 10.0), seed=st.integers(0, 2**32),
           steps=st.integers(0, 150), stride=st.integers(1, 150))
    # the draws rarely reach a stack stretch or a decline after its steps: a stack
    # stretch taken, records inside; chains due at a checkpoint, in stacks of 6 and 2;
    # a uniform chain by level; a stack stretch declined after 10 steps; an abort
    # after a taken stretch
    @example(n=8, field="complex", kind=UNIFORM, count=5, start="gaussian", x=1.0, seed=9,
             steps=150, stride=7)
    @example(n=8, field="real", kind=UNIFORM, count=6, start="near_singular", x=6.0, seed=3,
             steps=150, stride=50)
    @example(n=8, field="real", kind=UNIFORM, count=2, start="near_singular", x=6.0, seed=3,
             steps=150, stride=50)
    @example(n=16, field="real", kind=UNIFORM, count=3, start="gaussian", x=1.0, seed=15,
             steps=150, stride=150)
    @example(n=6, field="real", kind=UNIFORM, count=4, start="near_singular", x=7.5, seed=2,
             steps=150, stride=50)
    @example(n=6, field="real", kind=UNIFORM, count=1, start="near_singular", x=9.0, seed=4,
             steps=150, stride=50)
    # weighted stacks from a near-orthonormal start (kappa_0 = 2): the stacked draws
    # of 6 proportional chains fall back to uniform from their step 32 to 44 on,
    # 107 to 119 of 150 draws a chain; 5 greedy chains, whose |g| all fall
    # below 1e-15 at step 30, take the stacked argmax over such weights from then on
    @example(n=6, field="real", kind=PROPORTIONAL, count=6, start="prescribed", x=0.3, seed=3,
             steps=150, stride=50)
    @example(n=6, field="complex", kind=GREEDY, count=5, start="prescribed", x=0.3, seed=3,
             steps=150, stride=50)
    def test_stacks(self, n, field, kind, count, start, x, seed, steps, stride):
        A = self.start(n, field, start, x, seed)
        assume(A is not None)
        seeds = [derive_replicate_seed(seed, r) for r in range(count)]
        stacked = self.outcomes(A, steps, kind, seeds, stride)
        with mock.patch.object(process._ChainStack, "stretch", lambda *args: False):
            by_step = self.outcomes(A, steps, kind, seeds, stride)
        if isinstance(stacked, Exception):
            assert_same_outcome(stacked, by_step)
            return
        for r, out in enumerate(stacked):
            assert_same_outcome(out, by_step[r])
            assert_same_outcome(out, chain_outcome(A, steps, kind, seeds[r], stride))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 16), field=st.sampled_from(["real", "complex"]),
           start=st.sampled_from(["gaussian", "prescribed", "near_singular"]),
           x=st.floats(0.5, 10.0), seed=st.integers(0, 2**32),
           interleave=st.sampled_from([(0, 1), (1, 1), (4, 1), (1, 4)]),
           steps=st.integers(0, 300))
    def test_cosolve(self, n, field, start, x, seed, interleave, steps):
        A = self.start(n, field, start, x, seed)
        assume(A is not None)
        x_true = np.random.default_rng(seed).standard_normal(n)

        def bits():
            try:
                history, final = run_cosolve(A, x_true, interleave, steps, seed)
            except (PairOrthError, np.linalg.LinAlgError) as exc:
                return type(exc), str(exc)
            return (history.tobytes(), final.A.array.tobytes(), final.b.tobytes(),
                    final.x.tobytes(), final.kernel)

        by_block = bits()
        with mock.patch.object(process._ChainStack, "_commit", lambda *args: False):
            assert bits() == by_block
