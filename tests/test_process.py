"""Pair samplers, chain runs, stopping-time detection, ensembles."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from pairorth import (
    ChainAbortError,
    UsageError,
    build_unit_column_matrix,
    derive_replicate_seed,
    detect_t_star,
    generate,
    inflection,
    make_rng,
    run_chain,
    run_ensemble,
    sample_pair,
)
from pairorth.generators import GeneratorSpec
from pairorth.process import GREEDY, PROPORTIONAL, UNIFORM, Trajectory, _record_grid


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
        # snapshots at t = 0, on the stride grid and at the final step
        assert traj.grid == [0, 7, 14, 20] and len(traj.snapshots) == 4

    def test_snapshot_grid_is_record_grid(self):
        # 7 does not divide 20, so the final step is added to the grid
        traj = run_chain(random_state(4, 5), steps=20, seed=1, metrics_stride=7)
        assert traj.grid == _record_grid(20, 7) == [0, 7, 14, 20]
        snap_phi = [s.phi for s in traj.snapshots]
        assert snap_phi == pytest.approx(traj.phi[traj.grid].tolist(), rel=1e-12)

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
        assert partial.grid == [0, 2] and len(partial.snapshots) == 2

    def test_usage_errors(self):
        A = angle_matrix()
        with pytest.raises(UsageError):
            run_chain(A, steps=-1, seed=1)
        with pytest.raises(UsageError):
            run_chain(A, steps=1, seed=1, metrics_stride=0)
        with pytest.raises(UsageError):
            run_chain(A, steps=1, kind="roundrobin", seed=1)


class TestDetectTStar:
    def _traj(self, phis, n=2):
        steps = len(phis) - 1
        return Trajectory(
            n=n, sampler=UNIFORM, seed=0, metrics_stride=1, phi=np.array(phis),
            pairs=np.tile([0, 1], (steps, 1)), inner_abs=np.zeros(steps), grid=[], snapshots=[],
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
            trajectory_sink=lambda r, traj: seen.append((r, traj.seed)),
        )
        assert [r for r, _ in seen] == [0, 1, 2, 3]
        assert [s for _, s in seen] == [derive_replicate_seed(9, r) for r in range(4)]

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

    def test_deterministic(self):
        assert derive_replicate_seed(42, 3) == derive_replicate_seed(42, 3)

    def test_distinct_across_replicates(self):
        seeds = {derive_replicate_seed(42, r) for r in range(100)}
        assert len(seeds) == 100

    def test_distinct_across_bases(self):
        assert derive_replicate_seed(1, 0) != derive_replicate_seed(2, 0)
