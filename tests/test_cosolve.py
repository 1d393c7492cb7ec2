"""Right-hand-side co-updates and interleaved Kaczmarz runs."""

import numpy as np
import pytest

from pairorth import (
    UsageError,
    build_unit_column_matrix,
    generate,
    initial_state,
    inner,
    kaczmarz_step,
    derive_replicate_seed,
    make_rng,
    orth_with_rhs,
    potential_phi,
    run_cosolve,
    sample_pair,
)
from pairorth import tolerances as tol
from pairorth.cosolve import KACZ, ORTH
from pairorth.generators import GeneratorSpec

SQ3 = np.sqrt(3.0)


def angle_matrix(theta=np.pi / 3):
    return build_unit_column_matrix([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])


def random_instance(n, seed, field="real"):
    A, _ = generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=seed))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 10_000)))
    x_true = rng.standard_normal(n)
    if field == "complex":
        x_true = x_true + 1j * rng.standard_normal(n)
    return A, x_true


class TestInitialState:
    def test_b_is_conjugate_transpose_product(self):
        A, x_true = random_instance(4, 1)
        state = initial_state(A, x_true)
        assert state.b == pytest.approx(A.array.conj().T @ x_true)
        assert np.all(state.x == 0.0)
        assert state.residual() <= 1e-14

    def test_shape_and_ratio_validation(self):
        A, _ = random_instance(4, 1)
        with pytest.raises(UsageError):
            initial_state(A, np.ones(3))
        with pytest.raises(UsageError):
            initial_state(A, np.ones(4), interleave=(0, 0))


class TestOrthWithRhs:
    def test_hand_example(self):
        A = angle_matrix()
        state = initial_state(A, np.array([1.0, 1.0]))
        assert state.b == pytest.approx([1.0, 0.5 + SQ3 / 2])
        new = orth_with_rhs(state, (0, 1))
        assert new.b[0] == pytest.approx((1.0 - 0.5 * (0.5 + SQ3 / 2)) / (SQ3 / 2), abs=1e-12)
        assert new.b[0] == pytest.approx(0.36602540378443865, abs=1e-12)
        assert new.b[1] == state.b[1]
        # the updated equation still holds at the true solution
        assert inner(new.x_true, new.A.column(0)) == pytest.approx(new.b[0], abs=1e-12)

    def test_orthonormal_leaves_b_unchanged(self):
        A = build_unit_column_matrix(np.eye(3))
        state = initial_state(A, np.array([3.0, -1.0, 2.0]))
        new = orth_with_rhs(state, (0, 2))
        assert np.array_equal(new.b, state.b)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_solution_preserved_along_random_walks(self, field):
        rng = np.random.default_rng(5)
        for instance in range(20):
            A, x_true = random_instance(3 + instance % 4, 100 + instance, field)
            state = initial_state(A, x_true)
            for _ in range(15):
                n = state.A.n
                i = int(rng.integers(n))
                j = int((i + 1 + rng.integers(n - 1)) % n)
                state = orth_with_rhs(state, (i, j))
                assert state.residual() <= tol.COSOLVE_RESIDUAL_ABS


class TestKaczmarzStep:
    def test_fixed_point_at_solution(self):
        from dataclasses import replace

        A, x_true = random_instance(4, 2)
        state = replace(initial_state(A, x_true), x=np.array(x_true))
        new = kaczmarz_step(state, 2)
        assert np.linalg.norm(new.x - x_true) <= 1e-14

    def test_identity_coordinate_update(self):
        A = build_unit_column_matrix(np.eye(2))
        state = initial_state(A, np.array([3.0, 4.0]))
        new = kaczmarz_step(state, 0)
        assert new.x == pytest.approx([3.0, 0.0])

    def test_zeroes_selected_residual(self):
        A, x_true = random_instance(5, 3)
        state = initial_state(A, x_true)
        for row in range(5):
            new = kaczmarz_step(state, row)
            assert abs(inner(new.x, A.column(row)) - state.b[row]) <= tol.KACZMARZ_RESIDUAL_ABS

    def test_full_sweep_on_orthonormal_solves(self):
        A, _ = generate(GeneratorSpec("haar_orthonormal", n=6, field="real", seed=8))
        rng = np.random.default_rng(1)
        x_true = rng.standard_normal(6)
        state = initial_state(A, x_true)
        for row in range(6):
            state = kaczmarz_step(state, row)
        assert np.linalg.norm(state.x - x_true) <= 1e-10

    def test_row_validation(self):
        A, x_true = random_instance(3, 4)
        with pytest.raises(UsageError):
            kaczmarz_step(initial_state(A, x_true), 3)


class TestRunCosolve:
    def test_kacz_only_keeps_matrix_frozen(self):
        A, x_true = random_instance(4, 6)
        history, final = run_cosolve(A, x_true, interleave=(0, 1), steps=50, seed=3)
        assert np.array_equal(final.A.array, A.array)
        assert all(rec.kind == KACZ for rec in history)
        phis = {rec.phi for rec in history}
        assert len(phis) == 1

    def test_orth_only_keeps_iterate_frozen(self):
        A, x_true = random_instance(4, 7)
        history, final = run_cosolve(A, x_true, interleave=(1, 0), steps=50, seed=3)
        assert np.all(final.x == 0.0)
        assert all(rec.kind == ORTH for rec in history)
        assert history[-1].phi < history[0].phi

    def test_mixed_run_improves_both(self):
        A, x_true = random_instance(6, 8)
        history, final = run_cosolve(A, x_true, interleave=(1, 1), steps=400, seed=3)
        kinds = [rec.kind for rec in history[:4]]
        assert kinds == [ORTH, KACZ, ORTH, KACZ]
        assert final.error() < np.linalg.norm(x_true)
        assert history[-1].phi < history[0].phi
        assert final.residual() <= tol.COSOLVE_RESIDUAL_ABS

    def test_deterministic(self):
        A, x_true = random_instance(4, 9)
        h1, f1 = run_cosolve(A, x_true, interleave=(1, 2), steps=60, seed=5)
        h2, f2 = run_cosolve(A, x_true, interleave=(1, 2), steps=60, seed=5)
        assert [r.err_norm for r in h1] == [r.err_norm for r in h2]
        assert np.array_equal(f1.x, f2.x)

    def test_row_draws_shared_across_ratios(self):
        # paired-seed comparisons: the kaczmarz row stream does not depend
        # on how many orth steps are interleaved. On an orthonormal start
        # the orth steps are no-ops, so the kacz trajectories must match.
        A, _ = generate(GeneratorSpec("haar_orthonormal", n=4, field="real", seed=44))
        x_true = np.array([1.0, -2.0, 0.5, 3.0])
        h_plain, _ = run_cosolve(A, x_true, interleave=(0, 1), steps=5, seed=12)
        h_mixed, _ = run_cosolve(A, x_true, interleave=(1, 1), steps=10, seed=12)
        plain_errs = [r.err_norm for r in h_plain]
        mixed_errs = [r.err_norm for r in h_mixed if r.kind == KACZ]
        assert plain_errs == pytest.approx(mixed_errs, rel=1e-9)

    @pytest.mark.parametrize("field,interleave", [("real", (1, 1)), ("complex", (2, 1))])
    def test_matches_replay_through_one_op_functions(self, field, interleave):
        # run_cosolve works on one array in place; replaying the same draws
        # through the public one-op functions must give identical bits
        A, x_true = random_instance(5, 12, field)
        history, final = run_cosolve(A, x_true, interleave=interleave, steps=90, seed=7)
        rng_pairs = make_rng(derive_replicate_seed(7, 0))
        rng_rows = make_rng(derive_replicate_seed(7, 1))
        state = initial_state(A, x_true, interleave)
        phi = potential_phi(state.A)
        cycle = [ORTH] * interleave[0] + [KACZ] * interleave[1]
        for rec in history:
            kind = cycle[(rec.step - 1) % len(cycle)]
            if kind == ORTH:
                state = orth_with_rhs(state, sample_pair(state.A, "uniform", rng_pairs))
                phi = potential_phi(state.A)
            else:
                state = kaczmarz_step(state, int(rng_rows.integers(A.n)))
            assert (rec.kind, rec.err_norm, rec.phi) == (kind, state.error(), phi)
        assert np.array_equal(final.A.array, state.A.array)
        assert np.array_equal(final.b, state.b)
        assert np.array_equal(final.x, state.x)
        assert final.step_count == state.step_count == 90
