"""Right-hand-side co-updates and interleaved Kaczmarz runs."""

import itertools
import tracemalloc

import numpy as np
import pytest

from pairorth import (
    DegeneratePairError,
    UsageError,
    build_unit_column_matrix,
    condition_number,
    generate,
    initial_state,
    inner,
    kaczmarz_step,
    derive_replicate_seed,
    make_rng,
    orth_with_rhs,
    potential_phi,
    run_chain,
    run_cosolve,
    sample_pair,
)
from pairorth import tolerances as tol
from pairorth.cosolve import KACZ, ORTH
from pairorth.generators import GeneratorSpec
from pairorth.process import UNIFORM, _ChainStack

SQ3 = np.sqrt(3.0)
EPS = float(np.finfo(float).eps)


def angle_matrix(theta=np.pi / 3):
    return build_unit_column_matrix([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])


def random_instance(n, seed, field="real"):
    A, _ = generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=seed))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 10_000)))
    x_true = rng.standard_normal(n)
    if field == "complex":
        x_true = x_true + 1j * rng.standard_normal(n)
    return A, x_true


def cosolve_bits(A, x_true, interleave, steps):
    # every output of a run_cosolve, as bits, or the degenerate pair it raises
    try:
        history, final = run_cosolve(A, x_true, interleave=interleave, steps=steps, seed=11)
    except DegeneratePairError as exc:
        return exc.pair, exc.inner_abs
    return (history.kind.tolist(), history.err_norm.tobytes(), history.phi.tobytes(),
            final.A.array.tobytes(), final.b.tobytes(), final.x.tobytes(), final.kernel)


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
        with pytest.raises(UsageError, match="0:0"):
            run_cosolve(A, np.ones(4), interleave=(0, 0))
        # not a pair of counts: UsageError, not a bare TypeError or ValueError
        for interleave in (3, None, (1, 2, 3), (1,), (1.5, 1), (True, 1)):
            with pytest.raises(UsageError, match="interleave"):
                run_cosolve(A, np.ones(4), interleave=interleave)


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

    @pytest.mark.parametrize("row", [1.5, 1.0, True, np.float64(1.0), None])
    def test_row_must_be_an_integer(self, row):
        # one integer check, before indexing fails with IndexError or a reshape ValueError
        A, x_true = random_instance(3, 4)
        with pytest.raises(UsageError, match="integer"):
            kaczmarz_step(initial_state(A, x_true), row)

    def test_numpy_integer_row_passes(self):
        A, x_true = random_instance(3, 4)
        state = initial_state(A, x_true)
        assert np.array_equal(kaczmarz_step(state, np.int64(2)).x, kaczmarz_step(state, 2).x)


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

    @pytest.mark.parametrize("kind,eta", [
        ("gaussian_normalized", None), ("near_singular", 1e-6), ("near_singular", 1e-10),
    ])
    def test_kernel_counters_match_run_chain(self, kind, eta):
        # the same kernel on the same pair draws: the 1e-10 start runs on the
        # projection path, refreshed every 64 steps, the others on the inverse
        # path, where the 1e-6 start's running bound comes due once and the
        # Gaussian one's never
        A, _ = generate(GeneratorSpec(kind, n=8, field="real", seed=4, eta=eta))
        _, final = run_cosolve(A, np.ones(8), interleave=(1, 1), steps=300, seed=11)
        traj = run_chain(A, 150, UNIFORM, derive_replicate_seed(11, 0))
        assert traj.kernel.inverse_refreshes == {None: 0, 1e-6: 1, 1e-10: 2}[eta]
        assert final.kernel == traj.kernel

    @pytest.mark.parametrize("field,interleave", [("real", (1, 1)), ("complex", (2, 1))])
    def test_matches_replay_through_one_op_functions(self, field, interleave):
        # run_cosolve works on one array in place; replaying the same draws
        # through the public one-op functions must give identical bits for
        # A, b, x and the error. phi comes from the step kernel, so it must
        # equal run_chain's phi on the same pair stream bit for bit, and the
        # full recompute to within the two-method slack. 200 operations
        # take the kernel past at least one inverse refresh.
        steps = 200
        A, x_true = random_instance(5, 12, field)
        history, final = run_cosolve(A, x_true, interleave=interleave, steps=steps, seed=7)
        n_orth = sum(rec.kind == ORTH for rec in history)
        assert n_orth > tol.INVERSE_REFRESH_STEPS
        chain_phi = run_chain(A, n_orth, UNIFORM, derive_replicate_seed(7, 0)).phi
        rng_pairs = make_rng(derive_replicate_seed(7, 0))
        rng_rows = make_rng(derive_replicate_seed(7, 1))
        state = initial_state(A, x_true)
        cycle = [ORTH] * interleave[0] + [KACZ] * interleave[1]
        orth_done = 0
        for rec in history:
            kind = cycle[(rec.step - 1) % len(cycle)]
            if kind == ORTH:
                state = orth_with_rhs(state, sample_pair(state.A, "uniform", rng_pairs))
                orth_done += 1
            else:
                state = kaczmarz_step(state, int(rng_rows.integers(A.n)))
            assert (rec.kind, rec.err_norm) == (kind, state.error())
            assert rec.phi == chain_phi[orth_done]
            kappa, _ = condition_number(state.A)
            slack = A.n * max(tol.DISTANCE_METHOD_REL, A.n * EPS * kappa)
            assert abs(rec.phi - potential_phi(state.A)) <= slack
        assert np.array_equal(final.A.array, state.A.array)
        assert np.array_equal(final.b, state.b)
        assert np.array_equal(final.x, state.x)
        assert len(history) == steps

    @pytest.mark.parametrize("n", [2, 3, 8, 100])
    def test_block_row_draws_match_one_draw_per_op(self, n):
        # run_cosolve draws its Kaczmarz rows in one block
        block = make_rng(5).integers(n, size=5000)
        rng = make_rng(5)
        assert block.tolist() == [int(rng.integers(n)) for _ in range(5000)]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_run_ending_mid_cycle_matches_replay(self, field):
        # 203 = 40 cycles of 2 orth and 3 Kaczmarz ops, then 2 orth and 1
        # Kaczmarz op: the block row draw and the error carried over orth
        # ops must still give the bits of one op at a time
        A, x_true = random_instance(5, 12, field)
        history, final = run_cosolve(A, x_true, interleave=(2, 3), steps=203, seed=7)
        kinds = ([ORTH] * 2 + [KACZ] * 3) * 40 + [ORTH, ORTH, KACZ]
        assert [rec.kind for rec in history] == kinds
        chain_phi = run_chain(A, kinds.count(ORTH), UNIFORM, derive_replicate_seed(7, 0)).phi
        rng_pairs = make_rng(derive_replicate_seed(7, 0))
        rng_rows = make_rng(derive_replicate_seed(7, 1))
        state = initial_state(A, x_true)
        orth_done = 0
        for rec, kind in zip(history, kinds):
            if kind == ORTH:
                state = orth_with_rhs(state, sample_pair(state.A, "uniform", rng_pairs))
                orth_done += 1
            else:
                state = kaczmarz_step(state, int(rng_rows.integers(A.n)))
            assert rec.err_norm == state.error()
            assert rec.phi == chain_phi[orth_done]
        assert np.array_equal(final.A.array, state.A.array)
        assert np.array_equal(final.b, state.b)
        assert np.array_equal(final.x, state.x)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("interleave", [(0, 1), (1, 16)])
    def test_error_norms_read_off_many_iterate_buffers(self, field, interleave):
        # run_cosolve keeps 256 Kaczmarz iterates before it reads their errors
        # off: 10,000 ops fill that buffer many times, inside one block (0:1)
        # and across blocks of 64 orth ops and 1,024 Kaczmarz ops (1:16)
        A, x_true = random_instance(4, 12, field)
        history, final = run_cosolve(A, x_true, interleave=interleave, steps=10_000, seed=7)
        kinds = history.kind.tolist()
        chain_phi = run_chain(A, kinds.count(ORTH), UNIFORM, derive_replicate_seed(7, 0)).phi
        rng_pairs = make_rng(derive_replicate_seed(7, 0))
        rng_rows = make_rng(derive_replicate_seed(7, 1))
        state, orth_done = initial_state(A, x_true), 0
        for kind, err_norm, phi in zip(kinds, history.err_norm.tolist(), history.phi.tolist()):
            if kind == ORTH:
                state = orth_with_rhs(state, sample_pair(state.A, "uniform", rng_pairs))
                orth_done += 1
            else:
                state = kaczmarz_step(state, int(rng_rows.integers(A.n)))
            assert err_norm == state.error()
            assert phi == chain_phi[orth_done]
        assert np.array_equal(final.A.array, state.A.array)
        assert np.array_equal(final.b, state.b)
        assert np.array_equal(final.x, state.x)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_error_norm_memory_grows_with_the_history(self, field):
        # 8,000 more Kaczmarz ops at n = 64: a kept iterate per op would add
        # 8,000 n 8 bytes (real) or twice that, the history 40 bytes an op
        A, x_true = random_instance(64, 3, field)

        def peak(steps):
            tracemalloc.start()
            try:
                history, _ = run_cosolve(A, x_true, interleave=(0, 1), steps=steps, seed=1)
                return tracemalloc.get_traced_memory()[1], history.nbytes
            finally:
                tracemalloc.stop()

        (short, short_bytes), (long, long_bytes) = peak(1_000), peak(9_000)
        assert long - short <= 4 * (long_bytes - short_bytes) < 8_000 * 64 * 8

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("interleave", [(1, 1), (4, 1)])
    def test_peak_memory_grows_with_the_history_alone(self, field, interleave):
        # 8,000 more ops at n = 64, orth ops among them: the peak may grow by at most
        # twice the history's 40 bytes an op, which leaves no room for a per-op Python
        # list of pairs, rows or op kinds beside the drawn arrays
        A, x_true = random_instance(64, 3, field)

        def peak(steps):
            tracemalloc.start()
            try:
                run_cosolve(A, x_true, interleave=interleave, steps=steps, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(9_000) - peak(1_000) <= 2 * 40 * 8_000

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_one_block_run_keeps_no_list_of_its_ops(self, field):
        # a 0:1 run is one block: 8,000 more ops at n = 64 may grow the peak by the
        # history's 40 bytes an op, the drawn rows' 8, the error norms' 8 and the op
        # kinds' 1, but not by the 8-byte pointers of a whole-run list of kinds or rows
        A, x_true = random_instance(64, 3, field)

        def peak(steps):
            tracemalloc.start()
            try:
                run_cosolve(A, x_true, interleave=(0, 1), steps=steps, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(9_000) - peak(1_000) <= 64 * 8_000

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind,eta", [
        ("gaussian_normalized", None), ("near_singular", 1e-6), ("near_singular", 1e-10),
    ])
    def test_declined_blocks_replay_to_the_same_bits(self, monkeypatch, field, kind, eta):
        # run_cosolve steps by block and replays a block op by op through orth
        # when _commit declines it: with every block declined, each output
        # must keep its bits. The starts of test_kernel_counters_match_run_chain
        # (the inverse path, a refresh that comes due, the projection path);
        # step counts around the first checkpoint (64 orth ops) and past it
        A, _ = generate(GeneratorSpec(kind, n=8, field=field, seed=4, eta=eta))
        x_true = random_instance(8, 3, field)[1]
        cases = list(itertools.product([(1, 1), (4, 1), (1, 4), (64, 1), (1, 0), (0, 1)],
                                       [0, 1, 63, 64, 65, 300]))
        commit, kept = _ChainStack._commit, []

        def spy(self, *args):
            kept.append(commit(self, *args))
            return kept[-1]

        with monkeypatch.context() as patch:
            patch.setattr(_ChainStack, "_commit", spy)
            blocks = [cosolve_bits(A, x_true, *case) for case in cases]
        assert any(kept)  # some blocks were read off, not replayed
        monkeypatch.setattr(_ChainStack, "_commit", lambda *args: False)
        for case, bits in zip(cases, blocks):
            assert cosolve_bits(A, x_true, *case) == bits, case

    @pytest.mark.parametrize("seed", [1, 5])
    @pytest.mark.parametrize("interleave", [(1, 1), (4, 1)])
    def test_degenerate_pair_inside_a_block(self, seed, interleave):
        # column 2 is e1 tilted by 1e-7: (0, 2) and (2, 0) are degenerate, every
        # other pair is orthogonal. For these seeds two orth ops pass first, so
        # the error comes from a _move inside the block, which is put back and
        # replayed: the error is the one of the one-op functions' replay
        A = build_unit_column_matrix([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-7]],
                                     normalize=True)
        x_true = np.array([1.0, -2.0, 0.5])
        with pytest.raises(DegeneratePairError) as raised:
            run_cosolve(A, x_true, interleave=interleave, steps=400, seed=seed)
        rng_pairs = make_rng(derive_replicate_seed(seed, 0))
        rng_rows = make_rng(derive_replicate_seed(seed, 1))
        state, cycle, passed = initial_state(A, x_true), [ORTH] * interleave[0] + [KACZ], 0
        with pytest.raises(DegeneratePairError) as replayed:
            for kind in itertools.cycle(cycle):
                if kind == ORTH:
                    state = orth_with_rhs(state, sample_pair(state.A, "uniform", rng_pairs))
                    passed += 1
                else:
                    state = kaczmarz_step(state, int(rng_rows.integers(A.n)))
        assert passed == 2
        assert (raised.value.pair, raised.value.inner_abs) == (
            replayed.value.pair, replayed.value.inner_abs)
