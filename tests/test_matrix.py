"""Core matrix type, inner product convention, and the orth update."""

import math

import numpy as np
import pytest

from pairorth import (
    ColumnMatrix,
    ConstructionError,
    DegeneratePairError,
    UsageError,
    build_unit_column_matrix,
    generate,
    gram_offdiag_fro,
    initial_state,
    inner,
    orth_step,
    orth_with_rhs,
    verify_lemma3,
)
from pairorth import tolerances as tol
from pairorth.generators import GeneratorSpec
from pairorth.matrix import _orth_column, _vdot, validate_pair
from pairorth.process import _weights

SQ3 = np.sqrt(3.0)


def angle_matrix(theta=np.pi / 3):
    return build_unit_column_matrix([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])


def random_state(n, field, seed):
    A, _ = generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=seed))
    return A


class TestInner:
    def test_orthogonal_axes(self):
        assert inner((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_hand_value(self):
        assert inner((1.0, 0.0), (0.5, SQ3 / 2)) == pytest.approx(0.5, abs=1e-15)

    def test_conjugation_on_second_argument(self):
        # <(i,0), (1,0)> = i * conj(1) = i
        assert inner(np.array([1j, 0.0]), np.array([1.0 + 0j, 0.0])) == 1j
        # and the conjugate-symmetric partner
        assert inner(np.array([1.0 + 0j, 0.0]), np.array([1j, 0.0])) == -1j

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            inner((1.0, 0.0), (1.0, 0.0, 0.0))

    def test_field_mismatch(self):
        with pytest.raises(UsageError):
            inner(np.array([1.0, 0.0]), np.array([1j, 0.0]))


class TestBuild:
    def test_identity(self):
        A = build_unit_column_matrix(np.eye(3))
        assert A.n == 3 and A.field == "real"
        sigma = np.linalg.svd(A.array, compute_uv=False)
        assert sigma[0] / sigma[-1] == pytest.approx(1.0)

    def test_normalize_rescales(self):
        A = build_unit_column_matrix([[2.0, 0.0], [0.0, 2.0]], normalize=True)
        assert np.array_equal(A.array, np.eye(2))

    def test_dependent_columns_rejected(self):
        with pytest.raises(ConstructionError):
            build_unit_column_matrix([[1.0, 1.0], [0.0, 0.0]])

    def test_zero_column_rejected(self):
        with pytest.raises(ConstructionError, match="zero"):
            build_unit_column_matrix([[1.0, 0.0], [0.0, 0.0]], normalize=True)

    def test_non_unit_without_normalize_rejected(self):
        with pytest.raises(ConstructionError, match="norm"):
            build_unit_column_matrix([[2.0, 0.0], [0.0, 1.0]])

    def test_rank_floor_error_names_singular_value(self):
        c = 1e-15
        entries = np.array([[1.0, np.sqrt(1 - c * c)], [0.0, c]])
        with pytest.raises(ConstructionError, match="singular value"):
            build_unit_column_matrix(entries)

    def test_errors_print_plain_floats(self):
        with pytest.raises(ConstructionError) as norm_err:
            build_unit_column_matrix([[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ConstructionError) as rank_err:
            build_unit_column_matrix([[1.0, 1.0], [0.0, 0.0]])
        assert "column 1 has norm 0.5, not unit" in str(norm_err.value)
        assert "smallest singular value 0.0 is below" in str(rank_err.value)

    def test_non_square_rejected(self):
        with pytest.raises(ConstructionError):
            build_unit_column_matrix(np.ones((2, 3)))

    def test_one_by_one_rejected(self):
        with pytest.raises(ConstructionError, match="^dimension must be >= 2, got 1$"):
            build_unit_column_matrix([[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ConstructionError, match="^entries contain non-finite values$"):
            build_unit_column_matrix([[1.0, bad], [0.0, 1.0]])

    def test_array_is_read_only(self):
        A = build_unit_column_matrix(np.eye(2))
        with pytest.raises(ValueError):
            A.array[0, 0] = 2.0


class TestOrthStep:
    def test_orthonormal_fixed_point(self):
        A = build_unit_column_matrix(np.eye(2))
        B = orth_step(A, (0, 1))
        assert np.array_equal(B.array, A.array)

    def test_angle_example_replaces_first(self):
        A = angle_matrix()
        B = orth_step(A, (0, 1))
        assert B.column(0) == pytest.approx([SQ3 / 2, -0.5], abs=1e-12)
        assert np.array_equal(B.column(1), A.column(1))

    def test_angle_example_replaces_second(self):
        A = angle_matrix()
        B = orth_step(A, (1, 0))
        assert B.column(1) == pytest.approx([0.0, 1.0], abs=1e-12)
        assert np.array_equal(B.column(0), A.column(0))

    def test_degenerate_pair_rejected(self):
        A = angle_matrix(1e-7)  # passes the rank floor, fails the pair guard
        with pytest.raises(DegeneratePairError):
            orth_step(A, (0, 1))

    def test_pair_validation(self):
        A = angle_matrix()
        with pytest.raises(UsageError):
            orth_step(A, (0, 0))
        with pytest.raises(UsageError):
            orth_step(A, (0, 2))

    @pytest.mark.parametrize("pair", [(1.7, 2), (1.0, 2), (True, 2), (1, np.float64(2.0)), ("1", 2)])
    def test_pair_indices_must_be_integers(self, pair):
        # int() would truncate 1.7 and read True as 1, replacing column 1
        A = random_state(4, "real", 0)
        with pytest.raises(UsageError, match="integers"):
            validate_pair(4, pair)
        with pytest.raises(UsageError, match="integers"):
            orth_step(A, pair)

    @pytest.mark.parametrize("pair", [(0, 1, 2), 3, None])
    def test_pair_must_be_two_indices(self, pair):
        # unpacking would raise a bare ValueError or TypeError
        A = random_state(4, "real", 0)
        calls = (lambda: validate_pair(4, pair), lambda: orth_step(A, pair),
                 lambda: orth_with_rhs(initial_state(A, np.ones(4)), pair),
                 lambda: verify_lemma3(A, pair))
        for call in calls:
            with pytest.raises(UsageError, match="two indices"):
                call()

    def test_numpy_integer_pairs_pass(self):
        A = random_state(4, "complex", 1)
        pair = (np.int64(1), np.uint8(2))
        assert validate_pair(4, pair) == (1, 2) and type(validate_pair(4, pair)[0]) is int
        assert np.array_equal(orth_step(A, pair).array, orth_step(A, (1, 2)).array)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_step_contract_on_random_states(self, field):
        # post-orthogonality, unit restoration, untouched columns bit-identical
        for trial in range(200):
            n = 2 + trial % 5
            A = random_state(n, field, seed=1000 + trial)
            i, j = trial % n, (trial + 1 + trial // n) % n
            if i == j:
                j = (j + 1) % n
            B = orth_step(A, (i, j))
            assert abs(inner(B.column(i), B.column(j))) <= tol.POST_ORTH_ABS
            assert abs(np.linalg.norm(B.column(i)) - 1.0) <= tol.UNIT_NORM_REL
            for k in range(n):
                if k != i:
                    assert np.array_equal(B.column(k), A.column(k))

    def test_field_closure_real_stays_real(self):
        A = random_state(4, "real", seed=5)
        B = orth_step(A, (1, 3))
        assert B.field == "real" and not np.iscomplexobj(B.array)

    def test_fixed_point_near_orthonormal(self):
        for seed in range(10):
            A, _ = generate(GeneratorSpec("haar_orthonormal", n=5, field="real", seed=seed))
            if gram_offdiag_fro(A) > tol.FIXED_POINT_ABS:
                continue
            for pair in [(0, 1), (3, 2), (4, 0)]:
                B = orth_step(A, pair)
                assert np.max(np.abs(B.array - A.array)) <= tol.FIXED_POINT_ABS


def norm_formula_orth_column(arr, i, j):
    """The column update as it was written with np.linalg.norm and
    np.isfinite: (new column, c, c2, nu), arr untouched."""
    a_i, a_j = arr[:, i], arr[:, j]
    c = np.vdot(a_j, a_i)
    if abs(c) >= 1.0 - tol.DEGENERATE_PAIR_GUARD:
        raise DegeneratePairError((i, j), abs(c))
    w = a_i - c * a_j
    c2 = np.vdot(a_j, w)
    w = w - c2 * a_j
    nu = np.linalg.norm(w)
    if nu <= 0.0 or not np.isfinite(nu):
        raise DegeneratePairError((i, j), abs(c))
    return w / nu, c, c2, nu


def outcome(update, arr, i, j):
    """What an update does to a copy of arr: ("raised", pair, inner_abs)
    with the copy untouched, or ("done", column i, c, c2, nu)."""
    work = np.array(arr, order="F")
    try:
        result = update(work, i, j)
    except DegeneratePairError as exc:
        assert np.array_equal(work, arr, equal_nan=True)
        return ("raised", exc.pair, exc.inner_abs)
    if update is _orth_column:
        c, c2, nu = result
        new_col = work[:, i]
        assert np.array_equal(np.delete(work, i, axis=1), np.delete(arr, i, axis=1))
    else:
        new_col, c, c2, nu = result
    return ("done", new_col.tobytes(), c, c2, nu)


class TestOrthColumnBits:
    """_orth_column, the one scalar update, against the formula it replaced."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_pairs(self, field):
        rng = np.random.default_rng(7)
        for n in (2, 3, 8, 32, 128):
            for seed in range(3):
                A = random_state(n, field, seed=seed)
                for _ in range(20):
                    i, j = rng.choice(n, size=2, replace=False).tolist()
                    new = outcome(_orth_column, A.array, i, j)
                    assert new == outcome(norm_formula_orth_column, A.array, i, j)
                    assert new[0] == "done"

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_guard_cases(self, dtype):
        guard = 1.0 - tol.DEGENERATE_PAIR_GUARD
        cases = []
        for c in (guard, np.nextafter(guard, 0.0), np.nextafter(guard, 2.0), 1.0):
            # unit a_1 with <a_0, a_1> = c, at and either side of the guard
            cases.append([[1.0, c], [0.0, math.sqrt(max(0.0, 1.0 - c * c))]])
        cases.append([[1.0, 0.5], [0.0, 0.0]])  # nu = 0 at (1, 0): a_1 = a_0 / 2
        cases.append([[np.nan, 0.0], [0.0, 1.0]])  # nu is NaN
        cases.append([[1.0, np.nan], [0.0, 1.0]])  # c is NaN
        cases.append([[np.inf, 0.0], [0.0, 1.0]])  # nu is infinite
        cases.append([[1e300, 0.0], [0.0, 1.0]])  # c = 0 and nu overflows
        for entries in cases:
            arr = np.array(entries, dtype=dtype, order="F")
            if dtype is complex:
                arr *= np.exp(0.3j)
            for i, j in ((0, 1), (1, 0)):
                with np.errstate(over="ignore", invalid="ignore"):
                    new = outcome(_orth_column, arr, i, j)
                    old = outcome(norm_formula_orth_column, arr, i, j)
                assert len(new) == len(old) and all(
                    a == b or (a != a and b != b) for a, b in zip(new, old)
                )


class TestNumpyEntryPoints:
    """The numpy C functions the step kernel calls directly keep the bits of
    the public calls they stand for: a numpy that moves them fails here."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31, 32, 33, 127, 128, 129])
    def test_vdot_is_np_vdot(self, n, field):
        rng = np.random.default_rng(n)
        z = rng.standard_normal((4, 2 * n))
        if field == "complex":
            z = z + 1j * rng.standard_normal((4, 2 * n))
        cols = np.asfortranarray(z[:, :n].T)  # columns as a chain's matrix holds them
        vectors = [
            z[0, :n], z[1, n:],  # contiguous rows
            cols[:, 2], cols[:, 3],  # F-order column views
            z[2, n - 1::-1], z[3, ::-1][:n],  # step -1
            z[0, ::2], z[1, 1::2],  # step 2
        ]
        for x in vectors:
            for y in vectors:
                assert _vdot(x, y).tobytes() == np.vdot(x, y).tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_row_sums_are_sum(self, field):
        # the proportional draw's row sums of _weights, by np.add.reduce
        for n in (2, 3, 4, 7, 8, 9, 16, 31, 32, 33, 64, 65, 96, 127, 128, 129, 160):
            arr = random_state(n, field, seed=n).array
            w = _weights(arr.conj().T @ arr)
            assert np.add.reduce(w, axis=1).tobytes() == w.sum(axis=1).tobytes()


class TestGramOffdiag:
    def test_identity(self):
        assert gram_offdiag_fro(build_unit_column_matrix(np.eye(4))) == 0.0

    def test_angle_example(self):
        assert gram_offdiag_fro(angle_matrix()) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_orthonormal_is_zero(self):
        A, _ = generate(GeneratorSpec("haar_orthonormal", n=6, field="complex", seed=2))
        assert gram_offdiag_fro(A) <= 1e-10
