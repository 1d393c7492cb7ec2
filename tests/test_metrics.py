"""Leave-one-out distances, the potential, kappa, and the inequality reports."""

import math

import numpy as np
import pytest

from pairorth import (
    ColumnMatrix,
    ConstructionError,
    SingularityError,
    UsageError,
    build_unit_column_matrix,
    condition_number,
    generate,
    gram_offdiag_fro,
    hadamard_report,
    leave_one_out_distances,
    potential_phi,
    snapshot,
)
from pairorth import metrics
from pairorth.generators import GeneratorSpec
from pairorth.metrics import (
    INVERSE_ROWS,
    PROJECTION,
    _distances_full,
    _distances_projection,
    _pair_distances,
    _pair_order,
)

SQ3 = np.sqrt(3.0)
PHI_PI3 = 0.2876820724517809  # -2 log(sqrt(3)/2)


def angle_matrix(theta=np.pi / 3):
    return build_unit_column_matrix([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])


def random_state(n, field, seed):
    A, _ = generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=seed))
    return A


class TestDistances:
    def test_identity(self):
        d = leave_one_out_distances(build_unit_column_matrix(np.eye(4)))
        assert d == pytest.approx(np.ones(4), abs=1e-14)

    def test_angle_example(self):
        d = leave_one_out_distances(angle_matrix())
        assert d == pytest.approx([SQ3 / 2, SQ3 / 2], abs=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_methods_agree(self, field):
        for seed in range(30):
            A = random_state(5, field, seed)
            d_inv = leave_one_out_distances(A, INVERSE_ROWS)
            d_proj = leave_one_out_distances(A, PROJECTION)
            assert np.max(np.abs(d_inv - d_proj) / d_proj) <= 1e-8

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            leave_one_out_distances(angle_matrix(), "qr")

    def test_values_in_unit_interval(self):
        for seed in range(20):
            d = leave_one_out_distances(random_state(6, "real", seed))
            assert np.all(d > 0.0) and np.all(d <= 1.0)

    def test_singular_array_raises(self):
        A = ColumnMatrix._wrap(np.array([[1.0, 1.0], [0.0, 0.0]]), "real")
        with pytest.raises(SingularityError):
            leave_one_out_distances(A, INVERSE_ROWS)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_auto_rule_matches_each_matrix_alone(self, field):
        # a refresh recomputes the chains due as one stack: mixed with
        # projection-path matrices, each must get the auto rule's d alone
        mats = [random_state(6, field, seed) for seed in range(3)] + [
            generate(GeneratorSpec("near_singular", n=6, field=field, seed=seed, eta=1e-10))[0]
            for seed in range(2)
        ]
        inv, row_norms, d, on_inv = _distances_full(np.stack([A.array for A in mats]))
        assert on_inv.tolist() == [True] * 3 + [False] * 2
        for k, A in enumerate(mats):
            method = INVERSE_ROWS if on_inv[k] else PROJECTION
            assert np.array_equal(d[k], leave_one_out_distances(A, method))
            if on_inv[k]:
                assert np.array_equal(inv[k], np.linalg.inv(A.array))
                assert np.array_equal(row_norms[k], np.linalg.norm(inv[k], axis=1))

    def test_singular_matrix_in_a_stack_fails_as_alone(self):
        # the stacked inv fails as a whole; each matrix then goes alone, and
        # the singular one fails projection as it would by itself
        good = build_unit_column_matrix(np.eye(2)).array
        with pytest.raises(SingularityError):
            _distances_full(np.stack([good, np.array([[1.0, 1.0], [0.0, 0.0]])]))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pair_read_off_matches_projection(self, field):
        # d_i off the trailing 2x2 block and d_j = |r22| of one QR, against
        # the QRs of PROJECTION, which put each column last in another order
        for seed in range(5):
            A = random_state(6, field, seed)
            d = leave_one_out_distances(A, PROJECTION)
            for i, j in ((0, 1), (5, 2), (3, 4)):
                assert np.allclose(_pair_distances(A.array, i, j), d[[i, j]], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 2), (2, 1)])
    def test_pair_read_off_of_a_dependent_matrix_raises(self, pair):
        # columns 0 and 2 are equal and the last row is zero: R has an exact
        # zero pivot, whichever pair goes last, and the column named is one
        # of the two equal ones
        arr = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SingularityError) as info:
            _pair_distances(arr, *pair)
        assert info.value.column in {0, 2}

    @pytest.mark.parametrize(
        "columns,dependent",
        [
            # even n: a_2 = a_0 + a_1, with no zero row
            ([[3, 4, 0, 0], [0, 0, 1, 0], [3, 4, 1, 0], [0, 0, 0, 1]], {0, 1, 2}),
            # odd n, a dependency on the unpaired last column: a_2 = a_0 + a_1
            # at n = 3, a_4 = a_3 at n = 5
            ([[3, 4, 0], [0, 0, 1], [3, 4, 1]], {0, 1, 2}),
            ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 3, 4],
              [0, 0, 0, 3, 4]], {3, 4}),
            # a_2 = a_0 and a zero last row: the first pair's QR, columns in
            # the order (2, 0, 1), has a zero pivot at a_0 and a_1 after it
            ([[1, 0, 0], [0, 1, 0], [1, 0, 0]], {0, 2}),
        ],
    )
    def test_projection_of_a_dependent_matrix_names_a_dependent_column(self, columns, dependent):
        with pytest.raises(SingularityError) as info:
            _distances_projection(np.array(columns, dtype=float).T)
        assert info.value.column in dependent

    def test_dependency_only_the_first_d_i_read_off_sees(self):
        # a_0 = a_2 = e_0: the first pair's QR, columns in the order (2, 3, 0,
        # 1), has r11 = 0 and r22 = 1, so d_1 passes and d_0 = 0 raises
        arr = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float).T
        r = np.linalg.qr(arr[:, [2, 3, 0, 1]], mode="r")
        assert r[2, 2] == 0.0 and r[3, 3] == 1.0
        with pytest.raises(SingularityError) as info:
            _distances_projection(arr)
        assert info.value.column == 0

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_cached_pair_order_is_the_listed_order(self, n):
        for i in range(n):
            for j in range(n):
                if i != j:
                    listed = [k for k in range(n) if k != i and k != j] + [i, j]
                    assert _pair_order(n, i, j).tolist() == listed

    def test_pair_order_cache_is_bounded(self):
        # n = 96 has 9,120 pairs, more than the cache keeps: it holds at most
        # 4,096, and a pair evicted from it is built again in the listed order
        n = 96
        _pair_order.cache_clear()
        for i in range(n):
            for j in range(n):
                if i != j:
                    _pair_order(n, i, j)
        assert _pair_order.cache_info().currsize <= 4096
        misses = _pair_order.cache_info().misses
        listed = [k for k in range(2, n)] + [0, 1]
        assert _pair_order(n, 0, 1).tolist() == listed  # the first pair in, so evicted
        assert _pair_order.cache_info().misses == misses + 1

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pair_read_off_keeps_the_bits_of_a_listed_gather(self, field):
        # a step's (d_i, d_j) has the bits of the same read-off on a gather by
        # a Python list, as steps made it before the order was cached
        def listed_read_off(arr, i, j):
            order = [k for k in range(arr.shape[1]) if k != i and k != j]
            rt = np.linalg.qr(arr[:, order + [i, j]], mode="raw")[0]
            r11, r12, r22 = abs(rt[-2, -2]), abs(rt[-1, -2]), abs(rt[-1, -1])
            return min(r11 * (r22 / math.hypot(r12, r22)), 1.0), min(r22, 1.0)

        for seed in range(3):
            A, _ = generate(GeneratorSpec("near_singular", n=6, field=field, seed=seed, eta=1e-10))
            arr = np.asfortranarray(A.array)  # the layout of a chain's matrix
            for i in range(6):
                for j in range(6):
                    if i != j:
                        assert _pair_distances(arr, i, j) == listed_read_off(arr, i, j)


    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 32, 128])
    def test_pair_read_off_keeps_the_bits_of_the_public_qr(self, n, field):
        # the gufunc called directly gives the bits of the same read-off
        # through np.linalg.qr(mode="raw"), on both layouts of arr, from a
        # Gaussian start and a near_singular one (at n = 2 the generator
        # refuses it: its only pair is degenerate), and leaves arr as it was
        def public_read_off(arr, i, j):
            rt = np.linalg.qr(arr[:, _pair_order(arr.shape[1], i, j)], mode="raw")[0]
            r11, r12, r22 = abs(rt[-2, -2]), abs(rt[-1, -2]), abs(rt[-1, -1])
            return min(r11 * (r22 / math.hypot(r12, r22)), 1.0), min(r22, 1.0)

        starts = [random_state(n, field, 0)]
        try:
            spec = GeneratorSpec("near_singular", n=n, field=field, seed=0, eta=1e-10)
            starts.append(generate(spec)[0])
        except ConstructionError:
            assert n == 2
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        if n > 8:  # the first and last pairs and 30 drawn ones
            drawn = np.random.default_rng(n).choice(len(pairs), 30, replace=False)
            pairs = [pairs[0], pairs[-1]] + [pairs[k] for k in drawn]
        for A in starts:
            for arr in (np.asfortranarray(A.array), np.ascontiguousarray(A.array)):
                before = arr.copy()
                for i, j in pairs:
                    assert _pair_distances(arr, i, j) == public_read_off(arr, i, j)
                    assert np.array_equal(arr, before)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_failed_pair_qr_raises_linalg_error(self, field, monkeypatch):
        # geqrf's failure reaches the gufunc's caller as a NaN tau with the
        # gather left as it was; np.linalg.qr raised LinAlgError for it
        def failed_qr(a, signature):
            return np.full(a.shape[1], np.nan, dtype=a.dtype)

        monkeypatch.setattr(metrics, "_qr_r_raw", failed_qr)
        with pytest.raises(np.linalg.LinAlgError):
            _pair_distances(random_state(6, field, 0).array, 0, 1)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pair_read_off_of_a_nan_column_raises(self, field):
        # a NaN anywhere reaches every entry of R behind it, r22 among them:
        # whatever column holds it, the pair's last column j is named
        A = random_state(4, field, 0)
        for col in range(4):
            arr = np.array(A.array, order="F")
            arr[1, col] = np.nan
            for i in range(4):
                for j in range(4):
                    if i != j:
                        with pytest.raises(SingularityError) as info:
                            _pair_distances(arr, i, j)
                        assert info.value.column == j


class TestPotential:
    def test_identity_zero(self):
        assert potential_phi(build_unit_column_matrix(np.eye(3))) == 0.0

    def test_angle_example(self):
        assert potential_phi(angle_matrix()) == pytest.approx(PHI_PI3, abs=1e-12)

    def test_orthonormal_zero(self):
        for seed in range(5):
            A, _ = generate(GeneratorSpec("haar_orthonormal", n=6, field="real", seed=seed))
            assert abs(potential_phi(A)) <= 1e-10

    def test_nonnegative(self):
        for seed in range(20):
            assert potential_phi(random_state(4, "complex", seed)) >= 0.0


class TestConditionNumber:
    def test_identity(self):
        kappa, sigma = condition_number(build_unit_column_matrix(np.eye(5)))
        assert kappa == pytest.approx(1.0)
        assert sigma == pytest.approx(np.ones(5))

    def test_angle_example(self):
        # eigenvalues of A*A are 1.5 and 0.5
        kappa, sigma = condition_number(angle_matrix())
        assert kappa == pytest.approx(SQ3, abs=1e-12)
        assert sigma == pytest.approx([np.sqrt(1.5), np.sqrt(0.5)], abs=1e-12)

    def test_sigma_descending(self):
        _, sigma = condition_number(random_state(6, "real", 9))
        assert np.all(np.diff(sigma) <= 0)


class TestHadamardReport:
    def test_identity(self):
        rep = hadamard_report(build_unit_column_matrix(np.eye(3)))
        assert rep.all_ok
        assert rep.det_abs == pytest.approx(1.0)
        assert rep.norm == pytest.approx(1.0)
        assert rep.norm_bound == pytest.approx(np.sqrt(3.0))

    def test_angle_example(self):
        rep = hadamard_report(angle_matrix())
        assert rep.det_abs == pytest.approx(SQ3 / 2, abs=1e-12)
        assert rep.inv_det_abs == pytest.approx(2 / SQ3, abs=1e-12)
        assert rep.inv_det_bound == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert rep.all_ok

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_certification(self, field):
        for trial in range(150):
            A = random_state(2 + trial % 7, field, seed=3000 + trial)
            assert hadamard_report(A).all_ok

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reads_phi_and_sigma_only(self, field, monkeypatch):
        # the report takes phi and the singular values, never the Gram
        # residual, and its fields keep the bits of the snapshot's values
        starts = [
            random_state(8, field, 5),
            generate(GeneratorSpec("near_singular", n=8, field=field, seed=7, eta=1e-10))[0],
        ]
        starts += [ColumnMatrix._wrap(np.array(A.array, order="F"), field) for A in starts]
        expected = [snapshot(A) for A in starts]

        def no_gram(A):
            raise AssertionError("hadamard_report took the Gram residual")

        monkeypatch.setattr(metrics, "gram_offdiag_fro", no_gram)
        for A, s in zip(starts, expected):
            rep = hadamard_report(A)
            assert rep.phi == s.phi
            assert rep.norm == s.sigma[0] and rep.inv_norm == 1.0 / s.sigma[-1]
            assert rep.inv_det_bound == math.exp(s.phi)
            assert rep.inv_norm_bound == math.sqrt(8) * math.exp(s.phi)

    def test_flags_detect_violation(self):
        rep = hadamard_report(angle_matrix())
        # a deliberately shrunk bound must flip the flag
        assert not (rep.inv_det_abs <= 1.0)


class TestGramResidualBound:
    def test_random_states(self):
        for trial in range(200):
            A = random_state(2 + trial % 9, ("real", "complex")[trial % 2], seed=trial)
            s = snapshot(A)
            lhs = s.gram_offdiag**2
            rhs = A.n / (A.n - 1) * (1 - s.sigma[-1] ** 2) ** 2
            assert lhs >= rhs - 1e-9

    def test_two_by_two_equality_family(self):
        # at n = 2 the bound is tight: ||A*A - I||_F^2 = 2 (1 - sigma_2^2)^2
        for theta in np.linspace(0.15, np.pi - 0.15, 25):
            A = angle_matrix(theta)
            fro2 = gram_offdiag_fro(A) ** 2
            _, sigma = condition_number(A)
            assert fro2 == pytest.approx(2 * (1 - sigma[-1] ** 2) ** 2, abs=1e-10)

    def test_angle_pi3_both_sides_half(self):
        A = angle_matrix()
        fro2 = gram_offdiag_fro(A) ** 2
        _, sigma = condition_number(A)
        assert fro2 == pytest.approx(0.5, abs=1e-12)
        assert 2 * (1 - sigma[-1] ** 2) ** 2 == pytest.approx(0.5, abs=1e-12)


class TestSnapshot:
    def test_consistency(self):
        A = random_state(5, "real", 77)
        s = snapshot(A)
        assert s.phi == pytest.approx(-np.log(s.d).sum(), rel=1e-10)
        assert s.kappa == pytest.approx(s.sigma[0] / s.sigma[-1])
        assert s.gram_offdiag == pytest.approx(gram_offdiag_fro(A), abs=1e-14)
        assert np.all(s.d > 0) and np.all(s.d <= 1) and np.all(s.sigma > 0)
