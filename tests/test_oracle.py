"""Brute-force oracles and the high-precision bound reference."""

import numpy as np
import pytest

from pairorth import (
    UsageError,
    brute_force_distance,
    build_unit_column_matrix,
    exact_one_step_expectation,
    f_map,
    generate,
    highprec_bound_reference,
    leave_one_out_distances,
    orth_step,
    potential_phi,
    verify_lemma3,
)
from pairorth import tolerances as tol
from pairorth.generators import GeneratorSpec

SQ3 = np.sqrt(3.0)


def angle_matrix(theta=np.pi / 3):
    return build_unit_column_matrix([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])


def random_state(n, field, seed):
    A, _ = generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=seed))
    return A


class TestExactOneStepExpectation:
    def test_orthonormal_is_zero(self):
        A = build_unit_column_matrix(np.eye(4))
        assert exact_one_step_expectation(A) == 0.0

    def test_angle_example(self):
        # either ordered pair fully orthogonalizes a 2x2
        A = angle_matrix()
        e = exact_one_step_expectation(A)
        assert abs(e) <= 1e-12
        assert e <= f_map(potential_phi(A), 2)

    def test_matches_manual_enumeration(self):
        A = random_state(4, "real", 21)
        values = [
            potential_phi(orth_step(A, (i, j)))
            for i in range(4)
            for j in range(4)
            if i != j
        ]
        assert len(values) == 12  # n(n-1) successor states
        assert exact_one_step_expectation(A) == pytest.approx(np.mean(values), rel=1e-14)

    def test_dimension_cap(self):
        big = random_state(9, "real", 3)
        with pytest.raises(UsageError):
            exact_one_step_expectation(big)


class TestBruteForceDistance:
    def test_identity(self):
        A = build_unit_column_matrix(np.eye(3))
        for j in range(3):
            assert brute_force_distance(A, j) == pytest.approx(1.0, abs=1e-14)

    def test_angle_example(self):
        assert brute_force_distance(angle_matrix(), 0) == pytest.approx(SQ3 / 2, abs=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_agrees_with_inverse_rows(self, field):
        for seed in range(20):
            A = random_state(6, field, seed)
            d_fast = leave_one_out_distances(A, "inverse-rows")
            for j in range(6):
                assert brute_force_distance(A, j) == pytest.approx(d_fast[j], rel=1e-8)

    def test_index_validation(self):
        with pytest.raises(UsageError):
            brute_force_distance(angle_matrix(), 2)


class TestVerifyLemma3:
    def test_orthonormal_equality_case(self):
        A = build_unit_column_matrix(np.eye(3))
        report = verify_lemma3(A, (0, 1))
        assert report.ok
        assert report.inner_abs == 0.0
        assert abs(report.margin_all) <= 1e-12
        assert abs(report.margin_ratio) <= 1e-12

    def test_angle_example_hits_ratio_equality(self):
        report = verify_lemma3(angle_matrix(), (0, 1))
        assert report.ok
        assert report.d_before[0] == pytest.approx(SQ3 / 2, abs=1e-12)
        assert report.d_after[0] == pytest.approx(1.0, abs=1e-12)
        # d0 / sqrt(1 - 0.25) = 1 exactly
        assert abs(report.margin_ratio) <= 1e-12

    def test_n2_always_passes(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            A = angle_matrix(float(rng.uniform(0.05, np.pi - 0.05)))
            pair = (0, 1) if rng.integers(2) else (1, 0)
            assert verify_lemma3(A, pair).ok

    def test_report_contains_failures_not_exceptions(self):
        # a known shrinking-distance instance for the kept column (n >= 3)
        A = build_unit_column_matrix(
            np.array([[0.6, 0.6, 1.0], [0.8, 0.0, 0.0], [0.0, 0.8, 0.0]])
        )
        report = verify_lemma3(A, (0, 1))
        assert report.margin_all < -1e-6
        assert not report.ok_all
        assert report.ok_ratio  # the replaced column's ratio bound still holds


HIGHPREC_CASES = [
    ("f", (0.287682, 2), lambda: f_map(0.287682, 2)),
    ("f", (7.5, 6), lambda: f_map(7.5, 6)),
    ("theorem7", (0.2, 2, 10), None),
    ("theorem7", (10.0, 2, 1000), None),
    ("kappa-lower", (0.0, 3), None),
    ("kappa-lower", (2.4, 5), None),
    ("kappa-upper-loose", (2.4, 5), None),
    ("kappa-upper-tight", (0.12, 4), None),
    ("stopping-threshold", (5.0, 4, 3), None),
    ("prop-a0", (4.0, 4, 16), None),
    ("theorem1-steps", (5.0, 4, 0.01, 0.01), None),
]


class TestHighPrecReference:
    def test_kappa_lower_at_zero_is_one(self):
        assert highprec_bound_reference("kappa-lower", 0.0, 7) == 1.0

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            highprec_bound_reference("lemma42", 1.0)

    def test_tight_kappa_needs_two_phi_below_one(self):
        with pytest.raises(UsageError, match="^tight bound needs 2 phi < 1, got phi = 0.6$"):
            highprec_bound_reference("kappa-upper-tight", 0.6, 3)

    @pytest.mark.parametrize("name,args", [
        ("f", (1.0, 2.5)), ("f", (1.0, True)), ("f", (1.0, 1)), ("f", (1.0, 2.0)),
        ("theorem7", (0.2, 3.5, 10)), ("kappa-lower", (2.4, 5.5)),
        ("kappa-upper-loose", (2.4, False)), ("prop-a0", (4.0, 4.0, 16)),
        ("stopping-threshold", (5.0, 4, 2.5)), ("stopping-threshold", (5.0, 4, 0)),
        ("stopping-threshold", (5.0, 4, True)), ("theorem1-steps", (5.0, 1.5, 0.01, 0.01)),
    ])
    def test_dimension_and_count_are_checked(self, name, args):
        # int() would read 2.5 as 2 and True as 1: the reference of another input
        with pytest.raises(UsageError):
            highprec_bound_reference(name, *args)

    def test_numpy_integer_dimension_passes(self):
        assert highprec_bound_reference("f", 1.0, np.int64(3)) == highprec_bound_reference(
            "f", 1.0, 3)

    def test_double_paths_agree(self):
        from pairorth import (
            kappa_bounds_from_phi,
            prop_a0_bound,
            stopping_tail,
            theorem7_bound,
        )

        checks = {
            ("f", (0.287682, 2)): f_map(0.287682, 2),
            ("f", (7.5, 6)): f_map(7.5, 6),
            ("theorem7", (0.2, 2, 10)): theorem7_bound(0.2, 2, 10),
            ("theorem7", (10.0, 2, 1000)): theorem7_bound(10.0, 2, 1000),
            ("kappa-lower", (2.4, 5)): kappa_bounds_from_phi(2.4, 5)[0],
            ("kappa-upper-loose", (2.4, 5)): kappa_bounds_from_phi(2.4, 5)[1],
            ("kappa-upper-tight", (0.12, 4)): kappa_bounds_from_phi(0.12, 4)[2],
            ("stopping-threshold", (5.0, 4, 3)): 3 * 16.0 * 9 * 5.0,
            ("prop-a0", (4.0, 4, 16)): prop_a0_bound(4.0, 4, 16),
        }
        for (name, args), double_value in checks.items():
            ref = highprec_bound_reference(name, *args)
            assert double_value == pytest.approx(ref, rel=tol.HIGHPREC_REL), name

    def test_theorem1_agrees_before_ceiling(self):
        import math

        ref = highprec_bound_reference("theorem1-steps", 5.0, 4, 0.01, 0.01)
        double_value = max(
            200 * 16 * 5.0 * math.log(7 * 5.0 / 4), 48 * 4**4 / (0.01 * 0.01**2)
        )
        assert double_value == pytest.approx(ref, rel=tol.HIGHPREC_REL)
