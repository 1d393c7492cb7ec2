"""Closed-form bound evaluators against frozen high-precision values."""

import itertools
import math
import warnings

import numpy as np
import pytest

from pairorth import (
    ConvergenceTarget,
    DomainError,
    UsageError,
    c_n,
    f_map,
    inflection,
    kappa_bounds_from_phi,
    prop_a0_bound,
    stopping_tail,
    theorem1_steps,
    theorem7_bound,
)

# frozen from the 60-digit reference evaluator
F_AT_LN43 = 0.25643201358470794
F_AT_LN2 = 0.56814704513998633
TH7_SMALL = 0.13154932754429135
TH7_LARGE_T1E6 = 3.1998522748477280e-05
KAPPA_LOWER = 1.1547004965491971
KAPPA_UPPER_LOOSE = 2.6666664734619245
KAPPA_UPPER_TIGHT = 7.2825173603961376
PROP_A0_T16 = 4.1536747500263385
PROP_A0_T0 = 4.1588830833596719


class TestFMap:
    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_zero_fixed_point(self, n):
        assert f_map(0.0, n) == 0.0

    def test_frozen_values(self):
        assert f_map(0.287682, 2) == pytest.approx(F_AT_LN43, rel=1e-14)
        assert f_map(0.693147, 2) == pytest.approx(F_AT_LN2, rel=1e-14)

    def test_below_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 12))
            x = float(rng.uniform(1e-6, 50.0))
            fx = f_map(x, n)
            assert fx < x
            assert fx >= x - 1.0 / (2 * (n - 1) ** 2)

    def test_concave_below_inflection(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            b = float(rng.uniform(1e-9, inflection(n)))
            a = float(rng.uniform(0, b))
            m = 0.5 * (a + b)
            assert f_map(m, n) >= 0.5 * (f_map(a, n) + f_map(b, n)) - 1e-12

    def test_drop_floor_above_inflection(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(2, 10))
            x = inflection(n) * float(rng.uniform(1.0, 20.0))
            assert x - f_map(x, n) >= 1.0 / (8 * (n - 1) ** 2) - 1e-12

    def test_domain_errors(self):
        with pytest.raises(UsageError):
            f_map(-0.1, 3)
        with pytest.raises(UsageError):
            f_map(1.0, 1)


class TestTheorem7:
    def test_small_branch_t0_is_phi0(self):
        assert theorem7_bound(0.2, 2, 0) == 0.2

    def test_large_branch_t0_is_phi0(self):
        assert theorem7_bound(10.0, 2, 0) == pytest.approx(10.0, rel=1e-12)

    def test_frozen_small_branch(self):
        assert theorem7_bound(0.2, 2, 10) == pytest.approx(TH7_SMALL, rel=1e-13)

    def test_frozen_large_branch(self):
        v = theorem7_bound(10.0, 2, 10**6)
        assert v == pytest.approx(TH7_LARGE_T1E6, rel=1e-12)
        assert v < 0.02

    @pytest.mark.parametrize("phi0", [0.05, 0.3, 2.0, 40.0])
    def test_non_increasing_and_nonnegative(self, phi0):
        # branch continuity at the threshold is deliberately not asserted
        for n in (2, 4, 8):
            ts = [0, 1, 2, 5, 10, 100, 1000, 10**5, 10**7]
            values = [theorem7_bound(phi0, n, t) for t in ts]
            assert all(v >= 0 for v in values)
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_errors(self):
        with pytest.raises(UsageError):
            theorem7_bound(-1.0, 2, 0)
        with pytest.raises(UsageError):
            theorem7_bound(1.0, 2, -1)


class TestKappaBounds:
    def test_phi_zero_collapses(self):
        for n in (2, 5, 9):
            lower, loose, tight = kappa_bounds_from_phi(0.0, n)
            assert lower == 1.0
            assert loose == float(n)
            assert tight == 1.0

    def test_frozen_values(self):
        lower, loose, tight = kappa_bounds_from_phi(0.287682, 2)
        assert lower == pytest.approx(KAPPA_LOWER, rel=1e-14)
        assert loose == pytest.approx(KAPPA_UPPER_LOOSE, rel=1e-14)
        assert tight == pytest.approx(KAPPA_UPPER_TIGHT, rel=1e-13)
        # sqrt(3) for the generating matrix sits inside [lower, loose]
        assert lower <= math.sqrt(3.0) <= loose

    def test_tight_absent_at_and_beyond_half(self):
        assert kappa_bounds_from_phi(0.6, 4)[2] is None
        assert kappa_bounds_from_phi(0.5, 4)[2] is None
        assert kappa_bounds_from_phi(0.499999, 4)[2] is not None

    def test_ordering(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            phi = float(rng.uniform(0, 30))
            lower, loose, _ = kappa_bounds_from_phi(phi, n)
            assert lower <= loose


class TestStoppingTail:
    def test_examples(self):
        assert stopping_tail(5.0, 4, 1) == (720, 0.5)
        assert stopping_tail(5.0, 4, 3) == (2160, 0.125)

    def test_power_of_two_tail(self):
        assert stopping_tail(1.0, 2, 10)[1] == 2.0**-10

    def test_threshold_is_ceiling(self):
        threshold, _ = stopping_tail(0.3, 3, 1)
        assert threshold == math.ceil(16 * 4 * 0.3)

    def test_errors(self):
        with pytest.raises(UsageError):
            stopping_tail(0.0, 4, 1)
        with pytest.raises(UsageError):
            stopping_tail(1.0, 4, 0)


class TestPropA0:
    def test_t0(self):
        phi0 = 2 * inflection(4)
        assert prop_a0_bound(phi0, 4, 0) == pytest.approx(PROP_A0_T0, rel=1e-14)

    def test_frozen_mid_value(self):
        phi0 = 2 * inflection(4)
        assert prop_a0_bound(phi0, 4, 16) == pytest.approx(PROP_A0_T16, rel=1e-14)

    def test_constant_at_threshold(self):
        phi0 = inflection(5)
        v0 = prop_a0_bound(phi0, 5, 0)
        v1 = prop_a0_bound(phi0, 5, 20)
        assert v0 == pytest.approx(v1, rel=1e-15)

    def test_domain_errors_name_the_precondition(self):
        with pytest.raises(DomainError, match="threshold"):
            prop_a0_bound(0.5 * inflection(4), 4, 0)
        with pytest.raises(DomainError, match="step count"):
            prop_a0_bound(2 * inflection(4), 4, 1000)


class TestTheorem1Steps:
    def test_frozen_example(self):
        target = ConvergenceTarget(eps=0.01, delta=0.01)
        with pytest.warns(UserWarning):
            # 0.01 is the boundary of the stated open regime
            assert theorem1_steps(5.0, 4, target) == 12_288_000_000

    def test_small_n_example(self):
        target = ConvergenceTarget(eps=0.01, delta=0.01)
        with pytest.warns(UserWarning):
            assert theorem1_steps(1.0, 2, target) == 768_000_000

    def test_log_clamped(self):
        target = ConvergenceTarget(eps=0.005, delta=0.005)
        # phi0 <= n/7 zeroes the first term
        n, phi0 = 7, 0.9
        expected = math.ceil(48 * n**4 / (0.005 * 0.005**2))
        assert theorem1_steps(phi0, n, target) == expected

    def test_no_warning_inside_regime(self):
        import warnings

        target = ConvergenceTarget(eps=0.009, delta=0.009)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theorem1_steps(2.0, 3, target)

    def test_target_validation(self):
        with pytest.raises(UsageError):
            ConvergenceTarget(eps=0.0, delta=0.5)
        with pytest.raises(UsageError):
            ConvergenceTarget(eps=0.5, delta=1.0)
        assert ConvergenceTarget(eps=0.001, delta=0.001).within_stated_regime
        assert not ConvergenceTarget(eps=0.5, delta=0.001).within_stated_regime


class TestConstants:
    def test_constants(self):
        assert c_n(4) == pytest.approx(2 * math.log(2) ** 2 * 16 * 9, rel=1e-15)
        assert inflection(4) == pytest.approx(2 * math.log(2), rel=1e-15)

    def test_c_n_below_n4(self):
        for n in range(2, 65):
            assert c_n(n) <= n**4


# each evaluator with arguments inside its domain; theorem1_steps takes its
# target's eps and delta as the first two
IN_DOMAIN = {
    "f_map": (f_map, (0.3, 4)),
    "theorem7_bound": (theorem7_bound, (0.5, 4, 10.0)),
    "kappa_bounds_from_phi": (kappa_bounds_from_phi, (0.3, 4)),
    "stopping_tail": (stopping_tail, (5.0, 4, 1)),
    "prop_a0_bound": (prop_a0_bound, (5.0, 4, 16.0)),
    "theorem1_steps": (
        lambda eps, delta, phi0, n: theorem1_steps(phi0, n, ConvergenceTarget(eps, delta)),
        (0.005, 0.005, 5.0, 4),
    ),
}


class TestNonFiniteArguments:
    @pytest.mark.parametrize("name", IN_DOMAIN)
    def test_nan_in_any_argument_raises(self, name):
        evaluate, args = IN_DOMAIN[name]
        evaluate(*args)
        for k in range(len(args)):
            with pytest.raises((UsageError, DomainError)):
                evaluate(*args[:k], math.nan, *args[k + 1:])

    def test_infinite_arguments_of_integer_results_raise(self):
        target = ConvergenceTarget(eps=0.005, delta=0.005)
        with pytest.raises(UsageError, match="phi0"):
            stopping_tail(math.inf, 4, 1)
        with pytest.raises(UsageError, match="c must be"):
            stopping_tail(5.0, 4, math.inf)
        with pytest.raises(UsageError, match="phi0"):
            theorem1_steps(math.inf, 4, target)


class TestIntegerArguments:
    @pytest.mark.parametrize("name", IN_DOMAIN)
    def test_dimension_must_be_an_integer(self, name):
        # a fractional, float-typed or bool n raises, as the 60-digit
        # reference takes only integers; a numpy integer counts as one
        evaluate, args = IN_DOMAIN[name]
        n_at = 3 if name == "theorem1_steps" else 1
        assert evaluate(*args[:n_at], np.int64(4), *args[n_at + 1:]) == evaluate(*args)
        for n in (2.5, 4.0, np.float64(4.0), True, "4"):
            with pytest.raises(UsageError, match="dimension must be"):
                evaluate(*args[:n_at], n, *args[n_at + 1:])

    @pytest.mark.parametrize("c", [True, 2.0, 1.5, np.float64(3.0)])
    def test_stopping_tail_c_must_be_an_integer(self, c):
        with pytest.raises(UsageError, match="c must be"):
            stopping_tail(1.0, 3, c)


EXTREMES = (0.0, 1e-300, 5.0, 1e300, math.inf)


class TestExtremeArguments:
    @pytest.mark.parametrize("name", IN_DOMAIN)
    def test_a_number_or_a_named_error(self, name):
        # n in {2, 4, 100} and every other argument in EXTREMES: each
        # combination returns no NaN, or raises UsageError or DomainError
        # (never OverflowError or ZeroDivisionError)
        evaluate, args = IN_DOMAIN[name]
        n_at = 3 if name == "theorem1_steps" else 1
        for values in itertools.product(EXTREMES, repeat=len(args) - 1):
            for n in (2, 4, 100):
                call = (*values[:n_at], n, *values[n_at:])
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        result = evaluate(*call)
                except (UsageError, DomainError):
                    continue
                for value in result if isinstance(result, tuple) else (result,):
                    assert value is None or not math.isnan(value), call

    def test_undefined_and_infinite_cases_are_domain_errors(self):
        assert theorem7_bound(0.0, 4, math.inf) == 0.0
        with pytest.raises(DomainError, match="both infinite"):
            theorem7_bound(math.inf, 4, math.inf)
        with pytest.raises(DomainError, match="both infinite"):
            prop_a0_bound(math.inf, 4, math.inf)
        with pytest.raises(DomainError, match="step count"):
            stopping_tail(1e307, 100, 1)
        with pytest.raises(DomainError, match="step count"):
            theorem1_steps(1e306, 4, ConvergenceTarget(eps=0.005, delta=0.005))
        with pytest.raises(DomainError, match="step count"):
            theorem1_steps(5.0, 4, ConvergenceTarget(eps=1e-300, delta=0.005))
