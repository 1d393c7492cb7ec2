"""Seeded matrix generators across conditioning regimes."""

import numpy as np
import pytest

from pairorth import ConstructionError, UsageError, generate, gram_offdiag_fro
from pairorth.generators import (
    GAUSSIAN,
    HAAR,
    KINDS,
    NEAR_SINGULAR,
    PRESCRIBED,
    TWO_BY_TWO,
    GeneratorSpec,
    haar_factor,
)

PHI_PI3 = 0.2876820724517809


def spec_for(kind, **overrides):
    base = dict(n=4, field="real", seed=11)
    if kind == TWO_BY_TWO:
        base.update(n=2, theta=np.pi / 3, seed=None)
    if kind == PRESCRIBED:
        base.update(sigma=(1.0, 0.5, 0.2, 0.1))
    if kind == NEAR_SINGULAR:
        base.update(eta=1e-4)
    base.update(overrides)
    return GeneratorSpec(kind, **base)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            GeneratorSpec("toeplitz", n=4, seed=1)

    def test_unknown_field(self):
        with pytest.raises(UsageError, match="^field must be 'real' or 'complex', got 'quaternion'$"):
            GeneratorSpec(GAUSSIAN, n=4, field="quaternion", seed=1)

    def test_seed_required_for_random_kinds(self):
        with pytest.raises(UsageError, match="seed"):
            GeneratorSpec(GAUSSIAN, n=4)

    def test_two_by_two_constraints(self):
        with pytest.raises(UsageError):
            GeneratorSpec(TWO_BY_TWO, n=3, theta=1.0)
        with pytest.raises(UsageError, match="theta"):
            GeneratorSpec(TWO_BY_TWO, n=2)

    def test_prescribed_sigma_positive(self):
        with pytest.raises(UsageError, match="positive"):
            GeneratorSpec(PRESCRIBED, n=2, seed=1, sigma=(1.0, -0.5))
        with pytest.raises(UsageError):
            GeneratorSpec(PRESCRIBED, n=3, seed=1, sigma=(1.0, 0.5))

    @pytest.mark.parametrize("n", [2.5, 4.0, True, "4"])
    def test_dimension_must_be_an_integer(self, n):
        with pytest.raises(UsageError, match="dimension"):
            GeneratorSpec(GAUSSIAN, n=n, seed=1)

    def test_numpy_integer_dimension_passes(self):
        A, _ = generate(GeneratorSpec(GAUSSIAN, n=np.int64(4), seed=1))
        assert np.array_equal(A.array, generate(GeneratorSpec(GAUSSIAN, n=4, seed=1))[0].array)

    def test_eta_range(self):
        with pytest.raises(UsageError, match="eta"):
            GeneratorSpec(NEAR_SINGULAR, n=4, seed=1, eta=1.5)
        with pytest.raises(UsageError, match="eta"):
            GeneratorSpec(NEAR_SINGULAR, n=4, seed=1)


class TestDeterminismAndValidity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_same_spec_same_matrix(self, kind, field):
        a1, s1 = generate(spec_for(kind, field=field))
        a2, s2 = generate(spec_for(kind, field=field))
        assert np.array_equal(a1.array, a2.array)
        assert s1.phi == s2.phi and s1.kappa == s2.kappa

    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_columns(self, kind):
        A, _ = generate(spec_for(kind))
        assert np.abs(np.linalg.norm(A.array, axis=0) - 1.0).max() <= 1e-12

    def test_different_seeds_differ(self):
        a1, _ = generate(spec_for(GAUSSIAN, seed=1))
        a2, _ = generate(spec_for(GAUSSIAN, seed=2))
        assert not np.array_equal(a1.array, a2.array)


class TestHaar:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_orthonormal(self, field):
        for seed in range(5):
            A, achieved = generate(spec_for(HAAR, n=6, field=field, seed=seed))
            assert gram_offdiag_fro(A) <= 1e-10
            assert achieved.kappa == pytest.approx(1.0, abs=1e-10)

    def test_haar_factor_is_unitary(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
        q = haar_factor(5, "complex", rng)
        assert np.abs(q.conj().T @ q - np.eye(5)).max() <= 1e-12


class TestTwoByTwo:
    def test_right_angle_is_identity(self):
        A, achieved = generate(spec_for(TWO_BY_TWO, theta=np.pi / 2))
        assert A.array == pytest.approx(np.eye(2), abs=1e-16)
        assert achieved.phi == pytest.approx(0.0, abs=1e-14)

    def test_pi_over_three(self):
        _, achieved = generate(spec_for(TWO_BY_TWO, theta=np.pi / 3))
        assert achieved.phi == pytest.approx(PHI_PI3, abs=1e-12)
        assert achieved.kappa == pytest.approx(np.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize("theta", [1e-6, np.pi - 1e-6])
    def test_degenerate_only_pair_rejected(self, theta):
        with pytest.raises(ConstructionError, match=r"\|<a_0, a_1>\| = 0\.99999"):
            generate(spec_for(TWO_BY_TWO, theta=theta))


class TestPrescribedSpectrum:
    def test_raw_factor_spectrum_before_renormalization(self):
        # the construction oracle: U diag(sigma) V* has exactly that spectrum
        rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
        sigma = np.array([1.0, 0.6, 0.25, 0.1])
        u = haar_factor(4, "real", rng)
        v = haar_factor(4, "real", rng)
        raw = u @ np.diag(sigma) @ v.conj().T
        got = np.linalg.svd(raw, compute_uv=False)
        assert got == pytest.approx(sigma, rel=1e-12)

    def test_achieved_kappa_near_requested(self):
        sigma = tuple(np.logspace(0, -3, 8))
        _, achieved = generate(
            GeneratorSpec(PRESCRIBED, n=8, field="real", seed=3, sigma=sigma)
        )
        # renormalization perturbs the spectrum; the target is approximate
        assert 1e2 <= achieved.kappa <= 1e4


class TestNearSingular:
    def test_spec_example_interval(self):
        _, achieved = generate(
            GeneratorSpec(NEAR_SINGULAR, n=8, field="real", seed=7, eta=1e-6)
        )
        d_min = achieved.d.min()
        assert 1e-7 <= d_min <= 1e-5
        assert np.log(1.0 / d_min) >= 11.5
        assert achieved.phi >= np.log(1.0 / d_min)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_planted_distance_tracks_eta(self, field):
        for eta in (1e-2, 1e-4):
            _, achieved = generate(
                GeneratorSpec(NEAR_SINGULAR, n=5, field=field, seed=4, eta=eta)
            )
            assert 0.1 * eta <= achieved.d.min() <= 10 * eta

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_degenerate_only_pair_at_n2_rejected(self, field):
        # at n = 2 the only pair is the planted one; below eta ~ 1.4e-6 it
        # is within the degenerate-pair guard and no step could be taken
        with pytest.raises(ConstructionError, match="degenerate only pair"):
            generate(GeneratorSpec(NEAR_SINGULAR, n=2, field=field, seed=1, eta=1e-7))
        A, _ = generate(GeneratorSpec(NEAR_SINGULAR, n=2, field=field, seed=1, eta=1e-5))
        assert abs(np.vdot(A.array[:, 1], A.array[:, 0])) < 1.0 - 1e-12
