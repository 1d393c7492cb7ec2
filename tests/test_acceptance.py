"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every test prints a single `ACCEPTANCE <k> <name>: PASS|FAIL` line before
asserting, so a bare run of this module doubles as the acceptance report.
Monte Carlo criteria use fixed base seeds; all numbers are reproducible.

Criterion 1 asserts that no leave-one-out distance ever decreases and the
potential never rises across a single update. That claim is genuinely
false for n >= 3: the kept column's distance can shrink (an explicit
family: columns (g, sqrt(1-g^2), 0), (a, 0, b), (1, 0, 0) with g*a*b != 0).
The criterion is implemented exactly as stated and is expected to fail;
it is kept red deliberately rather than weakened. At n = 2 the claim does
hold, which criterion 8 exercises separately.
"""

import math
import time

import numpy as np
import pytest

from pairorth import (
    build_unit_column_matrix,
    condition_number,
    derive_replicate_seed,
    generate,
    highprec_bound_reference,
    inflection,
    initial_state,
    orth_step,
    orth_with_rhs,
    potential_phi,
    run_chain,
    run_cosolve,
    run_ensemble,
    stopping_tail,
)
from pairorth import certify, io
from pairorth.cosolve import KACZ
from pairorth.generators import GeneratorSpec, NEAR_SINGULAR, PRESCRIBED
from pairorth.process import UNIFORM

BASE_SEED = 20260808


def report(k, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {k:2d} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def criterion6_inputs():
    A0, achieved = generate(
        GeneratorSpec(NEAR_SINGULAR, n=8, field="real", seed=7, eta=1e-6)
    )
    assert achieved.phi >= inflection(8)
    return A0, achieved


@pytest.fixture(scope="module")
def criterion6_stats(criterion6_inputs):
    A0, _ = criterion6_inputs
    return run_ensemble(
        A0, steps=20_000, kind=UNIFORM, replicates=50, base_seed=42, metrics_stride=100
    )


def test_criterion_1_pointwise_monotonicity():
    started = time.monotonic()
    result = certify.run_suite("lemma3", 10_000, BASE_SEED)
    elapsed = time.monotonic() - started
    ok = result.ok and elapsed < 30.0
    report(
        1,
        "pointwise monotonicity of distances and potential",
        ok,
        f"{result.passes}/{result.trials} instances, worst margin "
        f"{result.worst_margin:.3g}, {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    assert result.ok


def test_criterion_2_one_step_expectation():
    started = time.monotonic()
    result = certify.run_suite("onestep", 200, BASE_SEED)
    elapsed = time.monotonic() - started
    ok = result.ok and elapsed < 60.0
    report(
        2,
        "exact one-step expectation below the iterative map",
        ok,
        f"{result.passes}/{result.trials}, worst margin {result.worst_margin:.3g}, "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert result.ok


def test_criterion_3_gram_residual():
    result = certify.run_suite("lemma10", 1000, BASE_SEED)
    equality_ok = True
    worst_gap = 0.0
    for theta in np.linspace(0.1, math.pi - 0.1, 50):
        A = build_unit_column_matrix(
            [[1.0, math.cos(theta)], [0.0, math.sin(theta)]]
        )
        fro2 = (A.array.T @ A.array - np.eye(2)).ravel() @ (
            A.array.T @ A.array - np.eye(2)
        ).ravel()
        _, sigma = condition_number(A)
        gap = abs(fro2 - 2.0 * (1.0 - sigma[-1] ** 2) ** 2)
        worst_gap = max(worst_gap, gap)
        equality_ok = equality_ok and gap <= 1e-10
    ok = result.ok and equality_ok
    report(
        3,
        "Gram residual lower bound and n=2 equality family",
        ok,
        f"{result.passes}/{result.trials}, worst margin {result.worst_margin:.3g}, "
        f"equality gap {worst_gap:.2e}",
    )
    assert result.ok
    assert equality_ok


def test_criterion_4_distance_identity():
    result = certify.run_suite("eq9", 500, BASE_SEED)
    report(
        4,
        "dual-method leave-one-out distance agreement",
        result.ok,
        f"{result.passes}/{result.trials}, worst margin {result.worst_margin:.3g}",
    )
    assert result.ok


def test_criterion_5_kappa_phi_sandwich():
    result = certify.run_suite("kappa-sandwich", 1000, BASE_SEED)
    report(
        5,
        "condition number inside the potential sandwich",
        result.ok,
        f"{result.passes}/{result.trials}, worst margin {result.worst_margin:.3g}",
    )
    assert result.ok


@pytest.mark.slow
def test_criterion_6_expected_potential_bound(criterion6_inputs, criterion6_stats):
    started = time.monotonic()
    _, achieved = criterion6_inputs
    stats = criterion6_stats
    elapsed = time.monotonic() - started
    never_exceeds = not bool(stats.exceed.any())
    final_small = stats.mean_phi[-1] < 0.05
    ok = never_exceeds and final_small and achieved.phi >= inflection(8)
    report(
        6,
        "ensemble mean potential under the closed-form bound",
        ok,
        f"phi0 {achieved.phi:.2f}, final mean phi {stats.mean_phi[-1]:.2e}, "
        f"exceed steps {int(stats.exceed.sum())}/{len(stats.t)}",
    )
    assert never_exceeds
    assert final_small


@pytest.mark.slow
def test_criterion_7_stopping_time_tail():
    started = time.monotonic()
    A0, achieved = certify.find_tail_instance(BASE_SEED, n=4, phi_range=(4.0, 6.0))
    phi0 = achieved.phi
    cap, _ = stopping_tail(phi0, 4, 3)
    stats = run_ensemble(
        A0, steps=cap + 1, kind=UNIFORM, replicates=200, base_seed=BASE_SEED,
        metrics_stride=cap + 1,
    )
    details = []
    ok = 4.0 <= phi0 <= 6.0
    for c in (1, 2, 3):
        threshold, tail = stopping_tail(phi0, 4, c)
        empirical = sum(1 for ts in stats.t_stars if ts is None or ts > threshold) / 200.0
        allowance = tail + 3.0 * math.sqrt(tail / 200.0)
        details.append(f"c={c}: {empirical:.4f}<={allowance:.4f}")
        ok = ok and empirical <= allowance
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120.0
    report(
        7,
        "exponential concentration of the stopping time",
        ok,
        f"phi0 {phi0:.2f}, " + ", ".join(details) + f", {elapsed:.1f}s",
    )
    assert 4.0 <= phi0 <= 6.0
    assert elapsed < 120.0
    for c in (1, 2, 3):
        threshold, tail = stopping_tail(phi0, 4, c)
        empirical = sum(1 for ts in stats.t_stars if ts is None or ts > threshold) / 200.0
        assert empirical <= tail + 3.0 * math.sqrt(tail / 200.0)


def test_criterion_8_two_by_two_exactness():
    rng = np.random.default_rng(BASE_SEED)
    worst_phi = 0.0
    worst_kappa = 0.0
    for _ in range(100):
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        A = build_unit_column_matrix(
            [[1.0, math.cos(theta)], [0.0, math.sin(theta)]]
        )
        for pair in ((0, 1), (1, 0)):
            B = orth_step(A, pair)
            worst_phi = max(worst_phi, potential_phi(B))
            kappa, _ = condition_number(B)
            worst_kappa = max(worst_kappa, abs(kappa - 1.0))
    ok = worst_phi <= 1e-12 and worst_kappa <= 1e-10
    report(
        8,
        "single step fully orthogonalizes every 2x2",
        ok,
        f"worst phi {worst_phi:.2e}, worst |kappa-1| {worst_kappa:.2e}",
    )
    assert worst_phi <= 1e-12
    assert worst_kappa <= 1e-10


@pytest.mark.slow
def test_criterion_9_kappa_convergence():
    # the closed-form step counts for eps, delta < 0.01 exceed 1e10 and are
    # not simulated; this certifies the qualitative convergence and checks
    # the step-count evaluator against the high-precision reference
    started = time.monotonic()
    sigma = tuple(np.logspace(0, -3, 8))
    A0, achieved = generate(
        GeneratorSpec(PRESCRIBED, n=8, field="real", seed=5, sigma=sigma)
    )
    assert 1e2 <= achieved.kappa <= 1e4
    finals = []
    for r in range(20):
        traj = run_chain(
            A0, steps=50_000, kind=UNIFORM, seed=derive_replicate_seed(BASE_SEED, r),
            metrics_stride=50_000,
        )
        kappa, _ = condition_number(traj.final_matrix)
        finals.append(kappa)
    elapsed = time.monotonic() - started

    ref = highprec_bound_reference("theorem1-steps", 5.0, 4, 0.01, 0.01)
    import warnings

    from pairorth import ConvergenceTarget, theorem1_steps

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        evaluated = theorem1_steps(5.0, 4, ConvergenceTarget(eps=0.01, delta=0.01))
    evaluator_ok = abs(evaluated - ref) / ref <= 1e-12

    ok = max(finals) <= 1.01 and evaluator_ok
    report(
        9,
        "condition number reaches 1 at desk scale",
        ok,
        f"kappa0 {achieved.kappa:.0f}, worst final kappa {max(finals):.6f}, "
        f"evaluator vs reference rel err {abs(evaluated - ref) / ref:.1e}, "
        f"{elapsed:.0f}s",
    )
    assert max(finals) <= 1.01
    assert evaluator_ok


def kacz_steps_to_target(history, target=1e-6):
    count = 0
    for rec in history:
        if rec.kind == KACZ:
            count += 1
            if rec.err_norm <= target:
                return count
    return None


def test_criterion_10_kaczmarz_cosolve():
    # part one: the right-hand-side co-update preserves the solution
    rng = np.random.default_rng(BASE_SEED)
    steps_done = 0
    worst_residual = 0.0
    instance = 0
    while steps_done < 1000:
        n = 3 + instance % 4
        A, _ = generate(
            GeneratorSpec("gaussian_normalized", n=n, field=("real", "complex")[instance % 2],
                          seed=BASE_SEED + instance)
        )
        x_true = rng.standard_normal(n)
        if instance % 2:
            x_true = x_true + 1j * rng.standard_normal(n)
        state = initial_state(A, x_true)
        for _ in range(25):
            i = int(rng.integers(n))
            j = int((i + 1 + rng.integers(n - 1)) % n)
            state = orth_with_rhs(state, (i, j))
            worst_residual = max(worst_residual, state.residual())
            steps_done += 1
        instance += 1
    preserve_ok = worst_residual <= 1e-8

    # part two: paired-seed comparison against the never-orthogonalizing run
    sigma = tuple(np.logspace(0, -3, 8))
    A0, achieved = generate(
        GeneratorSpec(PRESCRIBED, n=8, field="real", seed=5, sigma=sigma)
    )
    x_rng = np.random.default_rng(BASE_SEED + 1)
    x_true = x_rng.standard_normal(8)
    kacz_budget = 10_000
    wins = 0
    converged = 0
    for s in range(20):
        seed = derive_replicate_seed(BASE_SEED, 500 + s)
        mixed_hist, _ = run_cosolve(A0, x_true, interleave=(1, 1),
                                    steps=2 * kacz_budget, seed=seed)
        plain_hist, _ = run_cosolve(A0, x_true, interleave=(0, 1),
                                    steps=kacz_budget, seed=seed)
        mixed_count = kacz_steps_to_target(mixed_hist)
        plain_count = kacz_steps_to_target(plain_hist)
        if mixed_count is not None:
            converged += 1
            if plain_count is None or mixed_count <= plain_count:
                wins += 1
    compare_ok = wins >= 15
    ok = preserve_ok and compare_ok
    report(
        10,
        "co-update preserves the solution; interleaving wins the pairing",
        ok,
        f"worst residual {worst_residual:.2e} over {steps_done} co-updates, "
        f"wins {wins}/20 (converged {converged}/20), kappa0 {achieved.kappa:.0f}",
    )
    assert preserve_ok
    assert compare_ok


@pytest.mark.slow
def test_criterion_11_determinism(criterion6_inputs, criterion6_stats):
    A0, _ = criterion6_inputs
    repeat = run_ensemble(
        A0, steps=20_000, kind=UNIFORM, replicates=50, base_seed=42, metrics_stride=100
    )
    csv_a = io.ensemble_to_csv(criterion6_stats)
    csv_b = io.ensemble_to_csv(repeat)
    ok = csv_a == csv_b
    report(
        11,
        "repeated base seed reproduces the ensemble CSV bit for bit",
        ok,
        f"{len(csv_a.splitlines()) - 1} rows compared",
    )
    assert ok
