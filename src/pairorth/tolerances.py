"""Numerical tolerances used across the package.

Every tolerance that a contract or a certification suite depends on lives
here, so the production code and the test suite agree on a single source
of truth.
"""

# Unit-norm column checks. Construction without renormalization accepts a
# looser tolerance than the post-update guarantee.
UNIT_NORM_REL = 1e-12
UNIT_NORM_BUILD_REL = 1e-9

# |<a_i', a_j>| after an orthogonalization step.
POST_ORTH_ABS = 1e-12

# Guard on 1 - |<a_i, a_j>| before an update touches a pair. Below this the
# pair is numerically parallel and the update would divide by ~0.
DEGENERATE_PAIR_GUARD = 1e-12

# Smallest singular value must exceed RANK_FLOOR_COEFF * n at construction.
RANK_FLOOR_COEFF = 1e-14

# Fixed-point detection: matrices with Gram residual at or below this are
# left unchanged by an update to within the same tolerance.
FIXED_POINT_ABS = 1e-12

# Per-step monotonicity slack for the leave-one-out distances and for the
# potential along a trajectory.
MONOTONE_ABS = 1e-10

# Agreement between the two leave-one-out distance methods (relative, for
# condition numbers up to ~1e6).
DISTANCE_METHOD_REL = 1e-8

# Condition estimate sqrt(n) ||A^-1||_F above which the distances come
# from one R-only QR per column instead of inverse rows. The step kernel
# reads the estimate off its kept state; above it, a step reads d_i and d_j
# off one R-only QR, and a crossing either way refreshes.
DISTANCE_FALLBACK_KAPPA = 1e8

# The step kernel's checkpoint spacing: on either path a full recompute comes
# at a multiple of it where the running drift bound would reach the
# slack by the next, or at a crossing of the 1e8 estimate (on the projection
# path also when the estimate falls below 1/n of its value at the last one).
# README, "The refresh policy".
INVERSE_REFRESH_STEPS = 64

# Slack for the exact one-step expectation against the iterative map.
ONE_STEP_EXPECTATION_ABS = 1e-9

# Slack for the Gram residual lower bound in terms of sigma_n.
GRAM_RESIDUAL_ABS = 1e-9

# Relative slack for the determinant / operator-norm inequality report.
HADAMARD_REL = 1e-9

# Relative agreement between the double-precision bound evaluators and the
# high-precision reference.
HIGHPREC_REL = 1e-12

# Off-diagonal magnitude below which the proportional sampler falls back
# to uniform.
PROPORTIONAL_FALLBACK_ABS = 1e-15

# Residual tolerance preserved by the right-hand-side co-update.
COSOLVE_RESIDUAL_ABS = 1e-8

# A single Kaczmarz projection zeroes its equation's residual to this.
KACZMARZ_RESIDUAL_ABS = 1e-12

# Maximum fraction of aborted replicates an ensemble run tolerates.
ENSEMBLE_ABORT_FRACTION = 0.01
