"""Solve A* x = b by Kaczmarz while orthogonalizing A in the background.

Every column update co-updates the right-hand side so the true solution
never moves. On an ill-conditioned start, plain Kaczmarz stalls; the
interleaved run orthogonalizes the system under the solver's feet and
then converges geometrically.
"""

import numpy as np

from pairorth import generate, run_cosolve
from pairorth.cosolve import KACZ
from pairorth.generators import GeneratorSpec

A0, achieved = generate(
    GeneratorSpec("prescribed_spectrum", n=8, field="real", seed=5,
                  sigma=tuple(np.logspace(0, -3, 8)))
)
rng = np.random.default_rng(1)
x_true = rng.standard_normal(8)
print(f"instance: kappa0 = {achieved.kappa:.0f}, phi0 = {achieved.phi:.2f}")
print(f"solving for x_true with ||x_true|| = {np.linalg.norm(x_true):.3f}\n")

budget = 3000  # kaczmarz projections available to each run
plain, plain_final = run_cosolve(A0, x_true, interleave=(0, 1), steps=budget, seed=9)
mixed, mixed_final = run_cosolve(A0, x_true, interleave=(1, 1), steps=2 * budget, seed=9)

# the histories are record arrays: read them by column
plain_err = plain.err_norm
mixed_err = mixed.err_norm[mixed.kind == KACZ]
mixed_phi = mixed.phi[mixed.kind == KACZ]

print(f"{'kacz steps':>10} {'plain err':>12} {'interleaved err':>16} {'phi (interleaved)':>18}")
for k in (0, 99, 299, 999, 2999):
    print(f"{k + 1:>10} {plain_err[k]:12.4e} {mixed_err[k]:16.4e} {mixed_phi[k]:18.4e}")

print(f"\nfinal residual checks: plain ||A*x_true - b|| = {plain_final.residual():.2e}, "
      f"interleaved = {mixed_final.residual():.2e}")
print("the co-update keeps the solution exact to roundoff while the matrix")
print("changes underneath; the interleaved error falls once phi collapses.")
