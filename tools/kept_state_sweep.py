"""Kept state of the step kernel against fresh recomputes and its drift bound, over a grid.

Usage: python tools/kept_state_sweep.py CHECKOUT [--baseline OTHER]

Steps one chain of the package in CHECKOUT/src per cell, each step a pair
from `_draw_pair` and then `_ChainStack.orth`, and measures the chain's kept
distances d_k and kept phi against the slack s = max(1e-8, n eps kappa) of
the measured step, in one table for two kinds of cell.

Per-step (192): near_singular starts, n in {3, 4, 6, 8}, planted distance
1e-10 and 1e-12, both fields, all three samplers, generator seeds 0-3 and
step seed one more. At every step up to INVERSE_REFRESH_STEPS + 6, each kept
log d_k against the auto recompute and the brute-force oracle in shares of s,
and the kept phi against minus the sum of their log d_k in shares of n s.
The row gives the worst share, with its step, reference and column. Gate: <= 1.

Drift (30): uniform chains, generator seed 0 and step seed 1, both fields:
n in {4, 8, 32, 128} from a gaussian_normalized start and from planted
distances 1e-2 and 1e-6, 2,048 steps (1,024 at n = 128), and n in
{16, 32, 64} from a planted distance of 1e-10, 2,048 steps. At each multiple
of INVERSE_REFRESH_STEPS, the step before it (a chain that refreshes at a
multiple is measured there) and the last step it takes gap = |phi_kept -
potential_phi(A, method)|, method that of the chain's path (auto, or
projection), against B = eps est_sum, the kernel's running bound (its
condition estimates summed since its last full recompute), and n s. The row
gives the worst gap / B (where B > 0) and gap / (n s). Gate: < 1 and <= 0.5.

Every row also gives the chain's projection-path steps and full recomputes,
and with --baseline the recomputes of the same chain on OTHER, loaded beside
CHECKOUT in this process. A chain that aborts on a degenerate pair is
measured up to the abort. The last line counts the cells of CHECKOUT that
fail their gates; the exit code is 1 when one does.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

# one BLAS thread, as in tools/ab_rounds.py and perfbench, unless the caller says otherwise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_rounds import load_side  # noqa: E402

EPS = float(np.finfo(float).eps)
STARTS = (("gaussian_normalized", None), ("near_singular", 1e-2), ("near_singular", 1e-6))
# (n, start, field, sampler, generator seed, steps): a per-step cell has steps None
CELLS = [(n, ("near_singular", eta), field, sampler, seed, None)
         for n, eta, field, sampler, seed in itertools.product(
             (3, 4, 6, 8), (1e-10, 1e-12), ("real", "complex"),
             ("uniform", "proportional", "greedy"), range(4))]
CELLS += [(n, start, field, "uniform", 0, 1024 if n == 128 else 2048)
          for n, start in [*itertools.product((4, 8, 32, 128), STARTS),
                           *((n, ("near_singular", 1e-10)) for n in (16, 32, 64))]
          for field in ("real", "complex")]


def run_cell(p, cell):
    """(projection-path steps, refreshes, worst, ok) of one cell on package p;
    worst is (share, where) for a per-step cell, (gap / B, gap / (n s)) for a drift cell."""
    n, (kind, eta), field, sampler, seed, steps = cell
    drift, K = steps is not None, p.tolerances.INVERSE_REFRESH_STEPS
    steps = steps if drift else K + 6
    A, _ = p.generate(p.generators.GeneratorSpec(kind, n=n, field=field, seed=seed, eta=eta))
    stack = p.process._ChainStack(A, 1, sampler)
    rng, w = p.make_rng(seed + 1), None if stack.w is None else stack.w[0]
    worst = (0.0, 0.0) if drift else (0.0, "-")
    for t in range(steps + 1):
        if t:
            (i, j), _ = p.process._draw_pair(n, sampler, rng, w)
            try:
                stack.orth(0, i, j)
            except p.errors.DegeneratePairError:
                break
        # a drift cell is measured at each checkpoint t = k K, the step before it and the last
        if drift and (t == 0 or (t + 1) % K > 1 and t != steps):
            continue
        now = stack.matrix(0)
        slack = max(p.tolerances.DISTANCE_METHOD_REL, n * EPS * p.condition_number(now)[0])
        if drift:
            method = p.metrics.AUTO if stack.on_inv[0] else p.metrics.PROJECTION
            gap = abs(float(stack.phi[0]) - p.potential_phi(now, method))
            bound = EPS * float(stack.est_sum[0])
            ratios = (gap / bound if bound > 0.0 else 0.0, gap / (n * slack))
            worst = (max(worst[0], ratios[0]), max(worst[1], ratios[1]))
            continue
        log_d = np.log(stack.d[0])
        for what, ref in (("auto", p.leave_one_out_distances(now)),
                          ("oracle", np.array([p.brute_force_distance(now, k) for k in range(n)]))):
            gap = np.abs(log_d - np.log(ref))
            k = int(np.argmax(gap))
            share = max(gap[k] / slack, abs(stack.phi[0] + np.log(ref).sum()) / (n * slack))
            if share > worst[0]:
                worst = (float(share), f"step {t} {what} column {k}")
    ok = worst[0] < 1.0 and worst[1] <= 0.5 if drift else worst[0] <= 1.0
    return int(stack.fallbacks[0]), int(stack.refreshes[0]), worst, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--baseline", help="a checkout whose refresh counts are printed alongside")
    args = parser.parse_args(argv)
    p = load_side(args.checkout, "a")[0]
    other = load_side(args.baseline, "b")[0] if args.baseline else None
    print("n\tstart\tfield\tsampler\tseed\tprojection steps\trefreshes"
          + "\tbaseline refreshes" * bool(other) + "\tshare or gap/B\tat or gap/(n s)")
    failed = 0
    for cell in CELLS:
        n, (kind, eta), field, sampler, seed, _ = cell
        fallbacks, refreshes, worst, ok = run_cell(p, cell)
        counts = [fallbacks, refreshes] + ([run_cell(other, cell)[1]] if other else [])
        start = kind if eta is None else f"{kind} {eta:g}"
        print("\t".join(map(str, (n, start, field, sampler, seed, *counts)))
              + "".join(f"\t{m:.3g}" if isinstance(m, float) else f"\t{m}" for m in worst)
              + ("" if ok else "\tFAIL"))
        failed += not ok
    print(f"{failed}/{len(CELLS)} cells fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
