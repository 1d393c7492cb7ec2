"""Kept phi of the step kernel against its running drift bound, over a grid.

Usage: python tools/refresh_drift_sweep.py CHECKOUT [--baseline OTHER]

Runs one uniform chain of the package in CHECKOUT/src per cell: n in
{4, 8, 32, 128}, a gaussian_normalized start and near_singular starts with
planted distance 1e-2 and 1e-6, and n in {16, 32, 64} from a planted
distance of 1e-10, all in both fields, generator seed 0 and step seed 1;
2,048 steps, 1,024 at n = 128. Each step goes through `_ChainStack.orth`,
as in run_chain. Alongside, the script keeps its own running bound
B = eps sum_t est_t over the steps since the kernel's last full recompute,
est_t the condition estimate after step t: sqrt(n sum_k row_sq[k]) off the
kept inverse rows, or sqrt(n sum_k 1 / d_k^2) off the kept distances on
the projection path (above 1e8: the 1e-10 starts, and the 1e-6 start at
n = 128). At every multiple of INVERSE_REFRESH_STEPS, at the step before
each (a chain that refreshes at a multiple is measured there) and at the
last step it takes gap = |phi_kept - potential_phi(A, method)|, method the
recompute of the chain's path (auto, or projection), and the slack
n max(1e-8, n eps kappa). It prints, per chain, its projection-path steps,
its full recomputes (and with --baseline those of the same chain on OTHER,
run by this script in a child process), the worst gap / B (over the points
with B > 0) and the worst gap / slack. The gate: every gap / B below 1 and
every gap / slack at most 0.5; the exit code is 1 when a chain of CHECKOUT
fails it. A chain that aborts on a degenerate pair is measured up to the
abort. It reads only `_ChainStack` and `_uniform_pairs`, so it runs on any
checkout that has them, whatever its refresh rule.
"""

from __future__ import annotations

import argparse
import itertools
import math
import subprocess
import sys

import numpy as np

EPS = float(np.finfo(float).eps)
STARTS = (("gaussian_normalized", None), ("near_singular", 1e-2), ("near_singular", 1e-6))
CELLS = [(n, start, field) for n, start, field in itertools.product(
    (4, 8, 32, 128), STARTS, ("real", "complex"))] + [
    (n, ("near_singular", 1e-10), field) for n in (16, 32, 64) for field in ("real", "complex")]


def _chain(pairorth, n, kind, eta, field):
    """(projection-path steps, refreshes, worst gap / B, worst gap / slack)
    of one chain."""
    from pairorth import tolerances as tol
    from pairorth.errors import DegeneratePairError
    from pairorth.generators import GeneratorSpec
    from pairorth.metrics import AUTO, PROJECTION
    from pairorth.process import _ChainStack, _uniform_pairs

    steps = 1024 if n == 128 else 2048
    A, _ = pairorth.generate(GeneratorSpec(kind, n=n, field=field, seed=0, eta=eta))
    stack = _ChainStack(A, 1)
    pairs = _uniform_pairs(n, pairorth.make_rng(1), steps).tolist()
    bound, worst_b, worst_slack = 0.0, 0.0, 0.0
    for t, (i, j) in enumerate(pairs, start=1):
        refreshes = int(stack.refreshes[0])
        try:
            stack.orth(0, i, j)
        except DegeneratePairError:
            break
        if stack.refreshes[0] > refreshes:
            bound = 0.0
        else:
            kept = stack.row_sq[0] if stack.on_inv[0] else 1.0 / (stack.d[0] * stack.d[0])
            bound += EPS * math.sqrt(n * float(kept.sum()))
        # measured at each checkpoint t = k K, the step before it and the last
        if (t + 1) % tol.INVERSE_REFRESH_STEPS > 1 and t != steps:
            continue
        now = stack.matrix(0)
        method = AUTO if stack.on_inv[0] else PROJECTION
        gap = abs(float(stack.phi[0]) - pairorth.potential_phi(now, method))
        kappa, _ = pairorth.condition_number(now)
        slack = n * max(tol.DISTANCE_METHOD_REL, n * EPS * kappa)
        worst_slack = max(worst_slack, gap / slack)
        worst_b = max(worst_b, gap / bound if bound > 0.0 else 0.0)
    return int(stack.fallbacks[0]), int(stack.refreshes[0]), worst_b, worst_slack


def _baseline_refreshes(checkout: str) -> list[str]:
    """The refreshes column of this script's table on another checkout."""
    out = subprocess.run([sys.executable, __file__, checkout], capture_output=True, text=True).stdout
    return [line.split("\t")[4] for line in out.splitlines()[1:-1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--baseline", help="a checkout whose refresh counts are printed alongside")
    args = parser.parse_args(argv)
    baseline = _baseline_refreshes(args.baseline) if args.baseline else None
    sys.path.insert(0, f"{args.checkout}/src")
    import pairorth

    failed = 0
    print("n\tstart\tfield\tprojection steps\trefreshes"
          + ("\tbaseline refreshes" if baseline else "") + "\tgap/B\tgap/slack")
    for k, (n, (kind, eta), field) in enumerate(CELLS):
        fallbacks, refreshes, worst_b, worst_slack = _chain(pairorth, n, kind, eta, field)
        ok = worst_b < 1.0 and worst_slack <= 0.5
        failed += not ok
        start = kind if eta is None else f"{kind} {eta:g}"
        counts = f"{refreshes}\t{baseline[k]}" if baseline else f"{refreshes}"
        print(f"{n}\t{start}\t{field}\t{fallbacks}\t{counts}\t{worst_b:.3g}\t{worst_slack:.3g}"
              + ("" if ok else "\tFAIL"))
    print(f"{failed}/{len(CELLS)} chains fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
