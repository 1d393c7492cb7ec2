"""Kept phi of the step kernel against its running drift bound, over a grid.

Usage: python tools/refresh_drift_sweep.py CHECKOUT

Runs one uniform chain of the package in CHECKOUT/src per cell: n in
{4, 8, 32, 128}, a gaussian_normalized start and near_singular starts with
planted distance 1e-2 and 1e-6, both fields, generator seed 0 and step
seed 1; 2,048 steps, 1,024 at n = 128. Each step goes through
`_ChainStack.orth`, as in run_chain. Alongside, the script keeps its own
running bound B = eps sum_t est_t over the inverse-path steps since the
kernel's last full recompute, est_t = sqrt(n sum_k row_sq[k]) off the kept
inverse rows after step t. At every multiple of INVERSE_REFRESH_STEPS, at
the step before each (a chain that refreshes at a multiple is measured
there) and at the last step, if the chain is on the inverse path, it takes
gap = |phi_kept - potential_phi(A)| and the slack n max(1e-8, n eps kappa).
It prints, per chain, the full recomputes, the worst gap / B (over the
points with B > 0) and the worst gap / slack, or "-" for a chain with no
point on the inverse path. The gate: every gap / B below 1
and every gap / slack at most 0.5; the exit code is 1 when a chain fails
it. It reads only `_ChainStack` and `_uniform_pairs`, so it runs on any
checkout that has them, whatever its refresh rule.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

EPS = float(np.finfo(float).eps)
STARTS = (("gaussian_normalized", None), ("near_singular", 1e-2), ("near_singular", 1e-6))


def _chain(pairorth, n, kind, eta, field):
    """(refreshes, worst gap / B, worst gap / slack) of one chain; the last
    two are None when no point was on the inverse path."""
    from pairorth import tolerances as tol
    from pairorth.generators import GeneratorSpec
    from pairorth.process import _ChainStack, _uniform_pairs

    steps = 1024 if n == 128 else 2048
    A, _ = pairorth.generate(GeneratorSpec(kind, n=n, field=field, seed=0, eta=eta))
    stack = _ChainStack(A, 1)
    pairs = _uniform_pairs(n, pairorth.make_rng(1), steps).tolist()
    bound, worst_b, worst_slack = 0.0, None, None
    for t, (i, j) in enumerate(pairs, start=1):
        refreshes = int(stack.refreshes[0])
        stack.orth(0, i, j)
        if stack.refreshes[0] > refreshes:
            bound = 0.0
        elif stack.on_inv[0]:
            bound += EPS * math.sqrt(n * float(stack.row_sq[0].sum()))
        # measured at each checkpoint t = k K, the step before it and the last
        if not stack.on_inv[0] or ((t + 1) % tol.INVERSE_REFRESH_STEPS > 1 and t != steps):
            continue
        now = stack.matrix(0)
        gap = abs(float(stack.phi[0]) - pairorth.potential_phi(now))
        kappa, _ = pairorth.condition_number(now)
        slack = n * max(tol.DISTANCE_METHOD_REL, n * EPS * kappa)
        worst_slack = max(worst_slack or 0.0, gap / slack)
        worst_b = max(worst_b or 0.0, gap / bound if bound > 0.0 else 0.0)
    return int(stack.refreshes[0]), worst_b, worst_slack


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    args = parser.parse_args(argv)
    sys.path.insert(0, f"{args.checkout}/src")
    import pairorth

    failed = total = 0
    print("n\tstart\tfield\trefreshes\tgap/B\tgap/slack")
    for n, (kind, eta), field in itertools.product((4, 8, 32, 128), STARTS, ("real", "complex")):
        refreshes, worst_b, worst_slack = _chain(pairorth, n, kind, eta, field)
        ok = worst_b is None or (worst_b < 1.0 and worst_slack <= 0.5)
        total += 1
        failed += not ok
        start = kind if eta is None else f"{kind} {eta:g}"
        shares = "-\t-" if worst_b is None else f"{worst_b:.3g}\t{worst_slack:.3g}"
        print(f"{n}\t{start}\t{field}\t{refreshes}\t{shares}" + ("" if ok else "\tFAIL"))
    print(f"{failed}/{total} chains fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
