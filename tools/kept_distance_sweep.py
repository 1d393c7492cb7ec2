"""Kept distances of the step kernel against fresh recomputes, over a grid.

Usage: python tools/kept_distance_sweep.py CHECKOUT [--verbose]

Runs the body of tests/test_kernel.py::
test_kept_distances_match_full_recompute_and_oracle on near_singular starts
of the package in CHECKOUT/src: n in {3, 4, 6, 8}, planted distance in
{1e-10, 1e-12}, both fields, all three samplers, generator seeds 0-3 and
step seed = generator seed + 1, 192 instances. Each instance runs
INVERSE_REFRESH_STEPS + 6 steps and checks every kept log d_k against the
auto recompute and the brute-force oracle within the slack
max(1e-8, n eps kappa), and the kept phi within n times that. It prints
the failing instances with the step, the column and its share of the
slack, then the count. It drives the kernel through `_ChainStack.orth`
and `_draw_pair` alone, so it runs unchanged on any checkout that has
`_ChainStack`, which lets one compare kernels instance by instance.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np


def _instance(pairorth, n, eta, field, sampler, seed):
    """None when every step passes, else (step, what, column, share)."""
    from pairorth import tolerances as tol
    from pairorth.errors import DegeneratePairError
    from pairorth.generators import NEAR_SINGULAR, GeneratorSpec
    from pairorth.process import _ChainStack, _draw_pair

    eps = float(np.finfo(float).eps)
    A, _ = pairorth.generate(GeneratorSpec(NEAR_SINGULAR, n=n, field=field, seed=seed, eta=eta))
    stack = _ChainStack(A, 1, sampler)
    rng = pairorth.make_rng(seed + 1)
    worst = None
    for t in range(tol.INVERSE_REFRESH_STEPS + 7):
        if t:
            (i, j), _ = _draw_pair(n, sampler, rng, None if stack.w is None else stack.w[0])
            try:
                stack.orth(0, i, j)
            except DegeneratePairError:
                break
        now = stack.matrix(0)
        slack = max(tol.DISTANCE_METHOD_REL, n * eps * pairorth.condition_number(now)[0])
        log_d = np.log(stack.d[0])
        for what, ref in (
            ("auto", pairorth.leave_one_out_distances(now)),
            ("oracle", np.array([pairorth.brute_force_distance(now, k) for k in range(n)])),
        ):
            gap = np.abs(log_d - np.log(ref))
            k = int(np.argmax(gap))
            phi_share = abs(stack.phi[0] + np.log(ref).sum()) / (n * slack)
            share = max(gap[k] / slack, phi_share)
            if share > 1.0 and (worst is None or share > worst[3]):
                worst = (t, what, k, share)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--verbose", action="store_true", help="print every instance")
    args = parser.parse_args(argv)
    sys.path.insert(0, f"{args.checkout}/src")
    import pairorth

    failed = total = 0
    grid = itertools.product(
        (3, 4, 6, 8), (1e-10, 1e-12), ("real", "complex"),
        ("uniform", "proportional", "greedy"), range(4),
    )
    for n, eta, field, sampler, seed in grid:
        total += 1
        worst = _instance(pairorth, n, eta, field, sampler, seed)
        failed += worst is not None
        if worst is not None or args.verbose:
            print(f"n={n} eta={eta:g} {field} {sampler} seed={seed}: "
                  + ("ok" if worst is None else
                     "step {} {} column {} at {:.2f} x the slack".format(*worst)))
    print(f"{failed}/{total} instances fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
