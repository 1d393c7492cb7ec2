"""Paired in-process A/B of two checkouts on one perfbench workload.

Usage: python tools/ab_rounds.py CHECKOUT_A CHECKOUT_B --workload W --pairs K [--seed S]

Loads each checkout's src/pairorth under its own module name (pairorth_a,
pairorth_b) and, for each, a fresh copy of perfbench/workloads.py (and of
the probe module it imports) with `pairorth` bound to that package while it
loads; perfbench is read from this checkout and not edited. Each side
builds the workload's inputs from --seed (default 1), runs one untimed
warm-up round and gives it the workload's correctness checks. Then come K
pairs (default 10): in each, both sides run three timed rounds, A first in
even pairs and B first in odd ones, and a side's value is the workload's
ops over its median round's wall time. It prints each side's
median ops/s, the median and the quartiles of the paired ratios B / A, and
the pairs B won. Both trees run in one process, on the same inputs and
at the same moment of the machine, so a change of a few percent shows
where separate perfbench runs spread wider than that; the numbers are raw
ops/s, not the reference-normalized ones of perfbench/run.py. BLAS runs
one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS
say otherwise, as in perfbench.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import platform
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROUNDS = 3
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def _load(path: str, name: str, package_dir: str | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [package_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(checkout: str, tag: str):
    """(package, workloads module) of one checkout: the package as
    pairorth_<tag> with every submodule loaded, and workloads bound to it."""
    src = os.path.join(os.path.abspath(checkout), "src", "pairorth")
    name = f"pairorth_{tag}"
    package = _load(os.path.join(src, "__init__.py"), name, src)
    for file in sorted(os.listdir(src)):
        if file.endswith(".py") and file != "__init__.py":
            importlib.import_module(f"{name}.{file[:-3]}")
    aliases = {"pairorth": package}
    aliases.update({"pairorth" + key[len(name):]: module for key, module in sys.modules.items()
                    if key.startswith(name + ".")})
    saved = {key: sys.modules.pop(key, None) for key in [*aliases, "probe"]}
    sys.modules.update(aliases)
    try:
        workloads = _load(os.path.join(PERFBENCH, "workloads.py"), f"workloads_{tag}")
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return package, workloads


def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, PERFBENCH)
    import harness

    sides = {}
    for tag, checkout in (("a", args.checkout_a), ("b", args.checkout_b)):
        package, workloads = load_side(checkout, tag)
        workload = workloads.make(args.workload)
        inputs = workload.build(args.seed, harness.NullTracer())
        checks = harness.Checks()
        workload.check(inputs, workload.round(inputs, harness.NullTracer()), None, checks)
        print(f"{tag}: pairorth {package.__version__} from {os.path.abspath(checkout)}, "
              f"warm-up check failures {checks.failures}")
        sides[tag] = (workload, inputs)
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS threads {harness.blas_threads_in_use()}, workload {args.workload}, "
          f"seed {args.seed}, {args.pairs} pairs of {ROUNDS} rounds")

    rates = {"a": [], "b": []}
    for k in range(args.pairs):
        for tag in ("a", "b") if k % 2 == 0 else ("b", "a"):
            workload, inputs = sides[tag]
            walls, ops = [], 0
            for _ in range(ROUNDS):
                start = time.perf_counter()
                ops = workload.round(inputs, harness.NullTracer()).ops
                walls.append(time.perf_counter() - start)
            rates[tag].append(ops / statistics.median(walls))
        print(f"pair {k}: a {rates['a'][-1]:.1f}, b {rates['b'][-1]:.1f} ops/s, "
              f"b / a {rates['b'][-1] / rates['a'][-1]:.4f}")
    ratios = [b / a for a, b in zip(rates["a"], rates["b"])]
    for tag in ("a", "b"):
        q1, q3 = _quartiles(rates[tag])
        print(f"{tag}: median {statistics.median(rates[tag]):.1f} ops/s (q1 {q1:.1f}, q3 {q3:.1f})")
    q1, q3 = _quartiles(ratios)
    print(f"b / a: median {statistics.median(ratios):.4f} (q1 {q1:.4f}, q3 {q3:.4f}), "
          f"b faster on {sum(r > 1.0 for r in ratios)} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
