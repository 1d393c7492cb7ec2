"""µs per chain step of run_chain, with the machine and versions it ran on.

Usage: python tools/step_cost.py CHECKOUT [--repeats K]

Times run_chain of the package in CHECKOUT/src, one chain from a
gaussian_normalized start (seed 1), for n in {4, 8, 32, 128}, both fields,
the uniform and the proportional sampler. Each cell runs K times (default
5) with the record grid at t = 0 and the last step only, and prints the
median wall time over the steps in µs/step, so the start's recompute and
its two records are in it. Above the table it prints what the numbers
depend on: nproc, Python, numpy, the BLAS and the threads it runs, and the
package version. BLAS runs one thread unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS say otherwise, as in perfbench.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

STEPS = {4: 2000, 8: 2000, 32: 1000, 128: 200}
FIELDS = ("real", "complex")
KINDS = ("uniform", "proportional")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(os.path.dirname(__file__), "..",
                                                           "perfbench")]
    import pairorth
    from harness import blas_threads_in_use
    from pairorth.generators import GeneratorSpec

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
          f"{blas.get('name')} {blas.get('version')} on {blas_threads_in_use()} thread(s), "
          f"pairorth {pairorth.__version__} from {root}")
    print(f"median of {args.repeats} run_chain calls, µs/step")
    print("| n | steps | " + " | ".join(f"{f} {k}" for f in FIELDS for k in KINDS) + " |")
    print("| --- " * (2 + len(FIELDS) * len(KINDS)) + "|")
    for n, steps in STEPS.items():
        cells = []
        for field in FIELDS:
            A0, _ = pairorth.generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=1))
            for kind in KINDS:
                times = []
                for _ in range(args.repeats):
                    start = time.perf_counter()
                    pairorth.run_chain(A0, steps, kind, seed=2, metrics_stride=steps)
                    times.append(time.perf_counter() - start)
                cells.append(f"{1e6 * statistics.median(times) / steps:.1f}")
        print(f"| {n} | {steps} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
