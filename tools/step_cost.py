"""µs per chain step of run_chain and run_ensemble, with the machine and
versions it ran on.

Usage: python tools/step_cost.py CHECKOUT [--repeats K]

Times the package in CHECKOUT/src from a gaussian_normalized start (seed
1), in both fields. The first table is run_chain, one chain, for n in
{4, 8, 32, 128} and the uniform and the proportional sampler. The second
is run_ensemble with R = 50 replicates, for n in {4, 8, 32, 128} and all
three samplers. Each cell runs K times (default 5) with the record grid at
t = 0 and the last step only, and prints the median wall time over the
steps (over R x steps chain-steps for run_ensemble) in µs, so the start's
set-up and its two records are in it. A generated start keeps its inverse
and distances from generate's snapshot, so that set-up copies them; the
third table times it alone, as 0-step run_chain calls in µs, from the
generated start and from a ColumnMatrix._wrap copy, which keeps nothing: it
recomputes them (one inv, or ceil(n / 2) QRs on the projection path) and
takes one SVD for the t = 0 record. The last table times run_chain as the
first does, from a near_singular start (eta = 1e-10, seed 1, uniform
sampler), and gives with each cell the share of its steps that read their
distances off a QR (KernelStats.projection_fallbacks / steps); a start the
generator refuses, or a chain that aborts, prints the name of its error
instead. The fifth table is the fixed cost of a stack: 0-step run_ensemble
calls, uniform, n = 8, in µs per replicate for R in {10, 50, 200}: seeds,
generators, the stack's set-up, its t = 0 record and the summary, with no
step. Above the tables it prints what the numbers depend on: nproc,
Python, numpy, the BLAS and the threads it runs, and the package version.
Before the first table and after the last it times perfbench's reference
kernels (harness.reference_seconds, the median of REFERENCE_RUNS runs of
each): raw µs move with the load of a shared machine, and a table read
against the kernel seconds of its own session can be set beside a table
of another session. BLAS runs one thread unless OPENBLAS_NUM_THREADS,
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
ENSEMBLE_STEPS = {4: 200, 8: 200, 32: 100, 128: 200}
SAMPLERS = ("uniform", "proportional", "greedy")
REPLICATES = 50
ETA = 1e-10
STACK_REPLICATES = (10, 50, 200)
REFERENCE_RUNS = 5


def _table(pairorth, repeats: int, steps_by_n: dict, kinds: tuple, replicates=None) -> None:
    """Print one table: run_chain cells, or with replicates the run_ensemble
    cells of that many chains, in µs per chain-step."""
    from pairorth.generators import GeneratorSpec

    print("| n | steps | " + " | ".join(f"{f} {k}" for f in FIELDS for k in kinds) + " |")
    print("| --- " * (2 + len(FIELDS) * len(kinds)) + "|")
    for n, steps in steps_by_n.items():
        cells = []
        for field in FIELDS:
            A0, _ = pairorth.generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=1))
            for kind in kinds:
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    if replicates is None:
                        pairorth.run_chain(A0, steps, kind, seed=2, metrics_stride=steps)
                    else:
                        pairorth.run_ensemble(A0, steps, kind, replicates, base_seed=2,
                                              metrics_stride=steps)
                    times.append(time.perf_counter() - start)
                cells.append(f"{1e6 * statistics.median(times) / (steps * (replicates or 1)):.1f}")
        print(f"| {n} | {steps} | " + " | ".join(cells) + " |")


def _start_table(pairorth, repeats: int) -> None:
    """Print the 0-step run_chain cost, kept start against wrapped copy."""
    from pairorth import ColumnMatrix
    from pairorth.generators import GeneratorSpec

    print("| n | " + " | ".join(f"{f} {s}" for f in FIELDS for s in ("kept", "wrapped")) + " |")
    print("| --- " * (1 + 2 * len(FIELDS)) + "|")
    for n in STEPS:
        cells = []
        for field in FIELDS:
            A0, _ = pairorth.generate(GeneratorSpec("gaussian_normalized", n=n, field=field, seed=1))
            for start in (A0, ColumnMatrix._wrap(np.array(A0.array, order="F"), field)):
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    pairorth.run_chain(start, 0, seed=2)
                    times.append(time.perf_counter() - t0)
                cells.append(f"{1e6 * statistics.median(times):.1f}")
        print(f"| {n} | " + " | ".join(cells) + " |")


def _projection_table(pairorth, repeats: int) -> None:
    """Print run_chain µs/step from a near_singular start, with the share of
    projection-path steps, or the error a refused start or chain raises."""
    from pairorth.errors import ConstructionError
    from pairorth.generators import GeneratorSpec

    print("| n | steps | " + " | ".join(FIELDS) + " |")
    print("| --- " * (2 + len(FIELDS)) + "|")
    for n, steps in STEPS.items():
        cells = []
        for field in FIELDS:
            spec = GeneratorSpec("near_singular", n=n, field=field, seed=1, eta=ETA)
            try:
                A0, _ = pairorth.generate(spec)
            except ConstructionError as exc:
                cells.append(type(exc).__name__)
                continue
            times = []
            try:
                for _ in range(repeats):
                    start = time.perf_counter()
                    traj = pairorth.run_chain(A0, steps, seed=2, metrics_stride=steps)
                    times.append(time.perf_counter() - start)
            except pairorth.ChainAbortError as exc:
                cells.append(f"{type(exc).__name__} at step {exc.step}")
                continue
            share = traj.kernel.projection_fallbacks / steps
            cells.append(f"{1e6 * statistics.median(times) / steps:.1f} ({share:.0%})")
        print(f"| {n} | {steps} | " + " | ".join(cells) + " |")


def _stack_table(pairorth, repeats: int) -> None:
    """Print the 0-step run_ensemble cost per replicate, n = 8, uniform."""
    from pairorth.generators import GeneratorSpec

    print("| R | " + " | ".join(FIELDS) + " |")
    print("| --- " * (1 + len(FIELDS)) + "|")
    starts = [pairorth.generate(GeneratorSpec("gaussian_normalized", n=8, field=field, seed=1))[0]
              for field in FIELDS]
    for replicates in STACK_REPLICATES:
        cells = []
        for A0 in starts:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                pairorth.run_ensemble(A0, 0, "uniform", replicates, base_seed=2)
                times.append(time.perf_counter() - start)
            cells.append(f"{1e6 * statistics.median(times) / replicates:.1f}")
        print(f"| {replicates} | " + " | ".join(cells) + " |")


def _reference(when: str) -> None:
    """Print the median seconds of each perfbench reference kernel."""
    from harness import REFERENCE_KERNELS, reference_seconds

    seconds = {kernel: statistics.median(reference_seconds(kernel) for _ in range(REFERENCE_RUNS))
               for kernel in REFERENCE_KERNELS}
    cells = [f"{kernel} {value:.4f} s" for kernel, value in seconds.items()]
    print(f"reference kernels {when}, median of {REFERENCE_RUNS}: " + ", ".join(cells))


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

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
          f"{blas.get('name')} {blas.get('version')} on {blas_threads_in_use()} thread(s), "
          f"pairorth {pairorth.__version__} from {root}")
    _reference("before")
    print(f"\nmedian of {args.repeats} run_chain calls, µs/step")
    _table(pairorth, args.repeats, STEPS, KINDS)
    print(f"\nmedian of {args.repeats} run_ensemble calls, R = {REPLICATES}, µs per chain-step")
    _table(pairorth, args.repeats, ENSEMBLE_STEPS, SAMPLERS, REPLICATES)
    print(f"\nmedian of {args.repeats} 0-step run_chain calls, µs: the start's set-up")
    _start_table(pairorth, args.repeats)
    print(f"\nmedian of {args.repeats} run_chain calls from near_singular eta = {ETA:g}, "
          "uniform, µs/step (share of projection-path steps)")
    _projection_table(pairorth, args.repeats)
    print(f"\nmedian of {args.repeats} 0-step run_ensemble calls, n = 8, uniform, "
          "µs per replicate: the fixed cost of a stack")
    _stack_table(pairorth, args.repeats)
    print()
    _reference("after")
    return 0


if __name__ == "__main__":
    sys.exit(main())
