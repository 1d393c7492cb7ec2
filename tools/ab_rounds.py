"""Paired in-process A/B of two checkouts: perfbench workloads and step-cost tables.

Usage: python tools/ab_rounds.py CHECKOUT_A CHECKOUT_B --workload W [W ...] [--pairs K] [--seed S]

Loads each checkout's src/pairorth as pairorth_a or pairorth_b, with its
own copy of this checkout's perfbench/workloads.py (and probe.py) bound to
it. One checkout passed twice gives that tree's numbers and its noise floor.

Each W names a list of cells. A perfbench workload (small-n, large-n,
near-singular, verify-all) is one cell: raw ops/s of a round (not
perfbench/run.py's reference-normalized ones), inputs from --seed (default
1), checks run on the warm-up round. A table has a cell per call below,
from a gaussian_normalized start (seed 1, chain seed 2) in both fields,
the record grid at t = 0 and the end only (stride sets its own), n in
{4, 8, 32, 128}:

  run_chain      one chain, uniform and proportional, n = 16 too: µs per step;
  run_ensemble   R in {3, 50}, all three samplers, n = 16 and 64 too
                 (ENSEMBLE_STEPS steps), around the n where a stack of 50
                 leaves the stack stretch: µs per chain-step;
  setup          0-step run_chain from the generated start, which keeps its
                 inverse and distances ("kept"), and from a ColumnMatrix._wrap
                 copy, which recomputes them and takes one SVD: µs per call;
  near_singular  uniform run_chain from near_singular eta = 1e-10 (seed 1):
                 µs per step and the share of projection-path steps, or the
                 error a refused start or an aborted chain raises;
  stack          0-step uniform run_ensemble, n = 8 only, R in {10, 50, 200}:
                 µs per replicate, the fixed cost of a stack;
  stride         run_chain, uniform and proportional, real, n in {8, 16, 32,
                 128}, metrics_stride in {1, 2, 4, 8, 16} (STRIDE_STEPS
                 steps): µs per step with a grid record every few steps;
  cosolve        run_cosolve of x_true = ones, interleave 1:1 and 4:1,
                 run_chain's step counts (seed 2): µs per op.

Every cell runs once untimed on each side, then once timed on each side:
the faster call sets the cell's batch, the count of calls that lasts at
least BATCH_SECONDS, the same on both sides. Then come K pairs (--pairs,
default 10): cell by cell, three batches a side, interleaved A, B, A, B,
A, B in even pairs and B, A, B, A, B, A in odd ones, so a burst of load
from elsewhere on the machine lands on both sides; a side's value is the
median wall time of its three batches (a cell that either side's warm-up
refused is not timed). It prints each pair's values, then
per cell each side's median, the median and quartiles of the paired ratio
B / A and the pairs B was better in (lower µs, higher ops/s). Both trees
run in one process on the same inputs at the same moment of the machine,
so a change of a few percent shows where separate runs spread wider.
First come nproc, Python, numpy and the BLAS with its threads (one, unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS say otherwise, as
in perfbench); before and after the pairs, the median seconds of
perfbench's reference kernels, which set one session's raw numbers beside
another's.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
sys.path.insert(0, PERFBENCH)
import harness  # noqa: E402

ROUNDS = 3
BATCH_SECONDS = 0.02
REFERENCE_RUNS = 5
TABLES = ("run_chain", "run_ensemble", "setup", "near_singular", "stack", "stride", "cosolve")
FIELDS = ("real", "complex")
SIZES = (4, 8, 32, 128)
STEPS = {4: 2000, 8: 2000, 16: 2000, 32: 1000, 128: 200}
ENSEMBLE_STEPS = {4: 200, 8: 200, 16: 200, 32: 100, 64: 200, 128: 200}
SAMPLERS = ("uniform", "proportional", "greedy")
REPLICATES = (3, 50)
ETA = 1e-10
STACK_REPLICATES = (10, 50, 200)
STRIDES = (1, 2, 4, 8, 16)
STRIDE_STEPS = {8: 256, 16: 256, 32: 128, 128: 32}
INTERLEAVES = ((1, 1), (4, 1))


@dataclass
class Cell:
    """call() runs the cell once and work counts what its values are per: µs
    per work, or work per second for ops/s. call is None for a cell whose
    start is refused or whose warm-up call raises; note then names the error.
    A sample times batch calls."""

    label: str
    call: object
    work: int
    unit: str = "µs"
    note: str = ""
    values: list = field(default_factory=list)
    batch: int = 1

    def wall(self) -> float:
        """Seconds of one batch of calls."""
        start = time.perf_counter()
        for _ in range(self.batch):
            self.call()
        return time.perf_counter() - start

    def record(self, walls) -> None:
        """Append the value of the median of walls, the wall times of ROUNDS batches."""
        wall, work = statistics.median(walls), self.work * self.batch
        self.values.append(work / wall if self.unit == "ops/s" else 1e6 * wall / work)

    def shown(self) -> str:
        median = f"{statistics.median(self.values):.1f} {self.unit}" if self.values else ""
        return ", ".join(filter(None, (median, self.note)))


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


def _workload(name: str, workloads, seed: int) -> Cell:
    """A perfbench workload's cell, after its checked warm-up round."""
    workload = workloads.make(name)
    inputs = workload.build(seed, harness.NullTracer())
    out, checks = workload.round(inputs, harness.NullTracer()), harness.Checks()
    workload.check(inputs, out, None, checks)
    return Cell(name, partial(workload.round, inputs, harness.NullTracer()), out.ops, "ops/s",
                f"warm-up check failures {checks.failures}")


def _table(name: str, p) -> list[Cell]:
    """The cells of one step-cost table for package p, each after its warm-up call."""
    cells = []
    sizes = {"stack": (8,), "stride": STRIDE_STEPS, "run_chain": STEPS,
             "run_ensemble": ENSEMBLE_STEPS}.get(name, SIZES)
    for n, field in itertools.product(sizes, FIELDS[:1] if name == "stride" else FIELDS):
        label, steps = f"{name} n={n} {field}", STEPS.get(n)
        gen, eta = (name, ETA) if name == "near_singular" else ("gaussian_normalized", None)
        try:
            A0 = p.generate(p.generators.GeneratorSpec(gen, n=n, field=field, seed=1, eta=eta))[0]
        except p.errors.ConstructionError as exc:
            cells.append(Cell(label, None, steps, note=type(exc).__name__))
            continue
        if name == "run_chain":
            cells += [Cell(f"{label} {kind}", partial(p.run_chain, A0, steps, kind, seed=2,
                                                      metrics_stride=steps), steps)
                      for kind in SAMPLERS[:2]]
        elif name == "run_ensemble":
            steps = ENSEMBLE_STEPS[n]
            cells += [Cell(f"{label} {kind} R={R}", partial(
                p.run_ensemble, A0, steps, kind, R, base_seed=2, metrics_stride=steps), steps * R)
                for R in REPLICATES for kind in SAMPLERS]
        elif name == "setup":
            wrapped = p.ColumnMatrix._wrap(np.array(A0.array, order="F"), field)
            cells += [Cell(f"{label} {how}", partial(p.run_chain, A, 0, seed=2), 1)
                      for how, A in (("kept", A0), ("wrapped", wrapped))]
        elif name == "stride":
            steps = STRIDE_STEPS[n]
            cells += [Cell(f"{label} {kind} stride={stride}", partial(
                p.run_chain, A0, steps, kind, seed=2, metrics_stride=stride), steps)
                for kind in SAMPLERS[:2] for stride in STRIDES]
        elif name == "cosolve":
            cells += [Cell(f"{label} {ratio[0]}:{ratio[1]}", partial(
                p.run_cosolve, A0, np.ones(n), ratio, steps, seed=2), steps)
                for ratio in INTERLEAVES]
        elif name == "stack":
            cells += [Cell(f"{label} R={R}", partial(p.run_ensemble, A0, 0, "uniform", R,
                                                     base_seed=2), R) for R in STACK_REPLICATES]
        else:
            cells.append(Cell(label, partial(p.run_chain, A0, steps, seed=2, metrics_stride=steps),
                              steps))
    for cell in cells:
        try:
            out = cell.call and cell.call()
        except p.ChainAbortError as exc:
            cell.call, cell.note = None, f"{type(exc).__name__} at step {exc.step}"
            continue
        if name == "near_singular" and out:
            cell.note = f"{out.kernel.projection_fallbacks / cell.work:.0%} projection path"
    return cells


def _reference(when: str) -> None:
    """Print the median seconds of each perfbench reference kernel."""
    seconds = [statistics.median(harness.reference_seconds(kernel) for _ in range(REFERENCE_RUNS))
               for kernel in harness.REFERENCE_KERNELS]
    print(f"reference kernels {when}, median of {REFERENCE_RUNS}: " + ", ".join(
        f"{kernel} {s:.4f} s" for kernel, s in zip(harness.REFERENCE_KERNELS, seconds)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
          f"{blas.get('name')} {blas.get('version')} on {harness.blas_threads_in_use()} "
          f"thread(s), seed {args.seed}, {args.pairs} pairs of {ROUNDS} batches a side")
    sides = {}
    for tag, checkout in (("a", args.checkout_a), ("b", args.checkout_b)):
        package, workloads = load_side(checkout, tag)
        sides[tag] = [cell for name in args.workload for cell in (
            _table(name, package) if name in TABLES else [_workload(name, workloads, args.seed)])]
        print(f"{tag}: pairorth {package.__version__} from {os.path.abspath(checkout)}")
    for a, b in zip(sides["a"], sides["b"]):
        if a.call and b.call:
            a.batch = b.batch = max(1, math.ceil(BATCH_SECONDS / min(a.wall(), b.wall())))
            print(f"batch: {a.label}: {a.batch} call(s) a sample")
    _reference("before")

    for k in range(args.pairs):
        for a, b in zip(sides["a"], sides["b"]):
            if a.call and b.call:
                cells = (a, b) if k % 2 == 0 else (b, a)
                walls = [[cell.wall() for cell in cells] for _ in range(ROUNDS)]
                for cell, times in zip(cells, zip(*walls)):
                    cell.record(times)
                print(f"pair {k}: {a.label}: a {a.values[-1]:.1f}, b {b.values[-1]:.1f} {a.unit}, "
                      f"b / a {b.values[-1] / a.values[-1]:.4f}")
    _reference("after")

    print("\n| cell | a | b | b / a median (q1, q3) | b better |\n" + "| --- " * 5 + "|")
    for a, b in zip(sides["a"], sides["b"]):
        row = [a.label, a.shown(), b.shown(), "-", "-"]
        if a.values and b.values:
            ratios = [y / x for x, y in zip(a.values, b.values)]
            q1, median, q3 = np.percentile(ratios, [25, 50, 75])
            better = sum(r > 1.0 if a.unit == "ops/s" else r < 1.0 for r in ratios)
            row[3:] = [f"{median:.4f} ({q1:.4f}, {q3:.4f})", f"{better} of {len(ratios)}"]
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
