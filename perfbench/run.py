"""Run one pairorth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from its src/,
never from an installed copy. Workloads: small-n, large-n, near-singular,
verify-all (see BENCHMARK.json and perfbench/README.md).

A run makes the inputs from --seed, runs one untimed warm-up round whose
outputs get the full correctness checks, then repeats the workload's round
until --seconds have passed, checking each round against the first. With
--trace 0 it then times set-up (`import pairorth` plus instance generation
in a fresh interpreter, seven times, median). With --trace 1 every other
round opens spans around its calls into the package, and a layer probe
follows; the per-layer metrics come from those spans.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# Fixed before numpy loads: one process, one BLAS thread, so rounds do not
# compete with each other or with the interpreter for the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("small-n", "large-n", "near-singular", "verify-all")
SETUP_REPEATS = 7
MIN_ROUNDS = 3


def use_checkout_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "pairorth", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (report lines, result object)."""
    import harness
    import probe
    import workloads

    workload = workloads.make(name, tiny)
    lines = ["provenance " + json.dumps(harness.provenance(ROOT, SRC, name, seed, BLAS_THREADS))]
    null = harness.NullTracer()
    tracer = harness.Tracer() if trace else null

    inputs = workload.build(seed, tracer)

    lines += [f"input note: {note}" for note in inputs.get("notes", [])]
    checks = harness.Checks()
    first = workload.round(inputs, null)
    workload.check(inputs, first, None, checks)
    attempted, failed = first.ops, first.failed

    log = harness.RoundLog()
    deadline = time.perf_counter() + seconds
    ref = harness.reference_seconds(workload.reference_kernel)
    k = 0
    while k < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = trace and k % 2 == 1
        tracer.trace_id = f"round.{k}"
        t0 = time.perf_counter()
        out = workload.round(inputs, tracer if traced else null)
        wall = time.perf_counter() - t0
        ref_after = harness.reference_seconds(workload.reference_kernel)
        log.add(wall, 0.5 * (ref + ref_after), out.ops, traced)
        ref = ref_after
        attempted += out.ops
        failed += out.failed
        workload.check(inputs, out, first, checks)
        k += 1

    lines += checks.lines()
    lines.append(f"rounds {len(log.walls)} ({sum(log.traced)} traced), ops per round {log.ops[0]}")
    lines.append(f"measured wall_s = {harness.median(log.wall())!r} s, "
                 f"reference kernel = {harness.median(log.refs)!r} s "
                 f"(nominal {harness.REFERENCE_NOMINAL_S} s)")
    if "lemma3_failed_instances" in first.data:
        lemma3_trials = workload.trials["lemma3"] * workload.seeds_per_suite
        lines.append(f"result lemma3_failed_instances = {first.data['lemma3_failed_instances']} "
                     f"of {lemma3_trials} (criterion 1, red by design)")
    lines.append(f"metric check_failures = {checks.failures} count")
    lines.append(f"metric failed_frac = {failed / attempted!r} ratio")

    if trace:
        overhead = (harness.median(log.wall_normalized(True))
                    - harness.median(log.wall_normalized(False)))
        result = probe.run_probe(workload.probe_plan(inputs), tracer)
        metrics, notes = probe.per_layer_metrics(tracer, result, overhead)
        tracer.write(os.path.join(HERE, "traces", f"{name}-seed{seed}.jsonl"))
    else:
        notes = {}
        setup = [harness.setup_in_fresh_process(HERE, ROOT, name, seed, tiny)
                 for _ in range(SETUP_REPEATS)]
        metrics = {
            "setup_s": (harness.median(setup), "s"),
            "wall_s": (harness.median(log.wall_normalized()), "s"),
            "ops_per_s": (harness.median(log.rates_normalized()), "1/s"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }
    for metric, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {metric} is not finite: {value}")
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"metric {metric} = {value!r} {unit}{note}")
    payload = {
        "correct": checks.failures == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return lines, payload


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one pairorth benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check only")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no package sources at {os.path.join('src', 'pairorth')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    lines, payload = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print("\n".join(lines))
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
