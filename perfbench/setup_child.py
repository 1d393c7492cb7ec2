"""One set-up measurement, in a fresh interpreter.

    python3 perfbench/setup_child.py <workload> <seed> <tiny 0|1>

Prints two numbers: the seconds spent in `import pairorth` plus the
workload's instance generation, and the median of three runs of the mixed
reference kernel in the same process, so the set-up time can be rescaled
by the speed this process saw. run.py starts it once per set-up repeat.
"""

import sys
import time

import run


def main() -> int:
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    if not run.use_checkout_sources():
        return 2
    t0 = time.perf_counter()
    import pairorth  # noqa: F401  (timed: the import is part of set-up)

    t1 = time.perf_counter()
    import harness
    import workloads

    workload = workloads.make(name, tiny)
    t2 = time.perf_counter()
    workload.build(seed, harness.NullTracer())
    t3 = time.perf_counter()
    kernel = harness.median([harness.reference_seconds("mixed") for _ in range(3)])
    print(repr((t1 - t0) + (t3 - t2)), repr(kernel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
