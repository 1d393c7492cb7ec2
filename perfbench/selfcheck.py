"""Self-check of the benchmark, at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload it runs perfbench/run.py with --tiny under --trace 0
and --trace 1 and asserts that each metric BENCHMARK.json names is printed,
by name and with its unit, and that every correctness check passed. Then,
in process, it breaks one output of each workload on purpose and asserts
that the workload's checks count the failure. Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import run

SEED = 7


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def check_printed_metrics(workload: str, trace: int, expected: list) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (workload, trace, proc.returncode, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"], "\n".join(line for line in lines if line.startswith("check FAIL"))
    assert "metric check_failures = 0 count" in lines
    names = {m["name"] for m in expected}
    assert set(result["metrics"]) == names, sorted(set(result["metrics"]) ^ names)
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], (m["name"], printed["unit"], m["unit"])
        prefix, unit = f"metric {m['name']} = ", f" {m['unit']}"
        assert any(line.startswith(prefix) and unit in line for line in lines), m["name"]


def _break(workload: str, out) -> None:
    """Corrupt one output of a round the way a defect in the package could."""
    from pairorth import ColumnMatrix

    if workload == "small-n":
        stats, csv = out.data["real"]
        out.data["real"] = (stats, csv.replace("\n", ",0\n", 1))
        history, state = out.data["cosolve"]
        out.data["cosolve"] = (history, dataclasses.replace(state, x_true=state.x_true + 1.0))
    elif workload in ("large-n", "near-singular"):
        traj = out.data["uniform"]
        arr = traj.final_matrix.array.copy()
        # within the construction tolerance, outside the update's unit-norm guarantee
        arr[:, 0] *= 1.0 + 1e-10
        traj.final_matrix = ColumnMatrix(arr)
    else:
        res = out.data["lemma10", 0]
        out.data["lemma10", 0] = dataclasses.replace(res, passes=res.passes - 1)


def check_broken_output_detected(workload: str) -> None:
    import harness
    import workloads

    null = harness.NullTracer()
    w = workloads.make(workload, tiny=True)
    inputs = w.build(SEED, null)
    first = w.round(inputs, null)
    clean = harness.Checks()
    w.check(inputs, first, None, clean)
    assert clean.failures == 0, clean.lines()
    for reference in (None, first):  # the first-round checks and the repeat checks
        out = w.round(inputs, null)
        _break(workload, out)
        broken = harness.Checks()
        w.check(inputs, out, reference, broken)
        assert broken.failures > 0, f"{workload}: broken output passed every check"


def main() -> int:
    if not run.use_checkout_sources():
        print("selfcheck: src/pairorth not found", file=sys.stderr)
        return 2
    spec = _spec()
    # verify-all too: it is runnable although BENCHMARK.json leaves it out.
    for workload in run.WORKLOAD_NAMES:
        check_printed_metrics(workload, 0, spec["end_to_end"])
        check_printed_metrics(workload, 1, spec["per_layer"])
        check_broken_output_detected(workload)
        print(f"selfcheck ok: {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
