"""The timing harness in tools/ab_rounds.py, run on this checkout against itself."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_one_pair_of_the_stack_table_prints_every_cell():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_rounds.py"), ROOT, ROOT,
         "--workload", "stack", "--pairs", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert re.search(r"^reference kernels before, .* s$", out, re.M)
    assert re.search(r"^reference kernels after, .* s$", out, re.M)
    rows = [line.split(" | ") for line in out.splitlines() if line.startswith("| stack ")]
    # R in {10, 50, 200}, both fields: each side's µs per replicate, the
    # ratio and the one pair's count
    assert [row[0] for row in rows] == [f"| stack n=8 {field} R={R}" for field in ("real", "complex")
                                        for R in (10, 50, 200)]
    for _, a, b, ratio, better in rows:
        assert re.fullmatch(r"\d+\.\d µs", a) and re.fullmatch(r"\d+\.\d µs", b)
        assert re.fullmatch(r"\d+\.\d{4} \(\d+\.\d{4}, \d+\.\d{4}\)", ratio)
        assert re.fullmatch(r"[01] of 1 \|", better)


def test_one_pair_of_the_stride_table_prints_every_cell():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_rounds.py"), ROOT, ROOT,
         "--workload", "stride", "--pairs", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    # each cell's batch is set once, for both sides, before the pairs
    batches = re.findall(r"^batch: stride .*: (\d+) call\(s\) a sample$", out, re.M)
    rows = [line.split(" | ") for line in out.splitlines() if line.startswith("| stride ")]
    assert [row[0] for row in rows] == [
        f"| stride n={n} real {kind} stride={stride}" for n in (8, 16, 32, 128)
        for kind in ("uniform", "proportional") for stride in (1, 2, 4, 8, 16)]
    assert len(batches) == len(rows) and all(int(b) >= 1 for b in batches)
    for _, a, b, ratio, better in rows:
        assert re.fullmatch(r"\d+\.\d µs", a) and re.fullmatch(r"\d+\.\d µs", b)
        assert re.fullmatch(r"\d+\.\d{4} \(\d+\.\d{4}, \d+\.\d{4}\)", ratio)
        assert re.fullmatch(r"[01] of 1 \|", better)
