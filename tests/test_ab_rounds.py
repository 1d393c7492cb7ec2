"""The timing harness in tools/ab_rounds.py, run on this checkout against itself."""

import importlib.util
import os
import re
import subprocess
import sys
from unittest import mock

import pytest

import pairorth

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_one_pair_of_the_stack_table_prints_every_cell():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_rounds.py"), ROOT, ROOT,
         "--workload", "stack", "--pairs", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert re.search(r"^reference kernels before, .* s$", out, re.M)
    assert re.search(r"^reference kernels after, .* s$", out, re.M)
    # each cell's batch is set once, for both sides, before the pairs
    batches = re.findall(r"^batch: stack .*: (\d+) call\(s\) a sample$", out, re.M)
    rows = [line.split(" | ") for line in out.splitlines() if line.startswith("| stack ")]
    # R in {10, 50, 200}, both fields: each side's µs per replicate, the
    # ratio and the one pair's count
    assert [row[0] for row in rows] == [f"| stack n=8 {field} R={R}" for field in ("real", "complex")
                                        for R in (10, 50, 200)]
    assert len(batches) == len(rows) and all(int(b) >= 1 for b in batches)
    for _, a, b, ratio, better in rows:
        assert re.fullmatch(r"\d+\.\d µs", a) and re.fullmatch(r"\d+\.\d µs", b)
        assert re.fullmatch(r"\d+\.\d{4} \(\d+\.\d{4}, \d+\.\d{4}\)", ratio)
        assert re.fullmatch(r"[01] of 1 \|", better)


@pytest.fixture
def ab_rounds(monkeypatch):
    # loading the tool sets its BLAS thread variables and puts perfbench on
    # the path; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location(
            "ab_rounds", os.path.join(ROOT, "tools", "ab_rounds.py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "ab_rounds", module)  # for its dataclass
        spec.loader.exec_module(module)
    return module


def test_the_stride_table_builds_every_cell(ab_rounds):
    cells = ab_rounds._table("stride", pairorth)
    assert [cell.label for cell in cells] == [
        f"stride n={n} real {kind} stride={stride}" for n in (8, 16, 32, 128)
        for kind in ("uniform", "proportional") for stride in (1, 2, 4, 8, 16)]
    # every warm-up call was accepted, so every cell is timed
    assert all(cell.call is not None and cell.note == "" for cell in cells)


def test_the_cosolve_table_builds_every_cell(ab_rounds):
    cells = ab_rounds._table("cosolve", pairorth)
    assert [cell.label for cell in cells] == [
        f"cosolve n={n} {field} {ratio}" for n in (4, 8, 32, 128)
        for field in ("real", "complex") for ratio in ("1:1", "4:1")]
    assert all(cell.call is not None and cell.note == "" for cell in cells)


def test_the_run_ensemble_table_builds_every_cell(ab_rounds):
    cells = ab_rounds._table("run_ensemble", pairorth)
    assert [cell.label for cell in cells] == [
        f"run_ensemble n={n} {field} {kind} R={R}" for n in (4, 8, 16, 32, 64, 128)
        for field in ("real", "complex") for R in (3, 50)
        for kind in ("uniform", "proportional", "greedy")]
    # a cell is per chain-step: ENSEMBLE_STEPS steps times its replicates
    assert [cell.work for cell in cells[:6]] == [200 * R for R in (3, 50) for _ in range(3)]
    assert all(cell.call is not None and cell.note == "" for cell in cells)
