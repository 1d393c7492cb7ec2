"""The kept-state sweep in tools/kept_state_sweep.py, one cell of each kind run on this checkout."""

import importlib.util
import os

import pairorth

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_one_per_step_cell_and_one_drift_cell_pass_their_gates():
    spec = importlib.util.spec_from_file_location(
        "kept_state_sweep", os.path.join(ROOT, "tools", "kept_state_sweep.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    steps = [cell[5] for cell in sweep.CELLS]
    assert steps.count(None) == 192 and len(steps) == 192 + 30
    per_step = (4, ("near_singular", 1e-12), "real", "uniform", 0, None)
    drift = (4, ("gaussian_normalized", None), "real", "uniform", 0, 2048)
    assert per_step in sweep.CELLS and drift in sweep.CELLS
    # the start is near singular, so the chain takes the projection path
    fallbacks, _, (share, where), ok = sweep.run_cell(pairorth, per_step)
    assert ok and 0.0 < share <= 1.0 and where.startswith("step ") and fallbacks > 0
    # a Gaussian start stays on the inverse path and never comes due
    fallbacks, refreshes, (gap_b, gap_slack), ok = sweep.run_cell(pairorth, drift)
    assert ok and fallbacks == refreshes == 0
    assert 0.0 < gap_b < 1.0 and 0.0 < gap_slack <= 0.5
