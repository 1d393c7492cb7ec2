"""The --compare mode of tools/golden.py, on two small output trees."""

import importlib.util
import os
import subprocess
from unittest import mock

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location(
        "golden", os.path.join(ROOT, "tools", "golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


CASE = {
    "case/exit_code.txt": "0\n",
    "case/stdout.txt": "",
    "case/out/ensemble.csv": "t,mean_phi\n0,0.10000000000000001\n",
    "case/out/summary.txt": "steps = 5\nphi0 = 0.5\n",
}


def _compare(golden, capsys, tmp_path, changes):
    """Exit code and stdout lines of --compare on CASE against CASE with changes
    (a path not in CASE is a file on side B only)."""
    a = _tree(tmp_path / "a", CASE)
    b = _tree(tmp_path / "b", {**CASE, **changes})
    code = golden.main(["--compare", a, b])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees(golden, capsys, tmp_path):
    code, lines = _compare(golden, capsys, tmp_path, {})
    assert code == 0 and lines == ["4 of 4 files identical"]


def test_a_float_one_bit_apart_is_a_delta_not_a_flag(golden, capsys, tmp_path):
    x = 0.10000000000000001
    csv = f"t,mean_phi\n0,{np.nextafter(x, 1.0):.17g}\n"
    assert csv != CASE["case/out/ensemble.csv"]
    code, lines = _compare(golden, capsys, tmp_path, {"case/out/ensemble.csv": csv})
    assert code == 0
    assert lines[0] == os.path.join("case", "out", "ensemble.csv")
    assert lines[1].startswith("  mean_phi: max |delta| ")
    assert not any("FLAG" in line for line in lines)
    assert lines[-1] == "3 of 4 files identical"


def test_an_integer_key_that_differs_is_flagged(golden, capsys, tmp_path):
    code, lines = _compare(golden, capsys, tmp_path,
                           {"case/out/summary.txt": "steps = 6\nphi0 = 0.5\n"})
    assert code == 1
    assert "  FLAG steps: 1 differ, first steps: '5' != '6'" in lines


def test_a_file_on_one_side_only_is_flagged(golden, capsys, tmp_path):
    code, lines = _compare(golden, capsys, tmp_path, {"case/stderr.txt": ""})
    assert code == 1
    assert "  FLAG only in B" in lines and lines[-1] == "4 of 5 files identical"


THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                    dict.fromkeys(THREADS, "2")])
def test_cases_run_on_one_blas_thread_unless_the_caller_sets_a_count(golden, tmp_path, caller):
    # the bits of the n = 128 and 160 cases follow the thread count
    envs = []

    def run(cmd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(cmd, 0, "", "")

    with mock.patch.dict(os.environ), mock.patch.object(golden.subprocess, "run", run):
        for name in THREADS:
            os.environ.pop(name, None)
        os.environ.update(caller)
        assert golden.main([ROOT, str(tmp_path / "out")]) == 0
    assert len(envs) == len(golden._cases())
    assert all({name: env.get(name) for name in THREADS}
               == {name: caller.get(name, "1") for name in THREADS} for env in envs)
