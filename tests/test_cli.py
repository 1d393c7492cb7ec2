"""Command-line interface: subcommands, exit codes, emitted files."""

import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from pairorth import (
    ConvergenceTarget,
    GeneratorSpec,
    UsageError,
    certify,
    cli,
    f_map,
    generate,
    io,
    kappa_bounds_from_phi,
    prop_a0_bound,
    run_cosolve,
    run_ensemble,
    stopping_tail,
    theorem1_steps,
    theorem7_bound,
)
from pairorth.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def read_summary(path):
    return io.parse_config(path.read_text())


class TestRun:
    def test_two_by_two_single_step(self, tmp_path):
        code = main(
            [
                "run", "--gen", "two_by_two_angle", "--theta", "1.0471975511965976",
                "--steps", "1", "--replicates", "1", "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        summary = read_summary(tmp_path / "summary.txt")
        assert abs(float(summary["final_mean_phi"])) <= 1e-10
        assert (tmp_path / "ensemble.csv").exists()

    def test_orthonormal_all_zero(self, tmp_path):
        code = main(
            [
                "run", "--gen", "haar", "--n", "4", "--steps", "20",
                "--replicates", "2", "--seed", "3", "--out", str(tmp_path),
                "--emit", "trajectory,ensemble,summary",
            ]
        )
        assert code == 0
        lines = (tmp_path / "ensemble.csv").read_text().splitlines()[1:]
        for line in lines:
            parts = line.split(",")
            assert float(parts[1]) == 0.0  # mean phi
            assert parts[6] == "0"  # exceed flag
        assert (tmp_path / "trajectory_r0.csv").exists()
        assert (tmp_path / "trajectory_r1.csv").exists()

    def test_missing_seed_is_usage_error(self, tmp_path):
        code = main(
            ["run", "--gen", "haar", "--n", "4", "--steps", "5",
             "--replicates", "1", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_unknown_emit_target(self, tmp_path):
        code = main(
            ["run", "--gen", "haar", "--n", "4", "--steps", "5", "--replicates", "1",
             "--seed", "1", "--out", str(tmp_path), "--emit", "plots"]
        )
        assert code == 1

    def test_empty_emit_is_usage_error(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--gen", "haar", "--n", "4", "--steps", "5", "--replicates", "1",
             "--seed", "1", "--out", str(out), "--emit", ""]
        )
        assert code == 1
        assert not out.exists()

    def test_empty_emit_in_config_is_usage_error(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "run.cfg"
        config.write_text("emit =\n")
        code = main(
            ["run", "--config", str(config), "--gen", "haar", "--n", "4", "--steps", "5",
             "--replicates", "1", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_near_singular_run_reports_phi_rises(self, tmp_path):
        # transient phi rises are summary content, not a failure exit
        code = main(
            ["run", "--gen", "near_singular", "--n", "4", "--eta", "1e-3",
             "--steps", "200", "--replicates", "2", "--seed", "11",
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_summary(tmp_path / "summary.txt")
        assert "monotonicity_violations" in summary
        assert int(summary["aborts"]) == 0
        # each replicate's running bound stays far below the slack
        # n max(1e-8, n eps est), so no checkpoint refreshes its inverse
        assert int(summary["inverse_refreshes"]) == 0
        assert int(summary["projection_fallbacks"]) == 0
        assert 0.0 <= float(summary["worst_refresh_drift"]) <= 1e-6
        assert 0.0 < float(summary["worst_drift_bound"]) <= 1e-3 * 4 * 1e-8

    def test_summary_counts_uniform_fallbacks(self, tmp_path):
        # every inner product of an orthonormal start is below 1e-15, so
        # each proportional draw falls back to uniform
        code = main(
            ["run", "--gen", "haar", "--n", "3", "--sampler", "proportional",
             "--steps", "10", "--replicates", "2", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert read_summary(tmp_path / "summary.txt")["uniform_fallbacks"] == "20"

    def test_summary_carries_the_kernel_record(self, tmp_path, monkeypatch):
        # every KernelStats field, with the values of the run's record; this
        # run makes all five nonzero
        runs = []
        monkeypatch.setattr(cli, "run_ensemble",
                            lambda *args, **kw: runs.append(run_ensemble(*args, **kw)) or runs[-1])
        code = main(
            ["run", "--gen", "near_singular", "--n", "6", "--eta", "1e-10", "--sampler",
             "proportional", "--steps", "600", "--stride", "50", "--replicates", "3",
             "--seed", "7", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_summary(tmp_path / "summary.txt")
        kernel = asdict(runs[0].kernel)
        assert all(kernel.values())
        assert list(summary)[-len(kernel):] == list(kernel)
        for key, value in kernel.items():
            assert type(value)(summary[key]) == value, key

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "gen = haar\nn = 4\nsteps = 10\nreplicates = 2\nseed = 9\n"
            f"out = {tmp_path / 'from-config'}\n"
        )
        code = main(["run", "--config", str(config), "--steps", "3"])
        assert code == 0
        resolved = io.parse_config((tmp_path / "from-config" / "config.txt").read_text())
        assert resolved["steps"] == "3"  # flag wins
        assert resolved["n"] == "4"

    def test_stride_zero_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["run", "--gen", "haar", "--n", "4", "--steps", "5", "--replicates", "1",
             "--stride", "0", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "--stride must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "config.txt").exists()

    def test_bad_stride_creates_no_output_dir(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--gen", "haar", "--n", "4", "--steps", "5", "--replicates", "1",
             "--stride", "0", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("change,message", [
        ({"--gen": "bogus"}, "unknown generator 'bogus'"),
        ({"--n": None}, "missing required value 'n'"),
        ({"--sampler": "bogus"}, "unknown sampler 'bogus'"),
        ({"--steps": "0"}, "steps must be >= 1, got 0"),
        ({"--replicates": "0"}, "replicates must be >= 1, got 0"),
    ])
    def test_bad_run_value_is_usage_error_before_output_dir(self, tmp_path, capsys, change,
                                                            message):
        out = tmp_path / "out"
        flags = {"--gen": "haar", "--n": "4", "--steps": "5", "--replicates": "1", "--seed": "1",
                 "--out": str(out)}
        flags.update(change)
        code = main(["run"] + [x for flag, value in flags.items() if value is not None
                               for x in (flag, value)])
        assert code == 1
        assert f"pairorth: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_n2_instance_fails_before_output_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", "--gen", "near_singular", "--n", "2", "--steps", "10",
                "--replicates", "4", "--seed", "1", "--out", str(out)]
        assert main(args + ["--eta", "1e-7"]) == 2
        assert "degenerate only pair" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--eta", "1e-5"]) == 0
        assert read_summary(out / "summary.txt")["aborts"] == "0"

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("turbo = yes\n")
        assert main(["run", "--config", str(config), "--seed", "1"]) == 1

    @pytest.mark.parametrize(
        "command,line",
        [("run", "n = four"), ("cosolve", "interleave = 1:x"), ("gen", "sigma = 1,x")],
    )
    def test_malformed_config_value_is_usage_error(self, tmp_path, capsys, command, line):
        config = tmp_path / "exp.cfg"
        config.write_text(line + "\n")
        assert main([command, "--config", str(config), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "pairorth: error: invalid value" in err and "Traceback" not in err


KAPPA_LABELS = ("lower", "upper_loose", "upper_tight")

# `bounds` arguments and the evaluator's direct result: one value, or the
# labelled results in order
BOUND_CASES = [
    ("f --x 0.3 --n 4", lambda: f_map(0.3, 4)),
    ("theorem7 --phi0 0.2 --n 2 --t 10", lambda: theorem7_bound(0.2, 2, 10.0)),
    ("kappa --phi 0.3 --n 4", lambda: dict(zip(KAPPA_LABELS, kappa_bounds_from_phi(0.3, 4)))),
    ("kappa --phi 0.6 --n 3", lambda: dict(zip(KAPPA_LABELS, kappa_bounds_from_phi(0.6, 3)))),
    ("kappa --phi 800 --n 2", lambda: dict(zip(KAPPA_LABELS, kappa_bounds_from_phi(800.0, 2)))),
    ("stopping-tail --phi0 5 --n 4 --c 3",
     lambda: dict(zip(("threshold_steps", "tail_prob"), stopping_tail(5.0, 4, 3)))),
    ("prop-a0 --phi0 5 --n 4 --t 16", lambda: prop_a0_bound(5.0, 4, 16.0)),
    ("theorem1-steps --phi0 5 --n 4 --eps 0.005 --delta 0.005",
     lambda: theorem1_steps(5.0, 4, ConvergenceTarget(eps=0.005, delta=0.005))),
]


class TestBounds:
    @pytest.mark.parametrize("argv,direct", BOUND_CASES, ids=[argv for argv, _ in BOUND_CASES])
    def test_prints_the_direct_result(self, capsys, argv, direct):
        assert main(["bounds", *argv.split()]) == 0
        result = direct()
        if isinstance(result, dict):
            expected = "".join(f"{key} = {'absent' if value is None else io._format_value(value)}\n"
                               for key, value in result.items())
        else:
            expected = f"{io._format_value(result)}\n"
        assert capsys.readouterr().out == expected

    def test_cases_cover_every_bound(self):
        assert {argv.split()[0] for argv, _ in BOUND_CASES} == set(cli.BOUNDS)

    @pytest.mark.parametrize("argv", [
        "theorem7 --phi0 0.5 --n 4 --t nan",
        "kappa --phi nan --n 4",
        "theorem1-steps --phi0 nan --n 4 --eps 0.005 --delta 0.005",
        "theorem1-steps --phi0 inf --n 4 --eps 0.005 --delta 0.005",
        "stopping-tail --phi0 nan --n 4 --c 1",
        "stopping-tail --phi0 inf --n 4 --c 1",
        "prop-a0 --phi0 0.1 --n 4 --t 1",
        # step counts that are not finite, and inf - inf
        "stopping-tail --phi0 1e307 --n 100 --c 1",
        "theorem1-steps --phi0 1e306 --n 4 --eps 0.005 --delta 0.005",
        "theorem7 --phi0 inf --n 4 --t inf",
        "prop-a0 --phi0 inf --n 4 --t inf",
    ])
    def test_input_outside_the_domain_exits_1(self, capsys, argv):
        assert main(["bounds", *argv.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pairorth: error: ") and "Traceback" not in captured.err

    def test_f_zero(self, capsys):
        assert main(["bounds", "f", "--x", "0", "--n", "5"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_theorem7(self, capsys):
        assert main(["bounds", "theorem7", "--phi0", "0.2", "--n", "2", "--t", "10"]) == 0
        assert capsys.readouterr().out.strip().startswith("0.1315493275442913")

    def test_theorem1_steps(self, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                ["bounds", "theorem1-steps", "--phi0", "5", "--n", "4",
                 "--eps", "0.01", "--delta", "0.01"]
            )
        assert code == 0
        assert capsys.readouterr().out.strip() == "12288000000"

    def test_a_library_warning_is_one_stderr_line(self):
        # eps and delta outside the stated regime (0, 0.01): the bound warns
        # and is evaluated anyway
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pairorth.cli", "bounds", "theorem1-steps", "--phi0", "5",
             "--n", "4", "--eps", "0.05", "--delta", "0.05"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "98304000\n"
        assert proc.stderr.startswith("pairorth: warning: targets eps=0.05")
        assert proc.stderr.count("\n") == 1

    def test_kappa_reports_absent_branch(self, capsys):
        assert main(["bounds", "kappa", "--phi", "0.6", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "upper_tight = absent" in out

    def test_stopping_tail(self, capsys):
        assert main(["bounds", "stopping-tail", "--phi0", "5", "--n", "4", "--c", "1"]) == 0
        out = capsys.readouterr().out
        assert "threshold_steps = 720" in out and "tail_prob = 0.5" in out

    def test_unknown_name(self):
        assert main(["bounds", "lemma42", "--x", "1"]) == 1

    def test_missing_argument(self):
        assert main(["bounds", "f", "--n", "5"]) == 1


class TestVerify:
    def test_passing_suite(self, capsys):
        assert main(["verify", "onestep", "--trials", "15", "--seed", "1"]) == 0
        assert "onestep: pass 15/15" in capsys.readouterr().out

    def test_lemma10_passes(self, capsys):
        assert main(["verify", "lemma10", "--trials", "40", "--seed", "2"]) == 0
        assert "pass 40/40" in capsys.readouterr().out

    def test_hadamard_passes(self, capsys):
        assert main(["verify", "hadamard", "--trials", "1000", "--seed", "20260808"]) == 0
        assert "hadamard: pass 1000/1000" in capsys.readouterr().out

    def test_failing_suite_dumps_instance(self, tmp_path, capsys):
        # the per-step distance monotonicity claim genuinely fails for
        # n >= 3, so this suite must report the failure and exit 2
        code = main(
            ["verify", "lemma3", "--trials", "40", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "lemma3: FAIL" in out
        dumps = sorted(tmp_path.glob("verify-failure-lemma3-*.txt"))
        assert dumps
        assert "pairorth-matrix v1" in dumps[0].read_text()
        # each dump loads as a matrix file and is its instance, bit for bit
        for path in dumps:
            seed = re.fullmatch(r"# suite lemma3 seed (\d+)", path.read_text().splitlines()[0])
            A = io.load_matrix(str(path))
            expected, _ = generate(GeneratorSpec("gaussian_normalized", A.n, A.field, int(seed[1])))
            assert A.array.dtype == expected.array.dtype
            assert A.array.tobytes() == expected.array.tobytes()

    def test_seed_required(self):
        assert main(["verify", "onestep", "--trials", "5"]) == 1

    @pytest.mark.parametrize("trials", ["-3", "0"])
    def test_trials_must_be_positive(self, capsys, trials):
        assert main(["verify", "lemma10", "--trials", trials, "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [16, 57, 157, 190])
    def test_tstar_tail_seeds_beyond_the_coarse_grid(self, capsys, seed):
        # the coarse eta grid misses phi in [4, 6] for these seeds; the fine
        # grid behind it finds an instance, so the suite runs
        _, achieved = certify.find_tail_instance(seed, n=4)
        assert 4.0 <= achieved.phi <= 6.0
        main(["verify", "tstar-tail", "--trials", "2", "--seed", str(seed)])
        assert capsys.readouterr().out.startswith("tstar-tail: ")

    @pytest.mark.parametrize("trials", [2.5, 1.0, True, "3"])
    def test_run_suite_trials_must_be_an_integer(self, trials):
        # trials=True would run one trial and report trials=True
        with pytest.raises(UsageError, match="trials"):
            certify.run_suite("lemma10", trials, 1)

    def test_run_suite_unknown_suite_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown suite"):
            certify.run_suite("lemma99", 3, 1)

    def test_run_suite_numpy_integer_trials_pass(self):
        result = certify.run_suite("lemma10", np.int64(3), 1)
        assert result.trials == 3 and type(result.trials) is int

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_must_be_u64(self, capsys, seed):
        assert main(["verify", "lemma10", "--trials", "3", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert "seed must be an unsigned 64-bit integer" in captured.err
        assert captured.out == ""


class TestGen:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["gen", "--kind", "haar", "--n", "4", "--seed", "3", "--out", str(out)]) == 0
        A = io.load_matrix(str(out))
        io.save_matrix(str(tmp_path / "m2.txt"), A)
        assert (tmp_path / "m2.txt").read_text() == out.read_text()

    def test_reports_achieved_metrics(self, capsys, tmp_path):
        out = tmp_path / "m.txt"
        main(["gen", "--kind", "near_singular", "--n", "5", "--eta", "1e-3",
              "--seed", "2", "--out", str(out)])
        printed = capsys.readouterr().out
        assert printed.startswith("phi = ")
        assert "kappa = " in printed

    def test_seed_required_for_random_kind(self, tmp_path):
        assert main(["gen", "--kind", "haar", "--n", "4", "--out", str(tmp_path / "m.txt")]) == 1

    def test_gen_accepts_config_file(self, tmp_path):
        config = tmp_path / "gen.cfg"
        out = tmp_path / "m.txt"
        config.write_text(f"gen = haar\nn = 3\nseed = 4\nout = {out}\n")
        assert main(["gen", "--config", str(config)]) == 0
        assert out.exists()


class TestCosolve:
    def test_plain_kaczmarz_history(self, tmp_path):
        code = main(
            ["cosolve", "--gen", "gaussian", "--n", "4", "--interleave", "0:1",
             "--steps", "30", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "cosolve.csv").read_text().splitlines()
        assert lines[0] == "step,kind,err_norm,phi"
        assert all(line.split(",")[1] == "kacz" for line in lines[1:])

    def test_interleaved_emits_both_kinds(self, tmp_path):
        main(
            ["cosolve", "--gen", "gaussian", "--n", "8", "--interleave", "1:1",
             "--steps", "40", "--seed", "6", "--out", str(tmp_path)]
        )
        kinds = {line.split(",")[1] for line in (tmp_path / "cosolve.csv").read_text().splitlines()[1:]}
        assert kinds == {"orth", "kacz"}
        summary = read_summary(tmp_path / "cosolve_summary.txt")
        assert float(summary["final_residual"]) <= 1e-8
        assert int(summary["inverse_refreshes"]) == 0  # 20 orth steps, no refresh due
        assert int(summary["projection_fallbacks"]) == 0
        assert float(summary["worst_refresh_drift"]) == 0.0

    def test_complex_field_solves_for_a_complex_x(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_cosolve",
                            lambda *args, **kw: runs.append(args) or run_cosolve(*args, **kw))
        code = main(
            ["cosolve", "--gen", "gaussian", "--n", "4", "--field", "complex", "--interleave",
             "1:1", "--steps", "40", "--seed", "6", "--out", str(tmp_path)]
        )
        assert code == 0
        A0, x_true = runs[0]
        assert A0.field == "complex" and np.all(x_true.imag != 0.0)
        summary = read_summary(tmp_path / "cosolve_summary.txt")
        assert summary["field"] == "complex" and float(summary["final_residual"]) <= 1e-8

    def test_summary_carries_the_kernel_record(self, tmp_path, monkeypatch):
        # the projection-path start makes refreshes, projection steps and
        # drift nonzero; a co-solve never draws proportionally
        runs = []
        monkeypatch.setattr(cli, "run_cosolve",
                            lambda *args, **kw: runs.append(run_cosolve(*args, **kw)) or runs[-1])
        code = main(
            ["cosolve", "--gen", "near_singular", "--n", "12", "--eta", "1e-10",
             "--interleave", "1:1", "--steps", "300", "--seed", "9", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_summary(tmp_path / "cosolve_summary.txt")
        kernel = asdict(runs[0][1].kernel)
        assert list(kernel.values())[:3] != [0, 0, 0.0] and kernel["uniform_fallbacks"] == 0
        assert list(summary)[-len(kernel):] == list(kernel)
        for key, value in kernel.items():
            assert type(value)(summary[key]) == value, key

    def test_config_rejects_run_only_keys(self, tmp_path, capsys):
        # sampler, replicates, stride and emit belong to run; cosolve has
        # no use for them and must not accept them silently
        config = tmp_path / "co.cfg"
        config.write_text("sampler = bogus\n")
        code = main(
            ["cosolve", "--config", str(config), "--gen", "gaussian", "--n", "4",
             "--steps", "5", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "unknown config key 'sampler'" in capsys.readouterr().err

    def test_bad_interleave(self, tmp_path):
        assert main(
            ["cosolve", "--gen", "gaussian", "--n", "4", "--interleave", "11",
             "--steps", "5", "--seed", "5", "--out", str(tmp_path)]
        ) == 1


# an OS error on a path the user gave: `taken` is an existing file, `dir` a directory
@pytest.mark.parametrize("argv", [
    "run --gen haar --n 4 --steps 5 --replicates 1 --seed 1 --out taken",
    "run --gen haar --n 4 --steps 5 --replicates 1 --seed 1 --config dir",
    "gen --kind haar --n 4 --seed 3 --out dir",
    "cosolve --gen gaussian --n 4 --steps 5 --seed 5 --out taken/x",
], ids=["run-out-is-a-file", "run-config-is-a-directory", "gen-out-is-a-directory",
        "cosolve-out-under-a-file"])
def test_os_error_on_a_given_path_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    (tmp_path / "dir").mkdir()
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("pairorth: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.rglob(".tmp-*"))
