"""Command-line interface: subcommands, exit codes, emitted files."""

import numpy as np
import pytest

from pairorth import io
from pairorth.cli import main


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
        assert "metrics_stride must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "config.txt").exists()

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


class TestBounds:
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

    def test_failing_suite_dumps_instance(self, tmp_path, capsys):
        # the per-step distance monotonicity claim genuinely fails for
        # n >= 3, so this suite must report the failure and exit 2
        code = main(
            ["verify", "lemma3", "--trials", "40", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "lemma3: FAIL" in out
        dumps = list(tmp_path.glob("verify-failure-lemma3-*.txt"))
        assert dumps
        body = dumps[0].read_text()
        assert "pairorth-matrix v1" in body

    def test_seed_required(self):
        assert main(["verify", "onestep", "--trials", "5"]) == 1

    @pytest.mark.parametrize("trials", ["-3", "0"])
    def test_trials_must_be_positive(self, capsys, trials):
        assert main(["verify", "lemma10", "--trials", trials, "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err
        assert captured.out == ""

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
