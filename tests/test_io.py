"""File formats: matrix text, CSV emission, config round-trips."""

import os
import re
import stat
from unittest import mock

import numpy as np
import pytest

from pairorth import ConstructionError, UsageError, build_unit_column_matrix, generate, run_chain
from pairorth.generators import GeneratorSpec
from pairorth import io


def haar(n, field, seed):
    A, _ = generate(GeneratorSpec("haar_orthonormal", n=n, field=field, seed=seed))
    return A


class TestMatrixFormat:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_round_trip_bit_exact(self, tmp_path, field):
        A = haar(5, field, seed=3)
        path = tmp_path / "m.txt"
        io.save_matrix(str(path), A)
        B = io.load_matrix(str(path))
        assert B.field == field and B.n == 5
        assert np.array_equal(A.array, B.array)

    def test_header_layout(self):
        text = io.matrix_to_text(haar(3, "real", seed=1))
        lines = text.splitlines()
        assert lines[0] == "pairorth-matrix v1 3 real"
        assert len(lines) == 4
        assert all(len(line.split()) == 3 for line in lines[1:])

    def test_complex_entries_are_re_im(self):
        text = io.matrix_to_text(haar(2, "complex", seed=1))
        entry = text.splitlines()[1].split()[0]
        assert entry.count(":") == 1

    def test_bad_header_rejected(self):
        with pytest.raises(UsageError, match="header"):
            io.matrix_from_text("pairorth-matrix v2 2 real\n1 0\n0 1\n")
        with pytest.raises(UsageError):
            io.matrix_from_text("something-else v1 2 real\n1 0\n0 1\n")

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(UsageError, match="^matrix file is empty$"):
            io.load_matrix(str(path))

    def test_bad_field_tag_rejected(self):
        with pytest.raises(UsageError, match="^bad field tag 'quaternion' in matrix header$"):
            io.matrix_from_text("pairorth-matrix v1 2 quaternion\n1 0\n0 1\n")

    def test_row_count_mismatch(self):
        with pytest.raises(UsageError, match="rows"):
            io.matrix_from_text("pairorth-matrix v1 3 real\n1 0 0\n0 1 0\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(UsageError, match="entries"):
            io.matrix_from_text("pairorth-matrix v1 2 real\n1 0 0\n0 1\n")

    def test_bad_complex_entry(self):
        with pytest.raises(UsageError, match="re:im"):
            io.matrix_from_text("pairorth-matrix v1 2 complex\n1 0\n0 1\n")

    @pytest.mark.parametrize("size", ["x", "1.5", "-1", "+2", "2_0"])
    def test_bad_size_rejected(self, size):
        with pytest.raises(UsageError, match=re.escape(f"matrix size '{size}' in the header")):
            io.matrix_from_text(f"pairorth-matrix v1 {size} real\n1 0\n0 1\n")

    @pytest.mark.parametrize("field,bad", [
        ("real", "zz"), ("complex", "1:zz"), ("complex", "zz:0"),
    ])
    def test_unparsable_entry_names_its_row_and_column(self, field, bad):
        one = "1" if field == "real" else "1:0"
        zero = "0" if field == "real" else "0:0"
        text = f"pairorth-matrix v1 2 {field}\n{one} {zero}\n{zero} {bad}\n"
        message = "^row 1, column 1: could not convert string to float: 'zz'$"
        with pytest.raises(UsageError, match=message):
            io.matrix_from_text(text)

    def test_non_unit_file_rejected(self):
        with pytest.raises(ConstructionError):
            io.matrix_from_text("pairorth-matrix v1 2 real\n2 0\n0 1\n")

    def test_17_digit_floats_round_trip(self):
        x = 1.0 / 3.0
        assert float(io.format_float(x)) == x
        assert float(io.format_float(np.pi)) == np.pi


class TestConfigFormat:
    def test_parse_values(self):
        text = "steps = 100\n# a comment\nsampler = uniform  # trailing\n\nn=4\n"
        assert io.parse_config(text) == {"steps": "100", "sampler": "uniform", "n": "4"}

    def test_round_trip_identity(self):
        values = {"steps": "100", "sampler": "uniform", "theta": "0.5"}
        assert io.parse_config(io.emit_config(values)) == values

    def test_values_formatted_by_type(self):
        # floats, numpy's included, at the 17 digits of format_float; tuples
        # as comma lists; anything else by str
        text = io.emit_config(
            {"a": 0.1, "b": np.float64(1.0) / 3.0, "c": 3, "d": "x", "e": (0.1, 1.0), "f": ""}
        )
        assert text == (
            "a = 0.10000000000000001\nb = 0.33333333333333331\nc = 3\nd = x\n"
            "e = 0.10000000000000001,1\nf = \n"
        )

    def test_bad_line_rejected(self):
        with pytest.raises(UsageError, match="key = value"):
            io.parse_config("steps 100\n")
        with pytest.raises(UsageError, match="empty key"):
            io.parse_config("= 3\n")


class TestCsvEmission:
    def test_trajectory_csv_shape(self):
        A = haar(3, "real", seed=9)
        traj = run_chain(A, steps=6, seed=2, metrics_stride=3)
        text = io.trajectory_to_csv(traj)
        lines = text.splitlines()
        assert lines[0] == "t,pair_i,pair_j,inner_abs,phi,sigma_min,kappa,gram_offdiag"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "" and first[2] == "" and first[3] == ""
        assert first[5] != ""  # t = 0 carries a snapshot
        row1 = lines[2].split(",")
        assert row1[5] == row1[6] == row1[7] == ""  # off-stride rows have no snapshot
        row3 = lines[4].split(",")
        assert row3[5] != "" and row3[6] != ""

    def test_ensemble_csv_shape(self):
        from pairorth import run_ensemble

        A = haar(3, "real", seed=9)
        stats = run_ensemble(A, steps=10, kind="uniform", replicates=2, base_seed=4, metrics_stride=5)
        lines = io.ensemble_to_csv(stats).splitlines()
        assert lines[0] == (
            "t,mean_phi,min_phi,max_phi,stderr_phi,theorem7_bound,exceed_flag,mean_log_kappa"
        )
        assert len(lines) == 4  # t = 0, 5, 10
        assert all(line.split(",")[6] in ("0", "1") for line in lines[1:])

    def test_cosolve_csv_shape(self):
        from pairorth import run_cosolve

        A = haar(3, "real", seed=9)
        history, _ = run_cosolve(A, np.ones(3), interleave=(1, 1), steps=4, seed=3)
        lines = io.cosolve_to_csv(history).splitlines()
        assert lines[0] == "step,kind,err_norm,phi"
        assert [line.split(",")[1] for line in lines[1:]] == ["orth", "kacz", "orth", "kacz"]


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        io.atomic_write_text(str(path), "hello\n")
        assert path.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_the_umask(self, tmp_path, umask):
        # what open() gives a new file: 0666 less the umask, not mkstemp's 0600
        old = os.umask(umask)
        try:
            io.atomic_write_text(str(tmp_path / "out.txt"), "data")
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("data")
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)

    def test_never_sets_the_umask(self, tmp_path):
        # a umask read by setting it and back would, in between, give another
        # thread's new files mode 0666: the kernel applies it at the create
        old = os.umask(0o027)
        try:
            with mock.patch.object(os, "umask", side_effect=AssertionError("umask set")):
                io.atomic_write_text(str(tmp_path / "out.txt"), "data")
        finally:
            os.umask(old)
        assert (tmp_path / "out.txt").read_text() == "data"
        assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o666 & ~0o027

    def test_failure_leaves_no_partial(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"

        def boom(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            io.atomic_write_text(str(path), "data")
        assert list(tmp_path.iterdir()) == []
