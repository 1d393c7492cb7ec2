"""File formats: matrix text files, trajectory/ensemble/cosolve CSV,
and the flat key = value format shared by configs and run summaries.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly. All writers go through a temp file and an atomic rename
so a failed run never leaves a partial output behind.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .cosolve import CosolveRecord
from .errors import UsageError
from .matrix import COMPLEX, REAL, ColumnMatrix
from .process import EnsembleStats, Trajectory

MATRIX_MAGIC = "pairorth-matrix"
MATRIX_VERSION = "v1"


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _format_entry(value, field: str) -> str:
    if field == COMPLEX:
        return f"{format_float(value.real)}:{format_float(value.imag)}"
    return format_float(value)


def _parse_entry(token: str, field: str):
    if field == COMPLEX:
        re_part, sep, im_part = token.rpartition(":")
        if not sep:
            raise UsageError(f"complex entry {token!r} is not in re:im form")
        return complex(float(re_part), float(im_part))
    return float(token)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_to_text(A: ColumnMatrix) -> str:
    lines = [f"{MATRIX_MAGIC} {MATRIX_VERSION} {A.n} {A.field}"]
    for row in range(A.n):
        lines.append(" ".join(_format_entry(A.array[row, col], A.field) for col in range(A.n)))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> ColumnMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise UsageError("matrix file is empty")
    header = lines[0].split()
    if len(header) != 4 or header[0] != MATRIX_MAGIC or header[1] != MATRIX_VERSION:
        raise UsageError(f"bad matrix header {lines[0]!r}")
    n = int(header[2])
    fld = header[3]
    if fld not in (REAL, COMPLEX):
        raise UsageError(f"bad field tag {fld!r} in matrix header")
    if len(lines) != n + 1:
        raise UsageError(f"expected {n} rows, found {len(lines) - 1}")
    dtype = np.complex128 if fld == COMPLEX else np.float64
    arr = np.empty((n, n), dtype=dtype, order="F")
    for row, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n:
            raise UsageError(f"row {row} has {len(tokens)} entries, expected {n}")
        for col, token in enumerate(tokens):
            arr[row, col] = _parse_entry(token, fld)
    return ColumnMatrix(arr)


def save_matrix(path: str, A: ColumnMatrix) -> None:
    atomic_write_text(path, matrix_to_text(A))


def load_matrix(path: str) -> ColumnMatrix:
    with open(path) as handle:
        return matrix_from_text(handle.read())


TRAJECTORY_HEADER = "t,pair_i,pair_j,inner_abs,phi,sigma_min,kappa,gram_offdiag"
ENSEMBLE_HEADER = "t,mean_phi,min_phi,max_phi,stderr_phi,theorem7_bound,exceed_flag,mean_log_kappa"
COSOLVE_HEADER = "step,kind,err_norm,phi"


def trajectory_to_csv(traj: Trajectory) -> str:
    """One row per step; snapshot columns filled on the record grid."""
    lines = [TRAJECTORY_HEADER]
    snaps = dict(zip(traj.grid, traj.snapshots))
    pairs = traj.pairs.tolist()
    inner_abs = traj.inner_abs.tolist()
    for t, phi in enumerate(traj.phi.tolist()):
        if t == 0:
            head = "0,,,"
        else:
            (i, j), c = pairs[t - 1], inner_abs[t - 1]
            head = f"{t},{i},{j},{format_float(c)}"
        row = f"{head},{format_float(phi)}"
        s = snaps.get(t)
        if s is not None:
            row += (
                f",{format_float(s.sigma[-1])},{format_float(s.kappa)},"
                f"{format_float(s.gram_offdiag)}"
            )
        else:
            row += ",,,"
        lines.append(row)
    return "\n".join(lines) + "\n"


def ensemble_to_csv(stats: EnsembleStats) -> str:
    lines = [ENSEMBLE_HEADER]
    for k, t in enumerate(stats.t):
        lines.append(
            ",".join(
                (
                    str(int(t)),
                    format_float(stats.mean_phi[k]),
                    format_float(stats.min_phi[k]),
                    format_float(stats.max_phi[k]),
                    format_float(stats.stderr_phi[k]),
                    format_float(stats.bound[k]),
                    "1" if stats.exceed[k] else "0",
                    format_float(stats.mean_log_kappa[k]),
                )
            )
        )
    return "\n".join(lines) + "\n"


def cosolve_to_csv(history: list[CosolveRecord]) -> str:
    lines = [COSOLVE_HEADER]
    for rec in history:
        lines.append(f"{rec.step},{rec.kind},{format_float(rec.err_norm)},{format_float(rec.phi)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> dict[str, str]:
    """Flat key = value lines; # starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise UsageError(f"config line {lineno}: empty key")
        out[key] = value.strip()
    return out


def emit_config(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def write_summary(path: str, values: dict) -> None:
    atomic_write_text(path, emit_config(values))
