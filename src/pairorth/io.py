"""File formats: matrix text files, trajectory/ensemble/cosolve CSV,
and the flat key = value format shared by configs and run summaries.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly. All writers go through a temp file and an atomic rename
so a failed run never leaves a partial output behind.
"""

from __future__ import annotations

import os

import numpy as np

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
    """Write text to path via a temp file under a fresh name in the same
    directory, created as open() creates a file: mode 0666, from which the
    kernel takes the process umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    """Header and n rows; lines that start with # are comments, blank lines ignored."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    if not lines:
        raise UsageError("matrix file is empty")
    header = lines[0].split()
    if len(header) != 4 or header[0] != MATRIX_MAGIC or header[1] != MATRIX_VERSION:
        raise UsageError(f"bad matrix header {lines[0]!r}")
    if not header[2].isdecimal():
        raise UsageError(f"matrix size {header[2]!r} in the header is not written in digits")
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
            try:
                arr[row, col] = _parse_entry(token, fld)
            except ValueError as exc:
                raise UsageError(f"row {row}, column {col}: {exc}") from None
    return ColumnMatrix(arr)


def save_matrix(path: str, A: ColumnMatrix) -> None:
    atomic_write_text(path, matrix_to_text(A))


def load_matrix(path: str) -> ColumnMatrix:
    with open(path) as handle:
        return matrix_from_text(handle.read())


TRAJECTORY_HEADER = "t,pair_i,pair_j,inner_abs,phi,sigma_min,kappa,gram_offdiag"
ENSEMBLE_HEADER = "t,mean_phi,min_phi,max_phi,stderr_phi,theorem7_bound,exceed_flag,mean_log_kappa"


def trajectory_to_csv(traj: Trajectory) -> str:
    """One row per step; the condition columns filled on the record grid."""
    lines = [TRAJECTORY_HEADER]
    records = dict(zip(traj.grid, zip(traj.sigma_min, traj.kappa, traj.gram_offdiag)))
    pairs = traj.pairs.tolist()
    inner_abs = traj.inner_abs.tolist()
    for t, phi in enumerate(traj.phi.tolist()):
        if t == 0:
            head = "0,,,"
        else:
            (i, j), c = pairs[t - 1], inner_abs[t - 1]
            head = f"{t},{i},{j},{format_float(c)}"
        row = f"{head},{format_float(phi)}"
        record = records.get(t)
        row += ",,," if record is None else "".join(f",{format_float(v)}" for v in record)
        lines.append(row)
    return "\n".join(lines) + "\n"


def ensemble_to_csv(stats: EnsembleStats) -> str:
    lines = [ENSEMBLE_HEADER]
    head = (stats.mean_phi, stats.min_phi, stats.max_phi, stats.stderr_phi, stats.bound)
    for k, t in enumerate(stats.t):
        row = [str(int(t)), *(format_float(col[k]) for col in head), str(int(stats.exceed[k]))]
        lines.append(",".join(row + [format_float(stats.mean_log_kappa[k])]))
    return "\n".join(lines) + "\n"


def cosolve_to_csv(history: np.recarray) -> str:
    lines = [",".join(history.dtype.names)]
    for step, kind, err_norm, phi in history.tolist():
        lines.append(f"{step},{kind},{format_float(err_norm)},{format_float(phi)}")
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


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_format_value, value))
    return format_float(value) if isinstance(value, float) else str(value)


def emit_config(values: dict) -> str:
    """key = value lines; floats (numpy's too) at 17 digits, tuples comma-joined."""
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in values.items())
