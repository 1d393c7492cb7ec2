"""Golden outputs of the pairorth command line, for byte-for-byte diffs.

Usage: python tools/golden.py CHECKOUT OUT
       python tools/golden.py --compare OUT_A OUT_B

Runs a fixed list of `pairorth` commands against the package in
CHECKOUT/src. Each command gets its own directory OUT/<case>/: the files it
writes go to OUT/<case>/out/ (every subcommand but `bounds` is given
`--out out`), and its stdout, stderr and exit code go to
stdout.txt, stderr.txt and exit_code.txt. Commands run with OUT/<case> as
their working directory and name their outputs by relative path, so no
absolute path reaches the outputs. They run on one BLAS thread, unless the
caller's environment sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS, which then keeps its value. Run it once per checkout; when
two checkouts behave the same, `diff -r OUT_A OUT_B` prints nothing.

--compare reads two such trees. For each file that differs it prints the
max |delta| of every float column of a CSV and every float key of a
`key = value` file, and flags every other difference: integers (steps,
pairs, counts), text (the operation kind), keys, rows or files present on
one side only, and any change to stdout, stderr or an exit code. A value
is a float when it parses as one and either side is written with a point,
an exponent, inf or nan. The exit code is 1 when anything was flagged.
Output piped into a reader that stops early, such as `head`, ends quietly,
and the exit code is still that of the whole comparison.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys

SIGMA = "1,0.6,0.3,0.1,0.05,0.01,0.005,0.001"
EMIT = ["--emit", "trajectory,ensemble,summary"]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for field in ("real", "complex"):
        for steps, stride in (("2000", "100"), ("20", "7")):
            cases[f"run-near-singular-{field}-{steps}"] = [
                "run", "--gen", "near_singular", "--n", "8", "--eta", "1e-6",
                "--field", field, "--steps", steps, "--stride", stride,
                "--replicates", "8", "--seed", "7", *EMIT,
            ]
    for sampler in ("proportional", "greedy"):
        cases[f"run-{sampler}"] = [
            "run", "--gen", "gaussian", "--n", "6", "--sampler", sampler,
            "--steps", "300", "--stride", "50", "--replicates", "4", "--seed", "5", *EMIT,
        ]
    # weighted samplers stacked: the 6 proportional replicates leave the
    # projection path between steps 54 and 123, so one stack holds chains on
    # both paths, each with its kept weights; greedy on complex columns
    cases["run-proportional-projection-path"] = [
        "run", "--gen", "near_singular", "--n", "8", "--eta", "1e-10", "--sampler",
        "proportional", "--steps", "200", "--stride", "50", "--replicates", "6",
        "--seed", "7", *EMIT,
    ]
    cases["run-greedy-complex"] = [
        "run", "--gen", "gaussian", "--n", "8", "--field", "complex", "--sampler", "greedy",
        "--steps", "300", "--stride", "50", "--replicates", "6", "--seed", "5", *EMIT,
    ]
    # the proportional sampler on complex columns, over a larger weight matrix
    cases["run-proportional-complex"] = [
        "run", "--gen", "gaussian", "--n", "32", "--field", "complex", "--sampler",
        "proportional", "--steps", "400", "--stride", "100", "--replicates", "4",
        "--seed", "5", *EMIT,
    ]
    # weighted chains in the vectorized step: 8 complex proportional
    # replicates at condition estimate ~1e6 stay on the inverse path, where
    # a running bound comes due (inverse_refreshes = 1)
    cases["run-proportional-complex-refresh"] = [
        "run", "--gen", "near_singular", "--n", "8", "--eta", "1e-6", "--field", "complex",
        "--sampler", "proportional", "--steps", "400", "--stride", "100", "--replicates", "8",
        "--seed", "7", *EMIT,
    ]
    # a well-conditioned inverse path: its running drift bound never comes
    # due, so the chains make no refresh in 1,000 steps
    cases["run-gaussian-32-deferred"] = [
        "run", "--gen", "gaussian", "--n", "32", "--steps", "1000", "--stride", "250",
        "--replicates", "4", "--seed", "5", *EMIT,
    ]
    # n = 128 and 160, where the bits still depend on the BLAS thread count
    # (ROADMAP item 1): compare two trees under the same count, one by default
    for n in ("128", "160"):
        cases[f"run-gaussian-{n}"] = [
            "run", "--gen", "gaussian", "--n", n, "--steps", "256", "--stride", "64",
            "--replicates", "2", "--seed", "5", *EMIT,
        ]
    # planted distance 1e-10 keeps the condition estimate above 1e8, so
    # every step recomputes the distances by projection
    cases["run-projection-path"] = [
        "run", "--gen", "near_singular", "--n", "12", "--eta", "1e-10",
        "--steps", "100", "--stride", "25", "--replicates", "2", "--seed", "11", *EMIT,
    ]
    # the same start with enough replicates to step as one stack; they
    # leave the projection path between steps 683 and 1032, so the stack
    # runs both paths side by side
    cases["run-projection-path-stacked"] = [
        "run", "--gen", "near_singular", "--n", "12", "--eta", "1e-10",
        "--steps", "1200", "--stride", "300", "--replicates", "6", "--seed", "11", *EMIT,
    ]
    # the default stride 1 records every step: with one record per grid
    # point small enough, the 4 replicates still step as one stack
    cases["run-stride-1-stacked"] = [
        "run", "--gen", "near_singular", "--n", "8", "--eta", "1e-6",
        "--steps", "15000", "--replicates", "4", "--seed", "7", *EMIT,
    ]
    # planted distance 1e-12 at n = 4: the chain crosses to the inverse path
    # after 18 steps (projection_fallbacks = 18), so the fall rule below is
    # checked over those 18 steps only, and the other 182 run the inverse path
    cases["run-projection-path-kappa-falls"] = [
        "run", "--gen", "near_singular", "--n", "4", "--eta", "1e-12",
        "--steps", "200", "--stride", "20", "--replicates", "1", "--seed", "3", *EMIT,
    ]
    # planted distance 1e-12 at n = 6: all 200 steps on the projection path,
    # where kappa falls by more than a factor n between checkpoints: 5 of
    # its 6 refreshes come at a fall, where the checkpoints alone give 3
    cases["run-projection-path-falls-n6"] = [
        "run", "--gen", "near_singular", "--n", "6", "--eta", "1e-12",
        "--steps", "200", "--stride", "20", "--replicates", "1", "--seed", "15", *EMIT,
    ]
    # odd n: a full recompute reads the last column off its own QR, with
    # columns 5 and 6 last; every step of the 4 replicates stays on the
    # projection path (600 of 600), through 12 refreshes
    cases["run-projection-path-odd"] = [
        "run", "--gen", "near_singular", "--n", "7", "--eta", "1e-12",
        "--steps", "150", "--stride", "50", "--replicates", "4", "--seed", "2", *EMIT,
    ]
    # 3 of the 8 replicates hit a degenerate pair on the projection path:
    # above the 1% budget, so the run exits 2 after the kept trajectories
    cases["run-aborts"] = [
        "run", "--gen", "near_singular", "--n", "5", "--eta", "1e-10",
        "--steps", "120", "--stride", "40", "--replicates", "8", "--seed", "5", *EMIT,
    ]
    # a stack of one steps by stretch from checkpoint to checkpoint, grid records
    # inside: uniform (n = 8, by _move), both weighted samplers, the near-singular
    # shape on the projection path, and stride 1, a record after every step
    for field in ("real", "complex"):
        cases[f"run-one-uniform-{field}"] = [
            "run", "--gen", "gaussian", "--n", "8", "--field", field, "--steps", "300",
            "--stride", "50", "--replicates", "1", "--seed", "5", *EMIT,
        ]
    for sampler, n in (("proportional", "32"), ("greedy", "8")):
        cases[f"run-one-{sampler}"] = [
            "run", "--gen", "gaussian", "--n", n, "--sampler", sampler, "--steps", "300",
            "--stride", "50", "--replicates", "1", "--seed", "5", *EMIT,
        ]
    cases["run-one-projection-path"] = [
        "run", "--gen", "near_singular", "--n", "32", "--eta", "1e-10", "--steps", "100",
        "--stride", "100", "--replicates", "1", "--seed", "5", *EMIT,
    ]
    cases["run-one-stride-1"] = [
        "run", "--gen", "gaussian", "--n", "8", "--steps", "200", "--replicates", "1",
        "--seed", "5", *EMIT,
    ]
    # a record every 4 steps at n = 8 and after every step at n = 32: one
    # stretch per checkpoint either way, by _move between the records
    for n, stride in (("8", "4"), ("32", "1")):
        cases[f"run-one-{n}-stride-{stride}"] = [
            "run", "--gen", "gaussian", "--n", n, "--steps", "200", "--stride", stride,
            "--replicates", "1", "--seed", "5", *EMIT,
        ]
    # stacks of two and three step by stretch too: proportional chains each
    # drawing from their own generator, uniform chains by level at n = 32, and
    # projection-path chains from a planted distance 1e-10
    for sampler, n in (("proportional", "8"), ("uniform", "32")):
        cases[f"run-three-{sampler}-{n}"] = [
            "run", "--gen", "gaussian", "--n", n, "--sampler", sampler, "--steps", "300",
            "--stride", "50", "--replicates", "3", "--seed", "5", *EMIT,
        ]
    cases["run-two-projection-path"] = [
        "run", "--gen", "near_singular", "--n", "12", "--eta", "1e-10", "--steps", "300",
        "--stride", "50", "--replicates", "2", "--seed", "11", *EMIT,
    ]
    for field in ("real", "complex"):
        cases[f"cosolve-1-1-{field}"] = [
            "cosolve", "--gen", "prescribed", "--n", "8", "--sigma", SIGMA, "--field", field,
            "--interleave", "1:1", "--steps", "4000", "--seed", "9",
        ]
    # 2003 = 400 cycles of 2 orth and 3 Kaczmarz ops, then 2 orth and 1
    # Kaczmarz: the run ends mid-cycle
    cases["cosolve-2-3-partial"] = [
        "cosolve", "--gen", "prescribed", "--n", "8", "--sigma", SIGMA,
        "--interleave", "2:3", "--steps", "2003", "--seed", "9",
    ]
    cases["cosolve-0-1"] = [
        "cosolve", "--gen", "prescribed", "--n", "8", "--sigma", SIGMA,
        "--interleave", "0:1", "--steps", "2000", "--seed", "9",
    ]
    # the co-solver on the projection path
    cases["cosolve-projection-path"] = [
        "cosolve", "--gen", "near_singular", "--n", "12", "--eta", "1e-10",
        "--interleave", "1:1", "--steps", "300", "--seed", "9",
    ]
    cases["verify-all"] = ["verify", "all", "--trials", "20", "--seed", "3"]
    cases["gen-haar"] = ["gen", "--kind", "haar", "--n", "4", "--seed", "3"]
    cases["gen-near-singular"] = [
        "gen", "--gen", "near_singular", "--n", "8", "--eta", "1e-3", "--seed", "3",
    ]
    cases["gen-two-by-two-unseeded"] = ["gen", "--gen", "two_by_two_angle", "--theta", "0.3"]
    # theorem1-steps inside its stated regime (eps, delta < 0.01) and outside
    # it, where the command prints the library's warning as one stderr line
    for case, argv in (
        ("f", "f --x 0.3 --n 4"),
        ("theorem7", "theorem7 --phi0 0.2 --n 2 --t 10"),
        ("theorem7-large", "theorem7 --phi0 10 --n 2 --t 1e6"),
        ("kappa-tight", "kappa --phi 0.3 --n 4"),
        ("kappa-absent", "kappa --phi 0.6 --n 3"),
        ("kappa-overflow", "kappa --phi 800 --n 2"),
        ("stopping-tail", "stopping-tail --phi0 5 --n 4 --c 3"),
        ("prop-a0", "prop-a0 --phi0 5 --n 4 --t 16"),
        ("theorem1-steps", "theorem1-steps --phi0 5 --n 4 --eps 0.005 --delta 0.005"),
        ("theorem1-steps-outside-regime", "theorem1-steps --phi0 5 --n 4 --eps 0.05 --delta 0.05"),
        ("theorem1-steps-missing-flag", "theorem1-steps --n 4 --eps 0.005 --delta 0.005"),
    ):
        cases[f"bounds-{case}"] = ["bounds", *argv.split()]
    return cases


def _print(*lines: str) -> None:
    """Print lines; once the reader of stdout has gone, send the rest to
    devnull, so that the run goes on to its exit code without a traceback."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _delta(a: str, b: str) -> float | None:
    """|a - b| for two float fields, None for anything else (integers such
    as steps, pairs and counts, text, or a difference that is not finite)."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if not any(ch in a + b for ch in ".eEin"):  # a point, an exponent, inf or nan
        return None
    delta = 0.0 if a == b else abs(x - y)
    return delta if math.isfinite(delta) else None


def _fields(path: str) -> list[tuple[str, str]] | None:
    """(field name, value) pairs of a CSV or `key = value` file, else None.

    A CSV field is named by its column and 1-based data row.
    """
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return [(f"{header[c] if c < len(header) else c}@{r}", value)
                for r, row in enumerate(rows[1:], start=1) for c, value in enumerate(row)]
    if path.endswith(("summary.txt", "config.txt")):
        return [tuple(part.strip() for part in line.split("=", 1)) for line in text.splitlines()]
    return None


def _compare_file(path_a: str, path_b: str) -> tuple[list[str], bool]:
    """Report lines for two differing files, and whether anything was flagged."""
    fields_a, fields_b = _fields(path_a), _fields(path_b)
    if fields_a is None:
        with open(path_a) as fa, open(path_b) as fb:
            lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
        k = next((k for k, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                 min(len(lines_a), len(lines_b)))
        line_a = lines_a[k] if k < len(lines_a) else "<end>"
        line_b = lines_b[k] if k < len(lines_b) else "<end>"
        return [f"  FLAG line {k + 1}: {line_a!r} != {line_b!r}"], True
    a, b = dict(fields_a), dict(fields_b)
    deltas: dict[str, float] = {}
    flags: dict[str, list] = {}
    for name in list(a) + [name for name in b if name not in a]:
        column = name.split("@")[0]
        va, vb = a.get(name), b.get(name)
        delta = None if va is None or vb is None else _delta(va, vb)
        if delta is not None:
            deltas[column] = max(deltas.get(column, 0.0), delta)
        elif va is None or vb is None:
            flags.setdefault(column, []).append(f"{name} only in {'B' if va is None else 'A'}")
        elif va != vb:
            flags.setdefault(column, []).append(f"{name}: {va!r} != {vb!r}")
    report = [f"  {column}: max |delta| {delta:.3g}" for column, delta in deltas.items()]
    report += [f"  FLAG {column}: {len(items)} differ, first {items[0]}"
               for column, items in flags.items()]
    return report, bool(flags)


def compare(out_a: str, out_b: str) -> int:
    """Print how two golden trees differ; 1 if anything was flagged."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    files_a, files_b = files(out_a), files(out_b)
    flagged = False
    same = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            _print(rel, f"  FLAG only in {'A' if rel in files_a else 'B'}")
            flagged = True
            continue
        path_a, path_b = os.path.join(out_a, rel), os.path.join(out_b, rel)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                same += 1
                continue
        report, file_flagged = _compare_file(path_a, path_b)
        flagged |= file_flagged
        _print(rel, *report)
    _print(f"{same} of {len(files_a | files_b)} files identical")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare the output trees OUT_A and OUT_B instead")
    parser.add_argument("checkout", help="source tree whose src/ holds the pairorth package")
    parser.add_argument("out", help="directory for the outputs (created)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.checkout, args.out)

    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isfile(os.path.join(src, "pairorth", "cli.py")):
        parser.error(f"no pairorth package under {src}")
    # one BLAS thread unless the caller sets a count, so two trees compare on one
    # count wherever they run
    env = {**dict.fromkeys(BLAS_THREAD_VARS, "1"), **os.environ, "PYTHONPATH": src}
    for name, cmd in _cases().items():
        case_dir = os.path.join(args.out, name)
        os.makedirs(case_dir)
        # bounds writes no file and rejects --out
        out = [] if cmd[0] == "bounds" else ["--out", "out"]
        proc = subprocess.run(
            [sys.executable, "-m", "pairorth.cli", *cmd, *out],
            cwd=case_dir, env=env, capture_output=True, text=True,
        )
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(case_dir, f"{stream}.txt"), "w") as handle:
                handle.write(text)
        with open(os.path.join(case_dir, "exit_code.txt"), "w") as handle:
            handle.write(f"{proc.returncode}\n")
        _print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
