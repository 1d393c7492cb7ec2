"""Golden outputs of the pairorth command line, for byte-for-byte diffs.

Usage: python tools/golden.py CHECKOUT OUT

Runs a fixed list of `pairorth` commands against the package in
CHECKOUT/src. Each command gets its own directory OUT/<case>/: the files it
writes go to OUT/<case>/out/, and its stdout, stderr and exit code go to
stdout.txt, stderr.txt and exit_code.txt. Commands run with OUT/<case> as
their working directory and name their outputs by relative path, so no
absolute path reaches the outputs. Run it once per checkout; when two
checkouts behave the same, `diff -r OUT_A OUT_B` prints nothing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

SIGMA = "1,0.6,0.3,0.1,0.05,0.01,0.005,0.001"
EMIT = ["--emit", "trajectory,ensemble,summary"]


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
    # planted distance 1e-10 keeps the condition estimate above 1e8, so
    # every step recomputes the distances by projection
    cases["run-projection-path"] = [
        "run", "--gen", "near_singular", "--n", "12", "--eta", "1e-10",
        "--steps", "100", "--stride", "25", "--replicates", "2", "--seed", "11", *EMIT,
    ]
    for field in ("real", "complex"):
        cases[f"cosolve-1-1-{field}"] = [
            "cosolve", "--gen", "prescribed", "--n", "8", "--sigma", SIGMA, "--field", field,
            "--interleave", "1:1", "--steps", "4000", "--seed", "9",
        ]
    cases["cosolve-0-1"] = [
        "cosolve", "--gen", "prescribed", "--n", "8", "--sigma", SIGMA,
        "--interleave", "0:1", "--steps", "2000", "--seed", "9",
    ]
    cases["verify-all"] = ["verify", "all", "--trials", "20", "--seed", "3"]
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="source tree whose src/ holds the pairorth package")
    parser.add_argument("out", help="directory for the outputs (created)")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isfile(os.path.join(src, "pairorth", "cli.py")):
        parser.error(f"no pairorth package under {src}")
    env = dict(os.environ, PYTHONPATH=src)
    for name, cmd in _cases().items():
        case_dir = os.path.join(args.out, name)
        os.makedirs(case_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "pairorth.cli", *cmd, "--out", "out"],
            cwd=case_dir, env=env, capture_output=True, text=True,
        )
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(case_dir, f"{stream}.txt"), "w") as handle:
                handle.write(text)
        with open(os.path.join(case_dir, "exit_code.txt"), "w") as handle:
            handle.write(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
