"""Command-line front end.

Subcommands: run (seeded ensembles with CSV + summary emission), bounds
(closed-form evaluators for scripting), verify (randomized certification
suites), gen (matrix generation to the text format), cosolve (interleaved
Kaczmarz runs). Exit codes: 0 success, 1 bad usage, config or an input
outside a bound's domain, 2 invariant violation or failed verification.

Every value a flag can set may also come from a --config file of flat
`key = value` lines; explicit flags win. Stochastic commands refuse to
run without --seed so every reported number is reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import asdict

from . import certify, io
from .bounds import (
    ConvergenceTarget,
    f_map,
    kappa_bounds_from_phi,
    prop_a0_bound,
    stopping_tail,
    theorem7_bound,
    theorem1_steps,
)
from .cosolve import run_cosolve
from .errors import DomainError, PairOrthError, UsageError
from .generators import (
    GAUSSIAN,
    HAAR,
    KINDS,
    PRESCRIBED,
    TWO_BY_TWO,
    GeneratorSpec,
    generate,
)
from .process import SAMPLER_KINDS, UNIFORM, make_rng, run_ensemble

GEN_ALIASES = {"haar": HAAR, "gaussian": GAUSSIAN, "prescribed": PRESCRIBED}
GEN_ALIASES.update({kind: kind for kind in KINDS})

# name -> (evaluator, its flags in the order they are required, the names of its
# results or None for one value); theorem1-steps checks its target's eps and delta first
BOUNDS = {
    "f": (f_map, ("x", "n"), None),
    "theorem7": (theorem7_bound, ("phi0", "n", "t"), None),
    "kappa": (kappa_bounds_from_phi, ("phi", "n"), ("lower", "upper_loose", "upper_tight")),
    "stopping-tail": (stopping_tail, ("phi0", "n", "c"), ("threshold_steps", "tail_prob")),
    "prop-a0": (prop_a0_bound, ("phi0", "n", "t"), None),
    "theorem1-steps": (
        lambda eps, delta, phi0, n: theorem1_steps(phi0, n, ConvergenceTarget(eps, delta)),
        ("eps", "delta", "phi0", "n"), None),
}
BOUND_FLAGS = {"x": float, "n": int, "phi0": float, "phi": float, "t": float, "c": int,
               "eps": float, "delta": float}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this CLI reserves 2 for
    # verification/invariant failures and uses 1 for usage errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _config_casts(parser: argparse.ArgumentParser) -> dict:
    """Config key -> cast for every flag of one subcommand but --config."""
    return {
        action.dest: action.type or str
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill argparse values that were left at None from the config file."""
    if getattr(args, "config", None) is None:
        return args
    with open(args.config) as handle:
        values = io.parse_config(handle.read())
    for key, raw in values.items():
        if key not in args.config_casts:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            try:
                setattr(args, key, args.config_casts[key](raw))
            except ValueError as exc:
                raise UsageError(f"invalid value {raw!r} for config key {key!r}") from exc
    return args


def _require(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise UsageError(f"missing required value {name!r} (flag --{name.replace('_', '-')} or config)")
    return value


def _sigma_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _interleave(text: str):
    p, sep, q = text.partition(":")
    if not sep:
        raise UsageError(f"interleave must be p:q, got {text!r}")
    return (int(p), int(q))


def _generator_spec(args) -> GeneratorSpec:
    kind = GEN_ALIASES.get(_require(args, "gen"))
    if kind is None:
        raise UsageError(f"unknown generator {args.gen!r}; expected one of {sorted(GEN_ALIASES)}")
    n = args.n if args.n is not None else (2 if kind == TWO_BY_TWO else None)
    if n is None:
        raise UsageError("missing required value 'n'")
    return GeneratorSpec(
        kind,
        n=n,
        field=args.field or "real",
        seed=args.seed,
        sigma=args.sigma,
        theta=args.theta,
        eta=args.eta,
    )


def _add_generator_flags(sub):
    sub.add_argument("--gen", help=f"generator kind, one of {sorted(GEN_ALIASES)}")
    sub.add_argument("--n", type=int, help="matrix dimension")
    sub.add_argument("--theta", type=float, help="column angle for two_by_two_angle")
    sub.add_argument("--eta", type=float, help="planted distance for near_singular")
    sub.add_argument("--sigma", type=_sigma_list, help="comma-separated spectrum for prescribed")
    sub.add_argument("--field", choices=("real", "complex"), help="scalar field (default real)")


def _cmd_run(args) -> int:
    _require(args, "seed")
    out_dir = args.out or "."
    steps = _require(args, "steps")
    replicates = _require(args, "replicates")
    stride = 1 if args.stride is None else args.stride
    sampler = args.sampler or UNIFORM
    if sampler not in SAMPLER_KINDS:
        raise UsageError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_KINDS}")
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    if replicates < 1:
        raise UsageError(f"replicates must be >= 1, got {replicates}")
    if stride < 1:
        raise UsageError(f"--stride must be >= 1, got {stride}")
    emit = set(("ensemble,summary" if args.emit is None else args.emit).split(","))
    unknown = emit - {"trajectory", "ensemble", "summary"}
    if unknown:
        raise UsageError(
            f"unknown emit targets {sorted(unknown)}; expected a comma subset of "
            "trajectory,ensemble,summary"
        )

    spec = _generator_spec(args)
    A0, achieved = generate(spec)
    os.makedirs(out_dir, exist_ok=True)

    sink = None
    if "trajectory" in emit:
        def sink(r, traj):
            io.atomic_write_text(
                os.path.join(out_dir, f"trajectory_r{r}.csv"), io.trajectory_to_csv(traj)
            )

    stats = run_ensemble(
        A0,
        steps=steps,
        kind=sampler,
        replicates=replicates,
        base_seed=args.seed,
        metrics_stride=stride,
        trajectory_sink=sink,
    )

    if "ensemble" in emit:
        io.atomic_write_text(os.path.join(out_dir, "ensemble.csv"), io.ensemble_to_csv(stats))

    resolved = {
        "gen": spec.kind,
        "n": spec.n,
        "field": spec.field,
        "sampler": sampler,
        "steps": steps,
        "replicates": replicates,
        "stride": stride,
        "seed": args.seed,
    }
    for key in ("theta", "eta", "sigma"):
        if getattr(spec, key) is not None:
            resolved[key] = getattr(spec, key)
    io.atomic_write_text(os.path.join(out_dir, "config.txt"), io.emit_config(resolved))

    if "summary" in emit:
        observed = [ts for ts in stats.t_stars if ts is not None]
        summary = {
            "n": spec.n,
            "field": spec.field,
            "sampler": sampler,
            "steps": steps,
            "replicates": stats.replicates,
            "stride": stride,
            "base_seed": args.seed,
            "phi0": stats.phi0,
            "kappa0": achieved.kappa,
            "t_star_crossed": len(observed),
            "t_star_min": min(observed) if observed else "",
            "t_star_max": max(observed) if observed else "",
            "t_star_mean": sum(observed) / len(observed) if observed else "",
            "final_mean_phi": stats.mean_phi[-1],
            "final_mean_log_kappa": stats.mean_log_kappa[-1],
            "exceed_count": int(stats.exceed.sum()),
            "aborts": stats.aborts,
            "monotonicity_violations": stats.monotonicity_violations,
            **asdict(stats.kernel),
        }
        io.atomic_write_text(os.path.join(out_dir, "summary.txt"), io.emit_config(summary))

    # Per-step phi rises are expected behavior of the process (the kept
    # column's distance can shrink); they are reported in the summary, not
    # treated as failures. Degenerate-pair aborts above the 1% budget have
    # already raised by this point and exit with 2.
    return 0


def _cmd_bounds(args) -> int:
    evaluate, flags, labels = BOUNDS[args.name]
    result = evaluate(*(_require(args, flag) for flag in flags))
    if labels is None:
        print(io._format_value(result))
    else:
        values = {label: "absent" if v is None else v for label, v in zip(labels, result)}
        print(io.emit_config(values), end="")
    return 0


def _cmd_verify(args) -> int:
    suites = list(certify.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for suite in suites:
        result = certify.run_suite(suite, args.trials, _require(args, "seed"))
        status = "pass" if result.ok else "FAIL"
        print(
            f"{suite}: {status} {result.passes}/{result.trials} "
            f"worst margin = {io.format_float(result.worst_margin)}"
        )
        if not result.ok:
            all_ok = False
            out_dir = args.out or "."
            os.makedirs(out_dir, exist_ok=True)
            for k, (trial_seed, A) in enumerate(result.failures[:10]):
                path = os.path.join(out_dir, f"verify-failure-{suite}-{k}.txt")
                io.atomic_write_text(
                    path, f"# suite {suite} seed {trial_seed}\n" + io.matrix_to_text(A))
                print(f"  failing instance written to {path}", file=sys.stderr)
    return 0 if all_ok else 2


def _cmd_gen(args) -> int:
    # GeneratorSpec itself rejects random kinds without a seed
    spec = _generator_spec(args)
    A, achieved = generate(spec)
    io.save_matrix(_require(args, "out"), A)
    print(f"phi = {io.format_float(achieved.phi)}")
    print(f"kappa = {io.format_float(achieved.kappa)}")
    return 0


def _cmd_cosolve(args) -> int:
    _require(args, "seed")
    out_dir = args.out or "."
    steps = _require(args, "steps")
    interleave = args.interleave or (1, 1)
    spec = _generator_spec(args)
    A0, achieved = generate(spec)

    rng = make_rng(args.seed ^ 0xC05)
    x_true = rng.standard_normal(A0.n)
    if A0.field == "complex":
        x_true = x_true + 1j * rng.standard_normal(A0.n)

    history, final = run_cosolve(A0, x_true, interleave=interleave, steps=steps, seed=args.seed)
    os.makedirs(out_dir, exist_ok=True)
    io.atomic_write_text(os.path.join(out_dir, "cosolve.csv"), io.cosolve_to_csv(history))
    io.atomic_write_text(
        os.path.join(out_dir, "cosolve_summary.txt"),
        io.emit_config({
            "n": A0.n,
            "field": A0.field,
            "interleave": f"{interleave[0]}:{interleave[1]}",
            "steps": steps,
            "seed": args.seed,
            "kappa0": achieved.kappa,
            "phi0": achieved.phi,
            "final_err": final.error(),
            "final_phi": history.phi[-1] if len(history) else achieved.phi,
            "final_residual": final.residual(),
            **asdict(final.kernel),
        }),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pairorth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded ensemble and emit CSV + summary")
    _add_generator_flags(run_p)
    run_p.add_argument("--sampler", help=f"pair sampler, one of {SAMPLER_KINDS}")
    run_p.add_argument("--steps", type=int)
    run_p.add_argument("--replicates", type=int)
    run_p.add_argument("--stride", type=int, help="snapshot stride (default 1)")
    run_p.add_argument("--emit", help="comma subset of trajectory,ensemble,summary")
    run_p.set_defaults(func=_cmd_run)

    bounds_p = sub.add_parser("bounds", help="evaluate one closed-form bound")
    bounds_p.add_argument("name", choices=BOUNDS)
    for flag, cast in BOUND_FLAGS.items():
        bounds_p.add_argument(f"--{flag}", type=cast)
    bounds_p.set_defaults(func=_cmd_bounds)

    verify_p = sub.add_parser("verify", help="run a randomized certification suite")
    verify_p.add_argument("suite", choices=certify.SUITES + ("all",))
    verify_p.add_argument("--trials", type=int, help="instance count (suite default otherwise)")
    verify_p.set_defaults(func=_cmd_verify)

    gen_p = sub.add_parser("gen", help="generate a matrix to the text format")
    _add_generator_flags(gen_p)
    gen_p.add_argument("--kind", dest="gen", help="alias for --gen")
    gen_p.set_defaults(func=_cmd_gen)

    cosolve_p = sub.add_parser("cosolve", help="interleaved Kaczmarz + orthogonalization run")
    _add_generator_flags(cosolve_p)
    cosolve_p.add_argument("--interleave", type=_interleave, help="orth:kaczmarz ratio, e.g. 1:1")
    cosolve_p.add_argument("--steps", type=int)
    cosolve_p.set_defaults(func=_cmd_cosolve)

    for sub_p, out_help in ((run_p, "output directory"), (verify_p, "directory for failure dumps"),
                            (gen_p, "output file"), (cosolve_p, "output directory")):
        sub_p.add_argument("--seed", type=int, help="base seed (required for random work)")
        sub_p.add_argument("--out", help=out_help)
        sub_p.add_argument("--config", help="key = value config file; flags override")
        sub_p.set_defaults(config_casts=_config_casts(sub_p))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _merge_config(parser.parse_args(argv))
            return args.func(args)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except (UsageError, DomainError, OSError) as exc:
            print(f"pairorth: error: {exc}", file=sys.stderr)
            return 1
        except PairOrthError as exc:
            print(f"pairorth: {exc}", file=sys.stderr)
            return 2
        finally:
            for warning in caught:
                print(f"pairorth: warning: {warning.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
