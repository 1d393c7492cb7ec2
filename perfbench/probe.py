"""Per-layer numbers for a traced run.

The package is never instrumented: every span is opened here or in
workloads.py, around one call into a public function. After the timed
rounds, the layer probe calls each layer's public functions on the
workload's own instance, so every workload reports every layer metric:

- chains: `run_ensemble` and then `run_chain` for the same replicates
  (process.step, process.aggregate), complex chains, and the CSV writer;
- replay: a uniform chain recorded by `run_chain`, replayed state by
  state through `sample_pair`, `orth_step`, `potential_phi`, `snapshot`,
  `theorem7_bound`, `orth_with_rhs`, `kaczmarz_step` and the oracle;
- the certification suites at small trial counts, unless the timed rounds
  already ran them (verify-all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from harness import Tracer, median, subseed, summarize
from pairorth import (
    build_unit_column_matrix, certify, derive_replicate_seed, exact_one_step_expectation,
    generate, initial_state, io, kaczmarz_step, make_rng, orth_step, orth_with_rhs,
    potential_phi, run_chain, run_ensemble, sample_pair, snapshot, theorem7_bound,
)
from pairorth import tolerances as tol
from pairorth.errors import PairOrthError
from pairorth.generators import GAUSSIAN, GeneratorSpec
from pairorth.process import PROPORTIONAL, UNIFORM

# Trial counts for the suites when the workload itself does not run them.
PROBE_CERTIFY_TRIALS = {
    "lemma3": 20,
    "lemma10": 20,
    "onestep": 5,
    "eq9": 20,
    "hadamard": 20,
    "kappa-sandwich": 20,
    "tstar-tail": 1,
}
# Forty samples put the tail (ten samples beyond it) at p75 or higher.
MIN_SAMPLES = 40
# The oracle enumerates all pairs and is limited to n <= 8.
ORACLE_MAX_N = 8

# Every span the probe opens carries this attribute. The timings below are
# taken from those spans only, so each has fixed inputs and a fixed sample
# count, whatever the number of rounds the timed section fitted in.
PROBE = {"role": "probe"}

# metric stem -> (span name, attribute filter); samples in microseconds, and
# a run_chain sample is the call's wall time divided by its steps
TIMINGS = {
    "process.step.real.us": ("process.run_chain", {"field": "real"}),
    "process.step.complex.us": ("process.run_chain", {"field": "complex"}),
    "process.sample_pair.uniform.us": ("process.sample_pair", {"kind": "uniform"}),
    "process.sample_pair.proportional.us": ("process.sample_pair", {"kind": "proportional"}),
    "matrix.orth_step.us": ("matrix.orth_step", {}),
    "metrics.potential_phi.us": ("metrics.potential_phi", {}),
    "metrics.snapshot.us": ("metrics.snapshot", {}),
    "cosolve.orth_with_rhs.us": ("cosolve.orth_with_rhs", {}),
    "cosolve.kaczmarz_step.us": ("cosolve.kaczmarz_step", {}),
    "oracle.exact_one_step_expectation.us": ("oracle.exact_one_step_expectation", {}),
    "bounds.theorem7_bound.us": ("bounds.theorem7_bound", {}),
    "generators.generate.us": ("generators.generate", {}),
    "io.ensemble_to_csv.us": ("io.ensemble_to_csv", {}),
}


@dataclass
class ProbePlan:
    A: object  # real ColumnMatrix: the replayed chain and the ensemble
    A_complex: object | None  # complex instance; None casts A to complex
    gen_specs: list  # generator specs whose generation is timed
    x_true: np.ndarray  # co-solve solution for the replayed states
    seed: int
    replay_steps: int
    chain_steps: int
    stride: int
    chains: int = MIN_SAMPLES
    certify_trials: dict | None = field(default_factory=lambda: dict(PROBE_CERTIFY_TRIALS))


@dataclass
class ProbeResult:
    aggregate_s: float = 0.0
    fallback_share: float = 0.0
    phi_drift_max: float = 0.0


def _fallback(arr: np.ndarray, kappa_limit: float) -> bool:
    """Whether the auto distance method falls back to projection on arr:
    a failed inverse, or sqrt(n) * ||A^-1||_F above the limit."""
    try:
        inv = np.linalg.inv(arr)
    except np.linalg.LinAlgError:
        return True
    row_norms = np.linalg.norm(inv, axis=1)
    if not np.all(np.isfinite(row_norms)) or np.any(row_norms == 0.0):
        return True
    return math.sqrt(arr.shape[0]) * float(np.linalg.norm(inv)) > kappa_limit


def tail_suite_seed(seed: int, k: int) -> tuple[int, list[int]]:
    """Seed for the tstar-tail suite, and the candidates skipped to reach it.

    The suite first searches a grid of planted distances for an n = 4
    instance with phi in [4, 6]; for about 2% of seeds the grid misses that
    window and the suite raises (a limitation of certify.find_tail_instance,
    reported with every skipped candidate). A seed without such an instance
    is not a valid input, so candidates are tried in a fixed order.
    """
    skipped = []
    for attempt in range(20):
        candidate = subseed(seed, k + 1000 * attempt)
        try:
            certify.find_tail_instance(candidate, n=4)
        except PairOrthError:
            skipped.append(candidate)
            continue
        return candidate, skipped
    raise PairOrthError(f"no tstar-tail instance from 20 candidate seeds of {seed}")


def run_probe(plan: ProbePlan, tracer: Tracer) -> ProbeResult:
    result = ProbeResult()
    A, n = plan.A, plan.A.n

    def span(name: str, **attrs):
        return tracer.span(name, **PROBE, **attrs)

    tracer.trace_id = "probe.generate"
    for k in range(MIN_SAMPLES):
        spec = plan.gen_specs[k % len(plan.gen_specs)]
        with span("generators.generate", kind=spec.kind, n=spec.n, field=spec.field):
            generate(spec)

    tracer.trace_id = "probe.chains"
    base = subseed(plan.seed, 30)
    steps, stride, chains = plan.chain_steps, plan.stride, plan.chains

    def time_ensemble():
        with span("process.run_ensemble", field=A.field, steps=steps) as sp:
            stats = run_ensemble(A, steps, UNIFORM, chains, base, stride)
        return sp.seconds, stats

    def time_chains() -> float:
        total = 0.0
        for r in range(chains):
            with span("process.run_chain", field="real", n=n, steps=steps) as sp:
                run_chain(A, steps, UNIFORM, derive_replicate_seed(base, r), stride)
            total += sp.seconds
        return total

    # A difference of two long timings: the order ensemble, chains, chains,
    # ensemble cancels a linear drift of machine speed across the four.
    ens1, stats = time_ensemble()
    chains1, chains2 = time_chains(), time_chains()
    ens2, _ = time_ensemble()
    result.aggregate_s = (ens1 + ens2 - chains1 - chains2) / 2
    for _ in range(MIN_SAMPLES):
        with span("io.ensemble_to_csv") as sp:
            sp.attrs["bytes"] = len(io.ensemble_to_csv(stats))
    A_c = plan.A_complex
    if A_c is None:
        A_c = build_unit_column_matrix(A.array.astype(np.complex128))
    for r in range(chains):
        with span("process.run_chain", field="complex", n=n, steps=steps):
            run_chain(A_c, steps, UNIFORM, derive_replicate_seed(base, r), stride)

    tracer.trace_id = "probe.replay"
    chain_seed = subseed(plan.seed, 31)
    recorded = run_chain(A, plan.replay_steps, UNIFORM, chain_seed, plan.replay_steps).phi
    rng_uniform, rng_prop = make_rng(chain_seed), make_rng(subseed(plan.seed, 32))
    rng_rows = make_rng(subseed(plan.seed, 33))
    oracle_every = max(1, plan.replay_steps // 100)
    state = initial_state(A, plan.x_true)
    phi0 = float(recorded[0])
    cur = A
    fallbacks = int(_fallback(cur.array, tol.DISTANCE_FALLBACK_KAPPA))
    for t in range(1, plan.replay_steps + 1):
        with span("process.sample_pair", kind=UNIFORM):
            pair = sample_pair(cur, UNIFORM, rng_uniform)
        with span("process.sample_pair", kind=PROPORTIONAL):
            sample_pair(cur, PROPORTIONAL, rng_prop)
        with span("matrix.orth_step"):
            cur = orth_step(cur, pair)
        with span("metrics.potential_phi"):
            phi = potential_phi(cur)
        result.phi_drift_max = max(result.phi_drift_max, abs(phi - float(recorded[t])))
        with span("metrics.snapshot"):
            snapshot(cur)
        fallbacks += _fallback(cur.array, tol.DISTANCE_FALLBACK_KAPPA)
        with span("bounds.theorem7_bound"):
            theorem7_bound(phi0, n, t)
        with span("cosolve.orth_with_rhs"):
            state = orth_with_rhs(state, pair)
        row = int(rng_rows.integers(n))
        with span("cosolve.kaczmarz_step"):
            state = kaczmarz_step(state, row)
        if n <= ORACLE_MAX_N and t % oracle_every == 0:
            with span("oracle.exact_one_step_expectation", n=n):
                exact_one_step_expectation(cur)
    result.fallback_share = fallbacks / (plan.replay_steps + 1)

    if n > ORACLE_MAX_N:
        tracer.trace_id = "probe.oracle"
        for k in range(MIN_SAMPLES):
            B, _ = generate(GeneratorSpec(GAUSSIAN, n=ORACLE_MAX_N, seed=subseed(plan.seed, 40 + k)))
            with span("oracle.exact_one_step_expectation", n=ORACLE_MAX_N):
                exact_one_step_expectation(B)

    if plan.certify_trials is not None:
        tracer.trace_id = "probe.certify"
        for k, suite in enumerate(certify.SUITES):
            trials = plan.certify_trials[suite]
            if suite == "tstar-tail":
                suite_seed, _ = tail_suite_seed(plan.seed, 50 + k)
            else:
                suite_seed = subseed(plan.seed, 50 + k)
            with span("certify.run_suite", suite=suite, trials=trials):
                certify.run_suite(suite, trials, suite_seed)
    return result


def per_layer_metrics(tracer: Tracer, probe: ProbeResult, overhead_s: float):
    """({name: (value, unit)} for every per-layer metric, {name: note})."""
    out, notes = {}, {}
    for stem, (name, match) in TIMINGS.items():
        spans = tracer.find(name, **PROBE, **match)
        summary = summarize([s.seconds * 1e6 / s.attrs.get("steps", 1) for s in spans])
        out[f"{stem}.p50"] = (summary["p50"], "us")
        out[f"{stem}.tail"] = (summary["tail"], "us")
        notes[f"{stem}.p50"] = f"{summary['count']} samples"
        notes[f"{stem}.tail"] = f"p{summary['tail_q']:.4g} of {summary['count']} samples"
    out["process.aggregate.s"] = (probe.aggregate_s, "s")
    out["metrics.fallback_share"] = (probe.fallback_share, "ratio")
    out["metrics.phi_drift_max"] = (probe.phi_drift_max, "nats")
    for suite in certify.SUITES:
        suite_s = [s.seconds for s in tracer.find("certify.run_suite", suite=suite)]
        out[f"certify.{suite}.s"] = (median(suite_s), "s")
    csv_bytes = [s.attrs["bytes"] for s in tracer.find("io.ensemble_to_csv", **PROBE)]
    out["io.csv_bytes"] = (median(csv_bytes), "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out, notes
