"""Measurement plumbing shared by the workloads: spans, checks, summaries,
seeds, the reference kernel, set-up timing and provenance.

Nothing here imports pairorth. run.py puts the checkout's src/ first on
sys.path before it imports the modules that do, so the package measured is
always the one in the checkout and never an installed copy.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

# Reference kernels: fixed numpy work, written here and never calling
# pairorth, timed before and after every timed unit. Shared machines drift
# between speed states (the same round measured 0.36 s and 0.81 s within
# one minute on a 2-vCPU x86_64 VM, with no steal time reported), and the
# drift moves a kernel and a round alike when both do the same kind of
# work. End-to-end times are therefore reported at reference speed:
# measured seconds x REFERENCE_NOMINAL_S / kernel seconds. Neither kernel
# suits every workload: over five minutes of such drift, the interquartile
# range of 20-second medians of near-singular rounds, which are almost all
# per-column QR, was 2.5% with the projection kernel against 5.9% with the
# mixed one, while on large-n it was 3.4% with the mixed kernel against 6.2%,
# and on set-up times 16% against about 30% (perfbench/README.md).
REFERENCE_NOMINAL_S = 0.020
_REF_RNG = np.random.default_rng(20241125)
_REF_8 = _REF_RNG.standard_normal((8, 8))
_REF_32 = _REF_RNG.standard_normal((32, 32))
_REF_128 = _REF_RNG.standard_normal((128, 128))


def _kernel_mixed() -> float:
    """Interpreter loops, small LAPACK calls and n = 128 BLAS/LAPACK."""
    acc = 0.0
    for _ in range(120):
        acc += float(np.linalg.norm(np.linalg.inv(_REF_8), axis=1).sum())
        acc += float(np.linalg.qr(_REF_32[:, :31])[0][0, 0])
        acc += float(np.linalg.svd(_REF_8, compute_uv=False)[0])
        for j in range(200):
            acc += j * 0.5
    for _ in range(9):
        acc += float(np.linalg.inv(_REF_128)[0, 0])
        acc += float((_REF_128 @ _REF_128)[0, 0])
    return acc


def _kernel_projection() -> float:
    """n = 32 leave-one-out distances by one QR per column."""
    acc = 0.0
    for _ in range(11):
        for j in range(32):
            q, _ = np.linalg.qr(np.delete(_REF_32, j, axis=1))
            r = _REF_32[:, j] - q @ (q.T @ _REF_32[:, j])
            acc += float(np.linalg.norm(r - q @ (q.T @ r)))
    return acc


REFERENCE_KERNELS = {"mixed": _kernel_mixed, "projection": _kernel_projection}


def reference_seconds(kernel: str = "mixed") -> float:
    """Time one run of the named reference kernel."""
    t0 = time.perf_counter()
    acc = REFERENCE_KERNELS[kernel]()
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError(f"reference kernel {kernel} produced a non-finite value")
    return elapsed


@dataclass
class Span:
    name: str
    trace_id: str
    parent: int | None
    attrs: dict
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around calls into the package's public functions.

    Spans are opened only by the benchmark's own files; the package is
    never instrumented. Spans of one round (or one probe section) share
    a trace_id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = Span(name, self.trace_id, self._open[-1] if self._open else None, attrs)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def find(self, name: str, **match) -> list[Span]:
        """Spans with this name whose attributes include `match`."""
        return [s for s in self.spans
                if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "name": s.name, "trace_id": s.trace_id, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


class NullTracer:
    """Same interface as Tracer, records nothing: for untraced rounds."""

    trace_id = ""
    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


class Checks:
    """Named correctness checks, evaluated once per round.

    check_failures counts every failed evaluation; the report keeps one
    line per check name with its counts and the detail of its first
    failure (of its first evaluation while it has not failed).
    """

    def __init__(self):
        self.passed: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.detail: dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.passed.setdefault(name, 0)
        self.failed.setdefault(name, 0)
        first_failure = not ok and self.failed[name] == 0
        if ok:
            self.passed[name] += 1
        else:
            self.failed[name] += 1
        if detail and (first_failure or name not in self.detail):
            self.detail[name] = detail
        return ok

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    def lines(self) -> list[str]:
        out = []
        for name in self.passed:
            bad = self.failed[name]
            head = f"check {'FAIL' if bad else 'ok  '} {name} ({self.passed[name]} ok, {bad} failed)"
            out.append(head + (f": {self.detail[name]}" if name in self.detail else ""))
        return out


def summarize(samples) -> dict:
    """p50, tail and count of one timing.

    tail is the highest percentile with at least ten samples beyond it,
    100 (1 - 10 / count); the probe takes at least forty samples of each
    timing, so it is p75 or higher.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("no samples for a timing")
    q = max(0.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / arr.size))
    return {"count": int(arr.size), "p50": float(np.median(arr)), "tail_q": q,
            "tail": float(np.percentile(arr, q))}


def subseed(seed: int, k: int) -> int:
    """Independent 64-bit seed number k, split off the workload seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(k),))
    return int(ss.generate_state(1, np.uint64)[0])


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_in_fresh_process(here: str, root: str, workload: str, seed: int, tiny: bool) -> float:
    """One set-up measurement (import + instance generation) in a fresh
    interpreter, rescaled by the reference kernel timed in that interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(here, "setup_child.py"), workload, str(seed),
         "1" if tiny else "0"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, kernel = (float(x) for x in out.stdout.split())
    return seconds * REFERENCE_NOMINAL_S / kernel


def blas_threads_in_use() -> int | None:
    """Ask the OpenBLAS bundled with numpy how many threads it runs."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(src: str) -> str:
    """sha256 over the package sources, so a result names its code even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "pairorth", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(root: str, src: str, workload: str, seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads,
        "blas_threads_in_use": blas_threads_in_use(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(src),
        "machine": platform.machine(),
    }


@dataclass
class RoundLog:
    """Wall time, reference-kernel time and operation count of each round.

    refs[k] is the mean of the kernel timed just before and just after
    round k. The normalized lists rescale each round to reference speed.
    """

    walls: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)

    def add(self, wall: float, ref: float, ops: int, traced: bool) -> None:
        self.walls.append(wall)
        self.refs.append(ref)
        self.ops.append(ops)
        self.traced.append(traced)

    def wall(self, traced: bool = False) -> list[float]:
        return [w for w, t in zip(self.walls, self.traced) if t == traced]

    def wall_normalized(self, traced: bool = False) -> list[float]:
        rows = zip(self.walls, self.refs, self.traced)
        return [w * REFERENCE_NOMINAL_S / r for w, r, t in rows if t == traced]

    def rates_normalized(self) -> list[float]:
        """Operations per second at reference speed, untraced rounds only."""
        rows = zip(self.ops, self.walls, self.refs, self.traced)
        return [o * r / (w * REFERENCE_NOMINAL_S) for o, w, r, t in rows if not t]
