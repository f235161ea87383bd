"""Closed-loop timing, tracing and reporting shared by every workload.

One caller runs the jobs of a workload back to back: it builds job i from
(workload, seed, i), times only the job itself, and checks the output
after the clock stops.  A workload module provides:

- ``setup()`` -> state: warm every lazy cache the jobs would otherwise
  fill while timed;
- ``make_job(state, seed, i)``: the generated inputs of job i;
- ``run_job(state, job, span)``: the timed work; every call into an
  effdim public function sits inside ``with span("<module>.<function>")``;
- ``SPANS``: the span names run_job and check enter; a traced run fails
  if one of them never ran;
- ``DIGEST_JOBS``: how many first jobs are compared against recorded
  digests, a whole number of cycles of the workload's job schedule;
- ``check(job, out, span)`` -> error text or None, using the benchmark's
  own arithmetic wherever it can; a reference value it takes from effdim
  is computed here, untimed, inside a span of its own;
- ``canonical(job, out)`` -> the exact outputs as JSON-ready data;
- ``count(job, out, tally)``: input and output properties;
- ``trace_extras(state)`` -> per-layer values measured outside the jobs.

This module imports no effdim code, so a workload's set-up time includes
the import of the package.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

# An untraced run goes on past its deadline until this many job times lie
# above its p90.
TAIL_SAMPLES = 10
# Failures beyond this many are counted but not described on stderr.
REPORTED_FAILURES = 5
# On a shared 2-vCPU virtual machine the speed of pure-Python work drifts by
# +-25% within seconds, alike for every job run in this process.  A fixed
# stdlib Fraction loop is timed before every job, and each job's time is
# scaled to a machine on which that loop takes CALIBRATION_REF_S, using the
# loop's mean time over the calibrations within CALIBRATION_WINDOW_S of the
# job.  Raw times are printed alongside.
CALIBRATION_TERMS = 600
CALIBRATION_REF_S = 0.002
CALIBRATION_WINDOW_S = 1.0


def calibrate() -> float:
    """Seconds for a fixed Fraction loop that does not touch effdim."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def speed_scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside `samples` into reference time."""
    return CALIBRATION_REF_S / statistics.fmean(samples)


def local_scales(starts: list[float], calibration: list[float]) -> list[float]:
    """Per job, speed_scale of the calibrations within the window of its start.

    Calibration k ran just before job k, so `starts` also dates it.
    """
    prefix = list(itertools.accumulate(calibration, initial=0.0))
    scales = []
    for t in starts:
        lo = bisect.bisect_left(starts, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(starts, t + CALIBRATION_WINDOW_S)
        scales.append(CALIBRATION_REF_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return scales


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, job id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: int | None = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed duration minus the part child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            busy[name] += end - start - inner
            calls[name] += 1
        return dict(busy), calls

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.job])
        tr._stack.append(self.index)

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class NoTracer:
    """Untraced runs: every span is one reusable no-op context."""

    job: int | None = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass
class Tally:
    """Input and output properties counted by the workloads."""

    n: Counter = field(default_factory=Counter)
    denominator_bits: list[int] = field(default_factory=list)


@dataclass
class LoopResult:
    starts: list[float]
    raw_durations: list[float]
    calibration: list[float]
    failed: int
    tally: Tally

    @property
    def attempted(self) -> int:
        return len(self.raw_durations)

    @property
    def scale(self) -> float:
        """Run-wide speed factor, for the record."""
        return speed_scale(self.calibration)

    @property
    def durations(self) -> list[float]:
        """Job times in reference-machine seconds."""
        scales = local_scales(self.starts, self.calibration)
        return [d * k for d, k in zip(self.raw_durations, scales)]

    def throughput(self) -> float:
        return (self.attempted - self.failed) / sum(self.durations)


def canonical_text(value) -> str:
    """Stable JSON text of exact data: Fractions print as p/q."""

    def plain(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, dict):
            return {str(k): plain(x) for k, x in v.items()}
        if isinstance(v, (frozenset, set)):
            return sorted((plain(x) for x in v), key=json.dumps)
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return v

    return json.dumps(plain(value), sort_keys=True, separators=(",", ":"))


def digest(wl, job, out) -> str:
    return hashlib.sha256(canonical_text(wl.canonical(job, out)).encode()).hexdigest()[:16]


def run_loop(wl, state, seed: int, seconds: float, tracer, expected: list[str] | None,
             tail: bool = False) -> LoopResult:
    """Run jobs until `seconds` have passed and the digest jobs are done.

    The first wl.DIGEST_JOBS outputs are compared against the digests
    recorded at the commit that defined the benchmark, so a changed exact
    result fails the run.  With `tail`, the run also goes on until
    TAIL_SAMPLES job times lie above p90.
    """
    starts: list[float] = []
    durations: list[float] = []
    calibration: list[float] = []
    failed = 0
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.DIGEST_JOBS or time.perf_counter() < deadline or (
        tail and _above_p90(starts, durations, calibration) < TAIL_SAMPLES
    ):
        job = wl.make_job(state, seed, i)
        calibration.append(calibrate())
        tracer.job = i
        out = None
        start = time.perf_counter()
        starts.append(start)
        try:
            with tracer.span("job"):
                out = wl.run_job(state, job, tracer.span)
        except Exception:  # a job that raises is a counted failure, not a crash
            error = traceback.format_exc(limit=4)
        else:
            error = None
        durations.append(time.perf_counter() - start)
        if error is None:
            wl.count(job, out, tally)
            error = wl.check(job, out, tracer.span)
        if error is None and expected is not None and i < wl.DIGEST_JOBS:
            got = digest(wl, job, out)
            if got != expected[i]:
                error = f"exact output changed: digest {got}, recorded {expected[i]}"
        if error is not None:
            failed += 1
            if failed <= REPORTED_FAILURES:
                print(f"job {i} failed: {error}", file=sys.stderr)
        i += 1
    return LoopResult(starts, durations, calibration, failed, tally)


def _above_p90(starts, durations, calibration) -> int:
    scaled = [d * k for d, k in zip(durations, local_scales(starts, calibration))]
    return job_quantiles_ms(scaled)[2]


def job_quantiles_ms(durations: list[float]) -> tuple[float, float, int]:
    """Median, 90th percentile and the number of samples above it, in ms."""
    ms = [d * 1000 for d in durations]
    if len(ms) < 2:
        return ms[0], ms[0], 0
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return statistics.median(ms), p90, sum(1 for v in ms if v > p90)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer values a workload's trace_extras() measures outside the jobs;
# they read 0 on workloads that do not measure them.
EXTRAS = ("inverse_limits.warmup_s", "cli.interpreter_s", "cli.import_s")
# Suffixes of the metrics derived from spans.
_SPAN_SUFFIXES = ("busy_s", "run_s", "calls")


def time_metric(span_name: str) -> str:
    """The per-layer metric holding a span's self time.

    Spans under "cli." time effdim.cli.run on one argv: its run time.
    """
    return f"{span_name}.{'run_s' if span_name.startswith('cli.') else 'busy_s'}"


def layer_metrics(tracer: Tracer, tally: Tally, extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer value the traced run can report, by metric name."""
    out: dict[str, float] = {}
    busy, calls = tracer.self_times()
    for name, value in busy.items():
        out[time_metric(name)] = value
        out[f"{name}.calls"] = calls[name]
    n = tally.n
    out["covers_nerve.box_cube_pairs"] = n["box_cube_pairs"]
    out["covers_nerve.meeting_pair_ratio"] = ratio(n["meeting_pairs"], n["box_cube_pairs"])
    out["covers_nerve.faces"] = n["faces"]
    out["covers_nerve.refine_cover.exhausted_ratio"] = ratio(n["refine_exhausted"], n["refine_calls"])
    out["inverse_limits.orbit_unknown_ratio"] = ratio(n["orbit_unknown"], n["orbits"])
    out["inverse_limits.fresh_map_ratio"] = ratio(n["fresh_maps"], n["maps"])
    bits = tally.denominator_bits
    out["inverse_limits.denominator_bits_p50"] = statistics.median(bits) if bits else 0
    out["inverse_limits.denominator_bits_max"] = max(bits, default=0)
    out["cli.exit_nonzero_ratio"] = ratio(n["cli_nonzero"], n["cli_calls"])
    out.update(dict.fromkeys(EXTRAS, 0.0))
    out.update(extras)
    return out


def layer_value(values: dict[str, float], name: str) -> float:
    """A declared per-layer metric; a span only other workloads enter reads 0."""
    if name in values:
        return values[name]
    if name.rsplit(".", 1)[-1] in _SPAN_SUFFIXES:
        return 0
    raise KeyError(f"no per-layer metric named {name}")
