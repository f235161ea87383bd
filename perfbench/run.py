"""effdim benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py                      # every workload, default seed
    python3 perfbench/run.py --workload nerve --seed 3 --seconds 20 --trace 0

One workload runs in this process, which nothing else has warmed.  With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` it runs the
job sequence untraced for half the time and traced for the other half and
reports the ``per_layer`` metrics.  With ``--workload all`` each workload
runs in a child process of its own, one after another.  A failed output
check or a changed exact result makes the exit status nonzero.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "nerve": "wl_nerve",
    "kappa": "wl_kappa",
    "inverse-limit": "wl_inverse_limit",
    "cli": "wl_cli",
}
DEFAULT_SEED = 1
# Reserved for confirming a claimed gain; never used while writing a change.
HELD_OUT_SEED = 7919
# set-up is timed this many times per run, each in a fresh interpreter
SETUP_RUNS = 3
SETUP_CALIBRATIONS = 50
CHILD_TIMEOUT_S = 170
OUT_DIR = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _timed_setup(workload: str):
    """Import effdim through the workload module and warm its caches.

    Returns the module, its state and the set-up time in reference seconds.
    """
    before = [harness.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    wl = importlib.import_module(WORKLOADS[workload])
    state = wl.setup()
    elapsed = time.perf_counter() - start
    after = [harness.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return wl, state, elapsed * harness.speed_scale(before + after)


def _probe_setup(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _expected_digests(workload: str, seed: int) -> list[str] | None:
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload, {}).get(str(seed))


def _emit(spec: list[dict], values: dict[str, float], attempted: int, failed: int) -> None:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def run_workload(args, bench: dict) -> int:
    expected = _expected_digests(args.workload, args.seed)
    setups = [] if args.trace else [_probe_setup(args.workload) for _ in range(SETUP_RUNS - 1)]
    wl, state, own_setup = _timed_setup(args.workload)
    setups.append(own_setup)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "digests_checked": expected is not None,
    }
    if not args.trace:
        res = harness.run_loop(wl, state, args.seed, args.seconds, harness.NoTracer(), expected, tail=True)
        attempted, failed = res.attempted, res.failed
        p50, p90, above = harness.job_quantiles_ms(res.durations)
        values = {
            "throughput_jobs_per_s": res.throughput(),
            "job_p50_ms": p50,
            "job_p90_ms": p90,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw_p50, raw_p90, _ = harness.job_quantiles_ms(res.raw_durations)
        meta.update(
            speed_scale=res.scale,
            raw_job_p50_ms=raw_p50,
            raw_job_p90_ms=raw_p90,
            jobs=res.attempted,
            samples_above_p90=above,
            setup_runs_s=setups,
            properties=dict(res.tally.n),
        )
        spec, spans = bench["end_to_end"], None
    else:
        extras = wl.trace_extras(state)
        plain = harness.run_loop(wl, state, args.seed, args.seconds / 2, harness.NoTracer(), expected)
        tracer = harness.Tracer()
        res = harness.run_loop(wl, state, args.seed, args.seconds / 2, tracer, expected)
        attempted, failed = res.attempted + plain.attempted, res.failed + plain.failed
        extras["trace.overhead_ratio"] = harness.ratio(res.throughput(), plain.throughput())
        layers = harness.layer_metrics(tracer, res.tally, extras)
        declared = {m["name"] for m in bench["per_layer"]}
        for name in wl.SPANS:
            if harness.time_metric(name) not in declared:
                _fail(f"span {name} has no per-layer metric in BENCHMARK.json")
            if not layers.get(f"{name}.calls"):
                _fail(f"span {name} never ran on {args.workload}")
        try:
            values = {m["name"]: harness.layer_value(layers, m["name"]) for m in bench["per_layer"]}
        except KeyError as exc:
            _fail(str(exc))
        meta.update(jobs=res.attempted, untraced_jobs=plain.attempted, properties=dict(res.tally.n))
        spec, spans = bench["per_layer"], tracer.records()
    meta["fail_ratio"] = harness.ratio(failed, attempted)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "values": values, "spans": spans}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print("meta " + json.dumps(meta))
    print(f"fail_ratio = {meta['fail_ratio']:.6g} ratio ({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"job latency samples: {attempted}, above p90: {meta['samples_above_p90']}")
    _emit(spec, values, attempted, failed)
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    results = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("meta ")))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode or (lines == [])
    print(json.dumps(results))
    return int(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "effdim" / "__init__.py").is_file():
        _fail(f"no effdim sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        print(json.dumps({"setup_s": _timed_setup(args.setup_probe)[2]}))
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
