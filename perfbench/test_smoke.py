"""Smoke test of the benchmark itself, at one second per run.

    python3 -m pytest perfbench/test_smoke.py -q

Kept out of the tier-1 suite (pytest collects only tests/ by default);
it takes a few minutes, since every run still completes its digest jobs
and an untraced run the jobs its p90 needs.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = str(HERE / "run.py")

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import harness  # noqa: E402
import run  # noqa: E402


def _run(*args: str, cwd: Path = ROOT, run_py: str = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, run_py, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def _copy(tmp_path: Path, with_sources: bool = True) -> Path:
    """BENCHMARK.json and perfbench/ in tmp_path, with src/ linked in."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path / "perfbench"


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        spans = importlib.import_module(run.WORKLOADS[workload]).SPANS
        for name in spans:
            assert values[f"{name}.calls"] > 0 and values[harness.time_metric(name)] > 0, name


def test_a_corrupted_digest_counts_as_a_failure(tmp_path):
    bench = _copy(tmp_path)
    path = bench / "digests.json"
    digests = json.loads(path.read_text())
    first = digests["nerve"]["1"][0]
    digests["nerve"]["1"][0] = ("0" if first[0] != "0" else "1") + first[1:]
    path.write_text(json.dumps(digests))
    proc = _run("--workload", "nerve", "--seed", "1", "--seconds", "1", cwd=tmp_path, run_py=str(bench / "run.py"))
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "exact output changed" in proc.stderr


def test_a_span_that_never_runs_fails_the_traced_run(tmp_path):
    bench = _copy(tmp_path)
    path = bench / "wl_kappa.py"
    source = path.read_text()
    assert 'span("covers_nerve.kappa_map")' in source
    path.write_text(source.replace('span("covers_nerve.kappa_map")', 'span("covers_nerve.kappa_map_")'))
    proc = _run("--workload", "kappa", "--seconds", "1", "--trace", "1", cwd=tmp_path, run_py=str(bench / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "covers_nerve.kappa_map never ran" in proc.stderr


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    bench = _copy(tmp_path, with_sources=False)
    proc = _run("--workload", "nerve", cwd=tmp_path, run_py=str(bench / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
