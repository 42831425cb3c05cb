"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_env

bench_env.require_source()

import instrument  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = bench_env.ROOT
TINY = {
    metrics.ORACLE: lambda seed, tracer: workloads.OraclePool16(seed, tracer, n_inputs=2),
    metrics.LIVE: lambda seed, tracer: workloads.LiveLeNet(seed, tracer, n_inputs=2, samples=30),
    metrics.ARCHIVE: lambda seed, tracer: workloads.ArchiveSkew0(
        seed, tracer, n_seeds=1, zv_samples=50),
}


def _run(name: str, traced: bool) -> run.Report:
    tracer = None
    if traced:
        tracer = Tracer()
        instrument.install(tracer)
    return run.run_workload(TINY[name](3, tracer), seconds=1e-3, tracer=tracer)


def test_every_per_layer_metric_has_a_target():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert list(metrics.WORKLOADS) == list(workloads.WORKLOAD_TYPES)
    assert list(metrics.MOVES) == [m.name for m in metrics.PER_LAYER]
    for targets in metrics.MOVES.values():
        for target, workload in targets:
            assert target in {e.name for e in metrics.END_TO_END}
            assert workload in metrics.WORKLOADS


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_and_tracing_changes_no_result(name):
    plain = _run(name, traced=False)
    traced = _run(name, traced=True)
    for report, catalog in ((plain, metrics.END_TO_END), (traced, metrics.PER_LAYER)):
        assert report.correct, [c for c in report.checks if not c.ok]
        line = json.loads(report.line())
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m.name for m in catalog]
        for m in catalog:
            entry = line["metrics"][m.name]
            assert entry["unit"] == m.unit
            assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), m.name
    for m in metrics.END_TO_END:
        assert plain.values[m.name] > 0, m.name
    assert [o.result for o in plain.outs] == [o.result for o in traced.outs]
    digest = workloads.result_digest(plain.outs[0].result)
    assert digest == workloads.result_digest(traced.outs[0].result)


def test_unreachable_span_is_missing_not_zero(monkeypatch):
    from resacc import kernels

    monkeypatch.delattr(kernels, "conv2d_elem")
    report = _run(metrics.ARCHIVE, traced=True)
    line = json.loads(report.line())["metrics"]
    assert line["kernels.conv2d_elem_calls"] == {"value": None, "unit": "count", "missing": True}
    assert line["kernels.share"]["missing"]
    assert line["kernels.conv2d_calls"]["value"] == 0.0


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )


def test_refuses_without_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli(tmp_path, "--workload", metrics.ARCHIVE, "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_refuses_mismatching_archive(tmp_path):
    for d in ("perfbench", "src"):
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    archive = tmp_path / "perfbench" / "data" / "skew0_archive.npz"
    archive.write_bytes(archive.read_bytes() + b"\0")
    proc = _cli(tmp_path, "--workload", metrics.ARCHIVE, "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert "sha256" in proc.stderr
    assert not proc.stdout.strip().splitlines()[-1].startswith("{")
