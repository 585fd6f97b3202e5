"""Tests of the benchmark itself, on the tiny world through the same code.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402


#: The end-to-end metrics computed from records alone; on the calls
#: workloads the dial latencies are simulated time and join them.
DETERMINISTIC = ("ok_frac", "mos_median", "msgs_per_op", "quality_frac")
DETERMINISTIC_CALLS = DETERMINISTIC + ("dial_ms_p50", "dial_ms_p95")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in bench.CLEARED_ENV:
        monkeypatch.delenv(key, raising=False)


def _run(name: str, tmp_path: Path, seed: int = 0, trace: bool = False) -> dict:
    return bench.run_benchmark(
        name, seed, 0.0, trace, sizes=workloads.TINY, out_dir=tmp_path
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    out = _run(name, tmp_path)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == bench.E2E_UNITS
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), key
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_deterministic_metrics_repeat_for_a_seed(name, tmp_path):
    first, second = _run(name, tmp_path), _run(name, tmp_path)
    keys = DETERMINISTIC_CALLS if name.startswith("calls") else DETERMINISTIC
    for key in keys:
        assert first["e2e"][key] == second["e2e"][key], key
    assert first["meta"]["digest"] == second["meta"]["digest"]


def test_stream_and_dense_records_match(tmp_path):
    stream = _run("eval-stream", tmp_path, seed=1)
    dense = _run("eval-dense", tmp_path, seed=1)
    assert stream["meta"]["digest"] == dense["meta"]["digest"]
    assert stream["result"]["correct"], stream["problems"]


@pytest.mark.parametrize("name", ("eval-dense", "calls-wire"))
def test_seed_changes_the_inputs(name, tmp_path):
    assert _run(name, tmp_path, seed=0)["meta"]["digest"] != _run(
        name, tmp_path, seed=1
    )["meta"]["digest"]


def test_percentile_is_a_sample_and_failures_read_as_the_cap():
    ms = [float(i) for i in range(200)]
    p95 = workloads.percentile(ms, 95)
    assert p95 in ms
    assert sum(1 for v in ms if v > p95) == 10
    failing = ms[:180] + [float("inf")] * 20
    assert workloads.percentile(failing, 95) == workloads.FAILED_OP_MS
    assert workloads.percentile(failing, 50) == 99.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    out = _run(name, tmp_path, trace=True)
    metrics = out["result"]["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == bench.LAYER_UNITS
    assert out["meta"]["missing_layers"] == []
    assert (tmp_path / f"{name}-seed0.layers.txt").is_file()
    spans = (tmp_path / f"{name}-seed0.spans.jsonl").read_text().splitlines()
    assert len(spans) == out["meta"]["spans"]
    assert metrics["worldarrays.closesets.build.calls"]["value"] > 0
    column_calls = metrics["storage.columns.complete.calls"]["value"]
    assert (column_calls > 0) == (name == "eval-stream")
    wire = metrics["net.codec.encode.calls"]["value"]
    assert (wire > 0) == (name == "calls-wire")
    sim = metrics["sim.engine.events"]["value"]
    assert (sim > 0) == (name == "calls-sim")


def test_tracer_restores_the_program(tmp_path):
    from repro.storage.columns import ColumnStore

    before = ColumnStore.__dict__["complete"]
    _run("eval-stream", tmp_path, trace=True)
    assert ColumnStore.__dict__["complete"] is before


def test_reference_clock_samples_the_speed_and_stops():
    import signal
    import time

    import refclock

    before = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    with clock:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.5:
            refclock.kernel()
    elapsed = clock.now()
    time.sleep(0.1)
    assert clock.now() == elapsed  # stopped outside the context
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.speeds) >= 5
    # Wall time scaled by the sampled speeds, less the time spent sampling.
    low, high = min(clock.speeds), max(clock.speeds)
    assert 0.5 * low * 0.5 <= elapsed <= 0.5 * high * 1.1


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
