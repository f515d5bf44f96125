"""Quick checks of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file is named so that a bare ``pytest`` from the repository root
does not collect it; name it on the command line to run it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


# -- the percentile rule --------------------------------------------------------------
@pytest.mark.parametrize(
    "n, level",
    [
        (9, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_level_needs_ten_samples_beyond(n, level):
    assert common.tail_level(n) == level
    if level is not None:
        assert common.beyond(n, level) >= common.MIN_BEYOND


def test_tail_level_respects_cap():
    assert common.tail_level(100_000, cap=90.0) == 90.0


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert common.percentile(values, 50.0) == 50
    assert common.percentile(values, 90.0) == 90
    assert common.percentile(values, 99.0) == 99
    assert common.percentile([7.0], 99.9) == 7.0
    # 100 samples: exactly ten lie beyond the 90th percentile.
    assert sum(v > common.percentile(values, 90.0) for v in values) == 10


def test_timing_reports_the_supported_tail():
    summary = common.timing([float(v) for v in range(1, 1001)], cap=99.0)
    assert summary == {"n": 1000, "p50": 500.5, "tail_q": 99.0, "tail": 990.0}


# -- host-speed scaling -----------------------------------------------------------------
def test_host_speed_scales_by_the_median_probe(monkeypatch):
    ref = common.PROBE_REF_MS
    # Half speed, then full speed twice, then one disturbed probe.
    probes = iter([2.0 * ref, ref, ref, 10.0 * ref])
    monkeypatch.setattr(common, "probe_ms", lambda: next(probes))
    host = common.HostSpeed()
    assert host.scale() == pytest.approx(0.5)
    for _ in range(3):
        host.probe()
    # Median of 2, 1, 1, 10 reference probes: 1.5.
    assert host.scale() == pytest.approx(1.0 / 1.5)
    assert host.spent >= 0.0


def test_host_speed_scales_each_stretch_by_its_own_probes(monkeypatch):
    ref = common.PROBE_REF_MS
    probes = iter([ref, 3.0 * ref, ref])
    monkeypatch.setattr(common, "probe_ms", lambda: next(probes))
    host = common.HostSpeed()
    host.probe()
    host.probe()
    assert host.each([1.0, 1.0]) == [pytest.approx(0.5), pytest.approx(0.5)]


def test_probe_is_a_positive_time():
    assert 0.0 < common.probe_ms() < 1000.0


# -- self-time arithmetic ---------------------------------------------------------------
def _span(name, start, end, parent=None):
    span = Span(name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    root = _span("gateway.flush", 0.0, 10.0)
    a = _span("ledger.commit", 1.0, 3.0, root)
    b = _span("ledger.commit", 2.0, 5.0, root)  # overlaps a
    c = _span("session.downgrade_batch", 8.0, 12.0, root)  # runs past its parent
    grand = _span("obs.record", 8.5, 9.0, c)
    own = tracing.self_times([root, a, b, c, grand])
    assert own[root] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[a] == pytest.approx(2.0)
    assert own[c] == pytest.approx(4.0 - 0.5)
    assert own[grand] == pytest.approx(0.5)


def test_self_time_table_is_per_module_per_second():
    root = _span("gateway.flush", 0.0, 2.0)
    child = _span("ledger.commit", 0.5, 1.5, root)
    waiting = _span("gateway.downgrade", 0.0, 2.0)
    table = tracing.self_time_table([root, child, waiting], seconds=2.0)
    assert table == {"gateway": pytest.approx(500.0), "ledger": pytest.approx(500.0)}


def test_queue_wait_and_resolve_from_spans():
    d = _span("gateway.downgrade", 1.0, 6.0)
    early = _span("gateway.flush", 0.5, 0.9)
    serving = _span("gateway.flush", 2.0, 5.0)
    waits, resolves = tracing.gateway_phases([d, early, serving])
    assert waits == [pytest.approx(1000.0)]
    assert resolves == [pytest.approx(1000.0)]


def test_layer_metrics_names_every_benchmark_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = tracing.layer_metrics([], 1.0, {"trace.overhead_pct": 3.0})
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["trace.overhead_pct"] == 3.0


def test_recorder_wraps_and_restores():
    class Layer:
        def work(self, n):
            return list(range(n))

    recorder = tracing.Recorder()
    original = Layer.__dict__["work"]
    wrapped = recorder._wrap(original, "demo.work", "sync")
    Layer.work = wrapped
    assert Layer().work(3) == [0, 1, 2]
    Layer.work = original
    (span,) = recorder.finished()
    assert span.name == "demo.work" and span.end >= span.start


# -- tiny end-to-end runs -------------------------------------------------------------------
def _run(workload: str, trace: int = 0, cwd: Path | None = None, script: Path | None = None):
    return subprocess.run(
        [
            sys.executable,
            str(script or HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "0.02",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd or HERE.parent,
    )


@pytest.mark.parametrize("workload", ["fleet_local", "fleet_durable", "compile_cold"])
def test_tiny_run_is_correct_and_complete(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_tiny_traced_run_reports_every_layer():
    proc = _run("fleet_local", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["session.busy_ms"]["value"] > 0
    # The HTTP edge phase of the traced run.
    assert result["metrics"]["edge.self_ms_p50"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"),
    )
    proc = _run("fleet_local", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
