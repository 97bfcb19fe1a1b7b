"""Structure and correctness tests of the benchmark itself.

No wall-clock thresholds: timings are only checked to be present, finite
and consistent with each other (self times add up to their root).
"""

from __future__ import annotations

import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import days, run
from perfbench.common import END_TO_END, PER_LAYER, ladder
from perfbench.layers import TraceSession
from perfbench.spans import Instrumentation, SpanRecorder

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_map_assigns_every_per_layer_metric_once(spec):
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    assigned = [name for layer in layer_map.values() for name in layer["metrics"]]
    assert sorted(assigned) == sorted(PER_LAYER)
    e2e = set(END_TO_END)
    for layer in layer_map.values():
        assert set(layer["moves"]) <= e2e


def test_self_times_add_up_to_the_root():
    recorder = SpanRecorder()
    root = recorder.open("bench.run", "bench")
    for _ in range(3):
        child = recorder.open("engine.step", "engine")
        grandchild = recorder.open("kernel.gemm", "kernel")
        recorder.close(grandchild)
        recorder.close(child)
    recorder.close(root)
    self_times = recorder.self_times()
    assert np.all(self_times >= 0)
    assert math.isclose(self_times.sum(), recorder.durations()[0], rel_tol=1e-9,
                        abs_tol=1e-12)
    assert recorder.parents == [-1, 0, 1, 0, 3, 0, 5]


def test_instrumentation_wraps_and_restores():
    class Kernel:
        def method(self, x):
            return x + 1

        @staticmethod
        def build(x):
            return x * 2

    module = types.SimpleNamespace(function=lambda x: x - 1)
    originals = (Kernel.__dict__["method"], Kernel.__dict__["build"], module.function)
    recorder = SpanRecorder()
    inst = Instrumentation(recorder)
    inst.wrap(Kernel, "method", "k.method", "kernel")
    inst.wrap(Kernel, "build", "k.build", "kernel")
    inst.wrap(module, "function", "m.function", "data")
    inst.install()
    assert (Kernel().method(1), Kernel.build(2), module.function(3)) == (2, 4, 2)
    assert recorder.names == ["k.method", "k.build", "m.function"]
    inst.remove()
    assert (Kernel.__dict__["method"], Kernel.__dict__["build"], module.function) == originals


def test_ladder_interpolates_between_passing_and_failing_steps():
    limit = 0.05
    fast = np.full(1000, 0.01)
    slow = np.full(1000, 0.10)
    rate, p99s, passes = ladder([100.0, 200.0], [fast, slow], limit)
    assert passes == [True, False] and 100.0 < rate < 200.0
    assert math.isclose(rate, 100.0 + 100.0 * math.log(5.0) / math.log(10.0))
    # A failed request is a miss: more than 1% failed fails the step.
    failed = fast.copy()
    failed[:20] = np.inf
    rate, _, passes = ladder([100.0, 200.0], [fast, failed], limit)
    assert passes == [True, False] and 100.0 <= rate < 200.0
    # Below the first step the rate scales down; past the top it extrapolates.
    assert ladder([100.0, 200.0], [slow, slow], limit)[0] == pytest.approx(50.0)
    assert ladder([100.0, 200.0], [fast * 0.5, fast], limit)[0] > 200.0


def test_cluster_day_checks_pass_and_report_every_metric():
    report = days.run_cluster_day(seed=0, seconds=0.0, session=TraceSession(False))
    assert report.checks and all(report.checks.values()), report.checks
    assert set(END_TO_END) - {"peak_mb"} <= set(report.metrics)
    assert all(math.isfinite(v) and v > 0 for v in report.metrics.values())
    assert report.failed == 0 and report.attempted == 3 * report.outcomes["sent"]


def test_traced_cluster_day_reports_every_per_layer_metric():
    session = TraceSession(True)
    try:
        report = days.run_cluster_day(seed=0, seconds=0.0, session=session)
    finally:
        session.close()
    metrics = session.metrics(report.details["trace_extra"])
    assert set(metrics) == set(PER_LAYER)
    assert session.repeats_exactly()
    assert metrics["engine.sweeps"] == 2 and metrics["kernel.calls"] == 0
    assert 0 < metrics["bench.coverage_pct"] <= 100.0
    # Closing the session put every original back.
    from repro.serving.engine import ServingEngine

    assert not hasattr(ServingEngine.run, "__wrapped__")


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "cluster_day", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_blas_is_pinned_to_one_thread(monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    run.pin_blas_threads()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert run.os.environ[name] == "1"
