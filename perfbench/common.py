"""Shared pieces of the benchmark: metric tables, accounting, statistics.

Every workload reports every end-to-end metric (and, traced, every
per-layer metric) under the names and units below; ``BENCHMARK.json`` lists
the same names, and ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "max_rate_rps": "1/s",
    "top1_pct": "%",
    "served_pct": "%",
    "peak_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "pipeline.score_s": "s",
    "pipeline.select_s": "s",
    "pipeline.fitness_calls": "count",
    "pipeline.fitness_ms": "ms",
    "pipeline.kernel_builds": "count",
    "pipeline.prepare_s": "s",
    "pipeline.self_s": "s",
    "kernel.quantize_ms": "ms",
    "kernel.im2col_ms": "ms",
    "kernel.gemm_ms": "ms",
    "kernel.flexiq_self_ms": "ms",
    "kernel.calls": "count",
    "kernel.gemm_gflop": "GFLOP",
    "kernel.im2col_mb": "MB",
    "kernel.builds": "count",
    "kernel.ratio_switch_us": "us",
    "glue.layernorm_ms": "ms",
    "glue.attention_ms": "ms",
    "glue.gelu_ms": "ms",
    "glue.batchnorm_ms": "ms",
    "glue.act_ms": "ms",
    "glue.other_ms": "ms",
    "executor.batches": "count",
    "executor.mean_batch": "count",
    "executor.forward_ms_p50": "ms",
    "executor.forward_ms_p99": "ms",
    "executor.stack_ms": "ms",
    "executor.ratio_switches": "count",
    "policy.mean_ratio": "ratio",
    "engine.start_s": "s",
    "engine.finish_s": "s",
    "engine.object_steps": "count",
    "engine.sweeps": "count",
    "engine.sweep_s": "s",
    "engine.overhead_us_per_req": "us",
    "telemetry.ingest_s": "s",
    "telemetry.record_calls": "count",
    "telemetry.record_s": "s",
    "cluster.self_s": "s",
    "cluster.windows": "count",
    "placer.calls": "count",
    "placer.s": "s",
    "scheduler.calls": "count",
    "scheduler.s": "s",
    "resilience.preemptions": "count",
    "resilience.migrated": "count",
    "resilience.migration_s": "s",
    "obs.tracer_s": "s",
    "obs.spans": "count",
    "obs.slo_s": "s",
    "obs.alerts": "count",
    "data.s": "s",
    "bench.wall_s": "s",
    "bench.self_s": "s",
    "bench.coverage_pct": "%",
    "bench.trace_overhead_pct": "%",
}


@dataclass
class Phase:
    """Operation accounting of one phase: requests sent, served, failed."""

    name: str
    sent: int = 0
    served: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.sent - self.served

    def add(self, sent: int, served: int, error: str = "") -> None:
        self.sent += int(sent)
        self.served += int(served)
        if error:
            self.errors.append(error)

    def to_json(self) -> Dict[str, object]:
        return {"sent": self.sent, "served": self.served, "failed": self.failed,
                "errors": self.errors[:5]}


@dataclass
class Report:
    """What one workload run produced, before it is printed."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    phases: Dict[str, Phase] = field(default_factory=dict)
    outcomes: Dict[str, object] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    def phase(self, name: str) -> Phase:
        if name not in self.phases:
            self.phases[name] = Phase(name)
        return self.phases[name]

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    @property
    def attempted(self) -> int:
        return sum(phase.sent for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases.values())


#: Share of requests allowed over the latency limit: the p99 criterion.
MISS_SHARE = 0.01

#: Seconds the speed probe takes on the reference machine (the 2-core box
#: the benchmark was defined on, in a quiet spell).
REFERENCE_PROBE_S = 0.012
PROBE_REPEATS = 5
_PROBE_IMAGE = (np.arange(4 * 64 * 18 * 18, dtype=np.float32).reshape(4, 64, 18, 18) % 23) - 11.0
_PROBE_WEIGHT = (np.arange(576 * 64, dtype=np.float64).reshape(576, 64) % 13) - 6.0
_PROBE_TOKENS = ((np.arange(8 * 17 * 64, dtype=np.float32).reshape(8, 17, 64) % 19) - 9.0) / 9.0


def _probe_work() -> int:
    """A 3x3 convolution lowered by hand, small-array float glue and an
    interpreter loop, numpy only.

    It mirrors the mix the workloads run (a strided gather and cast, a
    float64 GEMM, in-place elementwise passes, many small float32 calls,
    Python bytecode) without calling the program, so no change to the
    program can move it.
    """
    windows = np.lib.stride_tricks.sliding_window_view(_PROBE_IMAGE, (3, 3), axis=(2, 3))
    columns = windows.transpose(0, 2, 3, 1, 4, 5).astype(np.float64).reshape(4 * 256, 576)
    accumulator = columns @ _PROBE_WEIGHT
    np.multiply(accumulator, 0.5, out=accumulator)
    np.round(accumulator, out=accumulator)
    tokens = _PROBE_TOKENS
    for _ in range(20):  # many small float32 calls, as in LayerNorm/softmax glue
        centred = tokens - tokens.mean(axis=-1, keepdims=True)
        tokens = centred / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + 1e-5)
        tokens = np.exp(tokens - tokens.max(axis=-1, keepdims=True))
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


def speed_probe() -> float:
    """Median seconds of :func:`_probe_work` over ``PROBE_REPEATS`` calls.

    The benchmark shares its machine, whose speed drifts by tens of percent
    within seconds and between runs.  Every timed unit is paired with probes
    taken next to it, and wall-clock results are reported at the reference
    machine speed: ``seconds * REFERENCE_PROBE_S / probe`` (rates scale the
    other way).  The raw figures are kept in the report file.
    """
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def to_reference(seconds: float, *probes: float) -> float:
    """Wall seconds scaled to the reference machine speed."""
    return seconds * REFERENCE_PROBE_S / float(np.mean(probes))


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(latencies: np.ndarray, q: float) -> float:
    """Percentile where a failed request (``inf``) counts as a miss."""
    with np.errstate(invalid="ignore"):  # inf - inf while interpolating a miss
        value = np.percentile(np.asarray(latencies, dtype=np.float64), q)
    return float(value) if not np.isnan(value) else math.inf


def step_passes(latencies: np.ndarray, limit: float) -> bool:
    """A ladder step meets the limit: p99 within it and no growing backlog.

    The backlog grows when the requests that arrived last (the final tenth,
    in arrival order) wait longer than the limit at the median: the queue
    was still climbing when arrivals stopped.
    """
    latencies = np.asarray(latencies, dtype=np.float64)
    tail = latencies[-max(len(latencies) // 10, 1):]
    return percentile(latencies, 99) <= limit and float(np.median(tail)) <= limit


def ladder(rates: Sequence[float], steps: Sequence[np.ndarray], limit: float):
    """Summarize a rate ladder: ``(max_rate_rps, p99s, passes)``.

    ``steps`` hold each step's latencies in arrival order (``inf`` for a
    failed or dropped request); rates ascend.  ``max_rate_rps`` is the
    highest rate meeting the p99 limit with no growing backlog.  Between the
    last passing step and the first failing one the crossing is interpolated
    linearly in log(p99), or, when the failing step's p99 is a miss (more
    than 1% failed), in the share of requests over the limit; below the
    first step the rate scales down by limit/p99; past a fully passing
    ladder it is extrapolated from the last two steps, capped at twice the
    top rate.  Always positive and continuous in the measured latencies.
    """
    p99s = [percentile(step, 99) for step in steps]
    passes = [step_passes(step, limit) for step in steps]
    misses = [float(np.mean(~(np.asarray(step) <= limit))) for step in steps]
    first_fail = next((i for i, ok in enumerate(passes) if not ok), None)
    if first_fail == 0:
        if math.isfinite(p99s[0]):
            scale = limit / p99s[0]
        else:
            scale = MISS_SHARE / misses[0]
        return rates[0] * min(1.0, scale), p99s, passes
    if first_fail is None:
        lo, hi = len(rates) - 2, len(rates) - 1
    else:
        lo, hi = first_fail - 1, first_fail
    if math.isfinite(p99s[hi]) and p99s[hi] > p99s[lo]:
        fraction = (math.log(limit) - math.log(p99s[lo])) / (
            math.log(p99s[hi]) - math.log(p99s[lo]))
    elif misses[hi] > misses[lo]:
        fraction = (MISS_SHARE - misses[lo]) / (misses[hi] - misses[lo])
    else:
        fraction = 1.0 if first_fail is None else 0.0
    if first_fail is not None:
        fraction = min(max(fraction, 0.0), 1.0)
    rate = rates[lo] + fraction * (rates[hi] - rates[lo])
    return float(min(rate, 2.0 * rates[-1])), p99s, passes
