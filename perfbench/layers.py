"""Layer boundaries of the traced run and the per-layer metrics taken there.

:func:`instrument` wraps the public entry points of every layer the
benchmark names (see ``BENCHMARK.json``):

========== ==========================================================
layer      wrapped calls
========== ==========================================================
pipeline   ``FlexiQPipeline.run``, channel scoring, calibration,
           evolutionary selection and each fitness evaluation it makes,
           ``FlexiQModel.prepare``
kernel     activation quantize, ``im2col``, the prepared GEMMs, the
           quantized layer forward, ``PreparedKernel.build``,
           ``FlexiQModel.set_ratio``
glue       LayerNorm, attention, GELU, BatchNorm, ReLU and the model's
           root forward (residuals, pooling, Tensor bookkeeping)
executor   ``RuntimeExecutor.execute``, ``FlexiQModel.forward_batch``,
           ``ModeledExecutor.execute``
policy     ratio policy ``select``
engine     ``ServingEngine`` run/start/step/submit/finish, the columnar
           sweep, the seed ``ServingSimulator``
telemetry  ``TelemetryBus`` record/unrecord/ingest
cluster    ``ClusterEngine.run``
placer     every placer's ``place``
scheduler  every scheduler's ``key``/``keys``
resilience ``preempt_server``, migration planning, checkpoints
obs        ``Tracer`` hooks, ``SloMonitor.evaluate``, the exporters
data       trace generation and request construction
========== ==========================================================

A stage with no public entry point (the inline lowering multiply/round/clip,
the uniform first/last layers' inline GEMM) lands in its caller's self time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Optional

import numpy as np

from perfbench.spans import Instrumentation, SpanRecorder

SERVE_PHASES = ("rep0", "rep1", "serve")


def _fitness_wrapper(recorder: SpanRecorder, args: tuple, kwargs: dict):
    """Wrap the fitness callable handed to the selection search."""
    if len(args) > 2:
        fitness = args[2]
        args = args[:2] + (_traced_callable(recorder, fitness),) + args[3:]
    elif "fitness_fn" in kwargs:
        kwargs = dict(kwargs, fitness_fn=_traced_callable(recorder, kwargs["fitness_fn"]))
    return args, kwargs


def _traced_callable(recorder: SpanRecorder, fn):
    def fitness(*args, **kwargs):
        index = recorder.open("pipeline.fitness", "pipeline")
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return fitness


def _gemm_flops(recorder, args, kwargs, result) -> None:
    rows, depth = args[1].shape
    recorder.count("kernel.gemm_flop", 2.0 * rows * depth * result.shape[-1])


def _im2col_bytes(recorder, args, kwargs, result) -> None:
    recorder.count("kernel.im2col_bytes", float(result[0].nbytes))


def _batch_size(recorder, args, kwargs, result) -> None:
    recorder.sample("executor.batch_size", float(args[1].size))


def _selected_ratio(recorder, args, kwargs, result) -> None:
    recorder.sample("policy.ratio", float(result))


def _object_step(recorder, args, kwargs, result) -> None:
    if result is not None:
        recorder.count("engine.object_steps")


def _batch_tag(args) -> int:
    indices = getattr(args[1], "indices", None)
    return int(indices[0]) if indices is not None and len(indices) else -1


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer boundary (not yet installed; call ``install()``)."""
    import repro.core.pipeline as pipeline_mod
    import repro.core.runtime as runtime_mod
    import repro.data.traces as traces_mod
    import repro.obs as obs_mod
    import repro.quant.qmodules as qmodules_mod
    import repro.serving as serving_mod
    import repro.serving.engine as engine_mod
    from repro.core.prepared import PreparedKernel
    from repro.nn.attention import MultiHeadAttention
    from repro.nn.layers import GELU, BatchNorm2d, LayerNorm, ReLU, ReLU6
    from repro.nn.resnet import ResNet
    from repro.nn.vit import VisionTransformer
    from repro.obs.slo import SloMonitor
    from repro.obs.tracing import Tracer
    from repro.quant.qmodules import QuantizedLayer
    from repro.serving import placement, policies, resilience, schedulers
    from repro.serving.cluster import ClusterEngine
    from repro.serving.executors import ModeledExecutor, RuntimeExecutor
    from repro.serving.simulator import ServingSimulator
    from repro.serving.telemetry import TelemetryBus

    import perfbench.common as common_mod

    inst = Instrumentation(recorder)
    wrap = inst.wrap
    # The speed probe is the benchmark's own work: its time is taken out of
    # the traced wall time instead of counting against the layers' coverage.
    wrap(common_mod, "_probe_work", "bench.probe", "probe")

    wrap(pipeline_mod.FlexiQPipeline, "run", "pipeline.run", "pipeline")
    wrap(pipeline_mod, "quantize_model", "pipeline.calibrate", "pipeline")
    wrap(pipeline_mod, "estimate_channel_scores", "pipeline.score", "pipeline")
    wrap(pipeline_mod, "evolutionary_selection", "pipeline.select", "pipeline",
         before=_fitness_wrapper)
    wrap(runtime_mod.FlexiQModel, "prepare", "pipeline.prepare", "pipeline")

    for module in (runtime_mod, qmodules_mod):
        wrap(module, "quantize", "kernel.quantize", "kernel")
        wrap(module, "im2col_cast", "kernel.im2col", "kernel", after=_im2col_bytes)
    wrap(runtime_mod, "quantize_cast", "kernel.quantize", "kernel")
    wrap(runtime_mod, "im2col", "kernel.im2col", "kernel", after=_im2col_bytes)
    for method in ("gemm_lowered", "matmul"):
        wrap(PreparedKernel, method, "kernel.gemm", "kernel", after=_gemm_flops)
    wrap(PreparedKernel, "build", "kernel.build", "kernel")
    wrap(QuantizedLayer, "forward", "kernel.layer", "kernel")
    wrap(runtime_mod.FlexiQModel, "set_ratio", "kernel.ratio_switch", "kernel")

    wrap(LayerNorm, "forward", "glue.layernorm", "glue")
    wrap(MultiHeadAttention, "forward", "glue.attention", "glue")
    wrap(GELU, "forward", "glue.gelu", "glue")
    wrap(BatchNorm2d, "forward", "glue.batchnorm", "glue")
    wrap(ReLU, "forward", "glue.act", "glue")
    wrap(ReLU6, "forward", "glue.act", "glue")
    wrap(ResNet, "forward", "glue.model", "glue")
    wrap(VisionTransformer, "forward", "glue.model", "glue")

    wrap(RuntimeExecutor, "execute", "executor.execute", "executor",
         tag=_batch_tag, after=_batch_size)
    wrap(runtime_mod.FlexiQModel, "forward_batch", "executor.forward", "executor")
    wrap(ModeledExecutor, "execute", "executor.modeled", "executor", tag=_batch_tag,
         after=_batch_size)
    for policy in (policies.FixedRatioPolicy, policies.RoundRobinRatioPolicy):
        wrap(policy, "select", "policy.select", "policy", after=_selected_ratio)

    engine = engine_mod.ServingEngine
    wrap(engine, "run", "engine.run", "engine")
    wrap(engine, "start", "engine.start", "engine")
    wrap(engine, "submit", "engine.submit", "engine")
    wrap(engine, "step", "engine.step", "engine", after=_object_step)
    wrap(engine, "finish", "engine.finish", "engine")
    wrap(engine_mod, "run_fifo_columnar", "engine.sweep", "engine")
    wrap(ServingSimulator, "run", "engine.simulator", "engine")

    for method in ("record_batch", "unrecord_batch", "record_drops"):
        wrap(TelemetryBus, method, "telemetry.record", "telemetry")
    wrap(TelemetryBus, "ingest_columnar", "telemetry.ingest", "telemetry")
    wrap(ClusterEngine, "run", "cluster.run", "cluster")

    for cls in (placement.FreeClockPlacer, placement.LeastOutstandingWorkPlacer,
                placement.WeightedSpeedPlacer, placement.PredictivePlacer,
                placement.SpreadPlacer, placement.ModelAffinityPlacer):
        wrap(cls, "place", "placer.place", "placer")
    for cls in (schedulers.FifoScheduler, schedulers.PriorityScheduler,
                schedulers.EdfScheduler):
        wrap(cls, "key", "scheduler.key", "scheduler")
        wrap(cls, "keys", "scheduler.key", "scheduler")

    wrap(engine, "preempt_server", "resilience.preempt", "resilience")
    for cls in (resilience.RequeueAtHeadMigration, resilience.RedistributeMigration,
                resilience.DropExpiredMigration):
        wrap(cls, "plan", "resilience.plan", "resilience")
    wrap(resilience.StepCheckpoint, "completed_fraction", "resilience.checkpoint",
         "resilience")

    for method in ("on_batch", "on_drop", "on_preempt", "on_requeue", "on_served",
                   "ingest_columnar"):
        wrap(Tracer, method, "obs.tracer", "obs")
    wrap(SloMonitor, "evaluate", "obs.slo", "obs")
    for name in ("to_chrome_trace", "validate_chrome_trace", "prometheus_exposition",
                 "registry_from_cluster", "registry_from_engine"):
        wrap(obs_mod, name, "obs.export", "obs")

    wrap(traces_mod.DiurnalTrace, "generate", "data.trace", "data")
    wrap(serving_mod, "requests_from_trace", "data.requests", "data")
    return inst


class SpanTable:
    """Numpy view of a recorder's spans, built once for metric queries."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.names = np.asarray(recorder.names, dtype=object)
        self.layers = np.asarray(recorder.layers, dtype=object)
        self.phases = np.asarray(recorder.phases, dtype=object)
        self.parents = np.asarray(recorder.parents, dtype=np.int64)
        self.durations = recorder.durations()
        self.self_times = recorder.self_times()

    def mask(self, name: Optional[str] = None, layer: Optional[str] = None,
             phases: Optional[Iterable[str]] = None) -> np.ndarray:
        mask = np.ones(len(self.names), dtype=bool)
        if name is not None:
            mask &= self.names == name
        if layer is not None:
            mask &= self.layers == layer
        if phases is not None:
            mask &= np.isin(self.phases, list(phases))
        return mask

    def count(self, name: str, phases=SERVE_PHASES) -> int:
        return int(self.mask(name=name, phases=phases).sum())

    def inclusive(self, name: str, phases=SERVE_PHASES) -> float:
        return float(self.durations[self.mask(name=name, phases=phases)].sum())

    def own(self, name: Optional[str] = None, layer: Optional[str] = None,
            phases=SERVE_PHASES) -> float:
        return float(self.self_times[self.mask(name=name, layer=layer, phases=phases)].sum())

    def counter(self, name: str, phases=SERVE_PHASES) -> float:
        return float(sum(self.recorder.counters.get((p, name), 0.0) for p in phases))

    def samples(self, name: str, phases=SERVE_PHASES) -> list:
        values = []
        for phase in phases:
            values.extend(self.recorder.samples.get((phase, name), ()))
        return values

    def outermost(self, layer: str, phases=SERVE_PHASES) -> int:
        """Spans of ``layer`` whose parent is not of the same layer."""
        mask = self.mask(layer=layer, phases=phases)
        parents = self.parents[mask]
        parent_layers = np.where(parents >= 0, self.layers[np.maximum(parents, 0)], "")
        return int((parent_layers != layer).sum())

    def repeat_counts(self, phase: str) -> Dict[str, float]:
        """Exact per-repetition counts: spans per name plus every counter."""
        mask = self.mask(phases=(phase,)) & (self.layers != "bench")
        names, counts = np.unique(self.names[mask].astype(str), return_counts=True)
        result = {f"spans:{n}": float(c) for n, c in zip(names, counts)}
        for (p, name), value in self.recorder.counters.items():
            if p == phase:
                result[name] = value
        for (p, name), values in self.recorder.samples.items():
            if p == phase:
                result[f"sum:{name}"] = float(np.sum(values))
        return result


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(table: SpanTable, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, named as there.

    Pipeline metrics cover the set-up phase; everything else covers the
    traced serving repetitions (``rep0``, ``rep1``) plus the traced ladder.
    ``extra`` carries values read off the program's own results (ratio
    switches, migrations, trace spans, alerts, served requests) and the
    benchmark's bookkeeping (overhead, coverage, wall time).
    """
    setup = ("setup",)
    ms, us = 1e3, 1e6
    forward_ms = table.durations[table.mask(name="executor.forward",
                                            phases=("rep0", "rep1"))] * ms
    switch = table.durations[table.mask(name="kernel.ratio_switch", phases=SERVE_PHASES)]
    served = extra["served"]
    metrics = {
        "pipeline.score_s": table.inclusive("pipeline.score", setup),
        "pipeline.select_s": table.inclusive("pipeline.select", setup),
        "pipeline.fitness_calls": table.count("pipeline.fitness", setup),
        "pipeline.fitness_ms": table.inclusive("pipeline.fitness", setup) * ms,
        "pipeline.kernel_builds": table.count("kernel.build", setup),
        "pipeline.prepare_s": table.inclusive("pipeline.prepare", setup),
        "pipeline.self_s": table.own(layer="pipeline", phases=setup),
        "kernel.quantize_ms": table.own("kernel.quantize") * ms,
        "kernel.im2col_ms": table.own("kernel.im2col") * ms,
        "kernel.gemm_ms": table.own("kernel.gemm") * ms,
        "kernel.flexiq_self_ms": table.own("kernel.layer") * ms,
        "kernel.calls": table.count("kernel.layer"),
        "kernel.gemm_gflop": table.counter("kernel.gemm_flop") / 1e9,
        "kernel.im2col_mb": table.counter("kernel.im2col_bytes") / 1e6,
        "kernel.builds": table.count("kernel.build"),
        "kernel.ratio_switch_us": _mean(switch) * us,
        "glue.layernorm_ms": table.own("glue.layernorm") * ms,
        "glue.attention_ms": table.own("glue.attention") * ms,
        "glue.gelu_ms": table.own("glue.gelu") * ms,
        "glue.batchnorm_ms": table.own("glue.batchnorm") * ms,
        "glue.act_ms": table.own("glue.act") * ms,
        "glue.other_ms": table.own("glue.model") * ms,
        "executor.batches": table.count("executor.execute") + table.count("executor.modeled"),
        "executor.mean_batch": _mean(table.samples("executor.batch_size")),
        "executor.forward_ms_p50": _pct(forward_ms, 50),
        "executor.forward_ms_p99": _pct(forward_ms, 99),
        "executor.stack_ms": table.own("executor.execute") * ms,
        "executor.ratio_switches": extra["ratio_switches"],
        "policy.mean_ratio": _mean(table.samples("policy.ratio")),
        "engine.start_s": table.inclusive("engine.start"),
        "engine.finish_s": table.inclusive("engine.finish"),
        "engine.object_steps": table.counter("engine.object_steps"),
        "engine.sweeps": table.count("engine.sweep"),
        "engine.sweep_s": table.inclusive("engine.sweep"),
        "engine.overhead_us_per_req": table.own(layer="engine") / max(served, 1) * us,
        "telemetry.ingest_s": table.inclusive("telemetry.ingest"),
        "telemetry.record_calls": table.count("telemetry.record"),
        "telemetry.record_s": table.own("telemetry.record"),
        "cluster.self_s": table.own(layer="cluster"),
        "cluster.windows": table.count("obs.slo"),
        "placer.calls": table.outermost("placer"),
        "placer.s": table.own(layer="placer"),
        "scheduler.calls": table.count("scheduler.key"),
        "scheduler.s": table.own(layer="scheduler"),
        "resilience.preemptions": table.count("resilience.preempt"),
        "resilience.migrated": extra["migrated"],
        "resilience.migration_s": table.own(layer="resilience"),
        "obs.tracer_s": table.own("obs.tracer"),
        "obs.spans": extra["obs_spans"],
        "obs.slo_s": table.inclusive("obs.slo"),
        "obs.alerts": extra["alerts"],
        "data.s": table.own(layer="data", phases=None),
        "bench.wall_s": extra["wall_s"],
        "bench.self_s": extra["bench_self_s"],
        "bench.coverage_pct": extra["coverage_pct"],
        "bench.trace_overhead_pct": extra["trace_overhead_pct"],
    }
    return {name: float(value) for name, value in metrics.items()}


class TraceSession:
    """The traced run's recorder plus its wrappers, or a no-op when off.

    Workload code is the same in both modes: ``phase(name)`` opens a root
    span labelling everything under it (nothing when tracing is off) and
    ``paused()`` takes the wrappers out for an untraced measurement inside a
    traced run, the baseline of the tracing overhead.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.recorder = SpanRecorder() if enabled else None
        self.instrumentation = instrument(self.recorder) if enabled else None
        if enabled:
            self.instrumentation.install()

    @contextmanager
    def phase(self, name: str):
        if not self.enabled:
            yield
            return
        previous, self.recorder.phase = self.recorder.phase, name
        index = self.recorder.open(f"bench.{name}", "bench")
        try:
            yield
        finally:
            self.recorder.close(index)
            self.recorder.phase = previous

    @contextmanager
    def paused(self):
        if not self.enabled:
            yield
            return
        self.instrumentation.remove()
        try:
            yield
        finally:
            self.instrumentation.install()

    def close(self) -> None:
        if self.enabled and self.instrumentation.installed:
            self.instrumentation.remove()

    def metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics plus the coverage of the layer self times."""
        table = SpanTable(self.recorder)
        roots = table.parents < 0
        wall = float(table.durations[roots].sum()) - table.own(layer="probe", phases=None)
        bench_self = table.own(layer="bench", phases=None)
        extra = dict(
            extra,
            wall_s=wall,
            bench_self_s=bench_self,
            coverage_pct=(wall - bench_self) / wall * 100.0 if wall > 0 else 0.0,
        )
        return layer_metrics(table, extra)

    def repeats_exactly(self) -> bool:
        """Both traced repetitions made exactly the same calls and counts."""
        table = SpanTable(self.recorder)
        return table.repeat_counts("rep0") == table.repeat_counts("rep1")
