"""Inference serving: one engine for modeled *and* real batched execution.

The package is organised around :mod:`repro.serving.engine`:

* :class:`~repro.serving.engine.ServingEngine` owns admission, batching
  across ``num_servers`` shared accelerators (each with its own clock and,
  optionally, its own executor), per-batch 4-bit-ratio selection and
  metrics, with :class:`~repro.serving.engine.Request` /
  :class:`~repro.serving.engine.Response` dataclasses as the
  request/response surface and a multi-model registry (one endpoint per
  model, batches never mix models).  Admission is incremental:
  ``start()`` / ``submit()`` / ``step()`` / ``finish()`` stream requests
  through a live engine, and ``run()`` is a thin batch driver over them.
* **Columnar core** (:mod:`repro.serving.core`): the vectorized,
  event-driven hot path — :class:`~repro.serving.core.RequestStore` keeps
  request metadata as columns for every engine session (``Request``
  objects become lazy views), and the FIFO fast sweep + reservoir
  latency digests let a million-request day clear in seconds,
  bit-identical to the object loop (see the gated ``cluster_day``
  benchmark).
* **Schedulers** (:mod:`repro.serving.schedulers`) order the queue: FIFO
  (the default, bit-identical to the seed simulator), strict priority, or
  earliest-deadline-first for SLO-aware serving, driven by per-request
  ``priority``/``deadline`` fields.
* **Executors** (:mod:`repro.serving.executors`) decide what a batch costs:
  :class:`~repro.serving.executors.ModeledExecutor` uses the analytic
  :class:`~repro.serving.simulator.ServiceTimeModel` latency tables, while
  :class:`~repro.serving.executors.RuntimeExecutor` runs real forwards
  through a prepared :class:`~repro.core.runtime.FlexiQModel` and measures
  wall-clock batch latencies — switching the 4-bit ratio per batch is an
  O(1) variable update thanks to the prepared-kernel cache.
* **Policies** (:mod:`repro.serving.policies`) pick the ratio per batch:
  fixed, schedule-driven, round-robin, queue-depth-aware (via the
  :class:`~repro.serving.policies.PolicyContext` signature), or the paper's
  :class:`~repro.core.controller.AdaptiveRatioController` adapted through
  :class:`~repro.serving.policies.AdaptiveRatioPolicy`.

* **Resilience** (:mod:`repro.serving.resilience`): a fault-injection plane
  (:class:`~repro.serving.resilience.FaultSchedule` of crash / slowdown /
  recover :class:`~repro.serving.resilience.FaultEvent`\\ s applied at
  window boundaries, per-server health in :class:`~repro.serving.cluster.
  ServerSpec`, slowdowns through :class:`~repro.serving.resilience.
  DegradableExecutor`), request **preemption & migration** (
  :meth:`~repro.serving.engine.ServingEngine.preempt_server` rewinds a
  failed server's unfinished batches; a :class:`~repro.serving.resilience.
  MigrationPolicy` — requeue-at-head / redistribute-by-placer /
  drop-if-past-deadline — requeues the victims through the scheduler with
  explicit migration latency, counted in :attr:`~repro.serving.engine.
  Response.migrations`), and **predictive placement**
  (:class:`~repro.serving.placement.PredictivePlacer` forecasting per-server
  capacity and congestion from telemetry windows instead of instantaneous
  free clocks).  On top of it sit **failure domains** (zone/rack identity on
  specs, :class:`~repro.serving.cluster.ClusterTopology`, domain-scoped
  faults, :class:`~repro.serving.placement.SpreadPlacer`), **warm spares**
  (:class:`~repro.serving.resilience.WarmSparePool` promoted on crashes
  without provisioning lag), **predictive fault-aware autoscaling**
  (:class:`~repro.serving.cluster.PredictiveFaultAutoscaler`) and
  **partial-batch checkpointing**
  (:class:`~repro.serving.resilience.StepCheckpoint` — migrants resume with
  residual demand).

* **Cluster control plane** (:mod:`repro.serving.placement`,
  :mod:`repro.serving.telemetry`, :mod:`repro.serving.cluster`): pluggable
  server **placement** (free-clock / least-outstanding-work /
  weighted-by-speed / model-affinity) replacing the hard-coded argmin
  dispatch, **heterogeneous server profiles** (:class:`~repro.serving.
  cluster.ServerSpec` built from the GPU/NPU hardware models via
  :func:`~repro.serving.cluster.gpu_server` / :func:`~repro.serving.cluster.
  npu_server`), a windowed per-server **telemetry bus** policies consume
  through :class:`~repro.serving.policies.PolicyContext` (enabling
  :class:`~repro.serving.policies.PerServerAdaptiveRatioPolicy`), and
  **elastic autoscaling** (:class:`~repro.serving.cluster.ClusterEngine`
  with queue-depth / latency-SLO autoscalers applying hysteresis decisions
  at window boundaries, recorded as scale events).

The Figure 8 experiment (latency vs Poisson request rate) is a
``ModeledExecutor`` + ``FixedRatioPolicy`` run; Figure 9 (fluctuating load
with per-window adaptation) is ``ModeledExecutor`` + ``AdaptiveRatioPolicy``.
:class:`~repro.serving.simulator.ServingSimulator` and
:class:`~repro.serving.adaptation.AdaptiveServingSimulator` remain as thin,
bit-identical compatibility wrappers running exactly those configurations.
"""

from repro.serving.core import (
    LazyRequests,
    RequestStore,
    ReservoirSample,
)
from repro.serving.engine import (
    Batch,
    BatchExecution,
    BatchRecord,
    BatchingConfig,
    EngineResult,
    Executor,
    RatioPolicy,
    Request,
    Response,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.cluster import (
    Autoscaler,
    ClusterEngine,
    ClusterResult,
    ClusterTopology,
    PredictiveFaultAutoscaler,
    QueueDepthAutoscaler,
    ServerSpec,
    SloLatencyAutoscaler,
    gpu_server,
    npu_server,
)
from repro.serving.executors import ModeledExecutor, RuntimeExecutor
from repro.serving.generation import (
    AdmissionPolicy,
    FcfsAdmission,
    GenerationBackend,
    GenerationPreemption,
    GenerationResponse,
    GenerationResult,
    IterationRecord,
    IterationScheduler,
    ModeledGenerationBackend,
    PrefillPriorityAdmission,
    RuntimeGenerationBackend,
    SequenceState,
    TokenBudgetAdmission,
    run_to_completion,
)
from repro.serving.placement import (
    FreeClockPlacer,
    LeastOutstandingWorkPlacer,
    ModelAffinityPlacer,
    Placer,
    PlacementContext,
    PredictivePlacer,
    SpreadPlacer,
    WeightedSpeedPlacer,
)
from repro.serving.resilience import (
    CheckpointPolicy,
    DegradableExecutor,
    DropExpiredMigration,
    FaultEvent,
    FaultSchedule,
    Migrant,
    MigrationPolicy,
    Preemption,
    RedistributeMigration,
    RequeueAtHeadMigration,
    StepCheckpoint,
    WarmSparePool,
)
from repro.serving.policies import (
    AdaptiveRatioPolicy,
    DecodePressureRatioPolicy,
    FixedRatioPolicy,
    GenerationStepContext,
    PerServerAdaptiveRatioPolicy,
    PolicyContext,
    QueueDepthRatioPolicy,
    RatioSchedulePolicy,
    RoundRobinRatioPolicy,
    policy_selector,
)
from repro.serving.telemetry import (
    ClusterWindowStats,
    ScaleEvent,
    ServerWindowStats,
    TelemetryBus,
)
from repro.serving.schedulers import (
    EdfScheduler,
    FifoScheduler,
    PriorityScheduler,
    Scheduler,
    admission_key,
)
from repro.serving.simulator import (
    ServiceTimeModel,
    ServingResult,
    ServingSimulator,
)
from repro.serving.metrics import (
    attainment_within,
    latency_percentiles,
    slo_attainment,
    streaming_percentile,
    streaming_summary,
    summarize_latencies,
    summarize_migrations,
)
from repro.serving.adaptation import AdaptiveServingSimulator, AdaptiveServingResult

__all__ = [
    "AdaptiveRatioPolicy",
    "AdaptiveServingResult",
    "AdaptiveServingSimulator",
    "AdmissionPolicy",
    "Autoscaler",
    "Batch",
    "BatchExecution",
    "BatchRecord",
    "BatchingConfig",
    "CheckpointPolicy",
    "ClusterEngine",
    "ClusterResult",
    "ClusterTopology",
    "ClusterWindowStats",
    "DecodePressureRatioPolicy",
    "DegradableExecutor",
    "DropExpiredMigration",
    "EdfScheduler",
    "EngineResult",
    "Executor",
    "FaultEvent",
    "FaultSchedule",
    "FcfsAdmission",
    "FifoScheduler",
    "FixedRatioPolicy",
    "FreeClockPlacer",
    "GenerationBackend",
    "GenerationPreemption",
    "GenerationResponse",
    "GenerationResult",
    "GenerationStepContext",
    "IterationRecord",
    "IterationScheduler",
    "LazyRequests",
    "LeastOutstandingWorkPlacer",
    "Migrant",
    "MigrationPolicy",
    "ModelAffinityPlacer",
    "ModeledExecutor",
    "ModeledGenerationBackend",
    "PerServerAdaptiveRatioPolicy",
    "Placer",
    "PlacementContext",
    "PolicyContext",
    "Preemption",
    "PredictiveFaultAutoscaler",
    "PredictivePlacer",
    "PrefillPriorityAdmission",
    "PriorityScheduler",
    "QueueDepthAutoscaler",
    "QueueDepthRatioPolicy",
    "RatioPolicy",
    "RatioSchedulePolicy",
    "RedistributeMigration",
    "Request",
    "RequestStore",
    "RequeueAtHeadMigration",
    "ReservoirSample",
    "Response",
    "RoundRobinRatioPolicy",
    "RuntimeExecutor",
    "RuntimeGenerationBackend",
    "ScaleEvent",
    "Scheduler",
    "SequenceState",
    "ServerSpec",
    "ServerWindowStats",
    "ServiceTimeModel",
    "ServingEngine",
    "ServingResult",
    "ServingSimulator",
    "SloLatencyAutoscaler",
    "SpreadPlacer",
    "StepCheckpoint",
    "TelemetryBus",
    "TokenBudgetAdmission",
    "WarmSparePool",
    "WeightedSpeedPlacer",
    "admission_key",
    "attainment_within",
    "gpu_server",
    "latency_percentiles",
    "npu_server",
    "policy_selector",
    "requests_from_trace",
    "run_to_completion",
    "slo_attainment",
    "streaming_percentile",
    "streaming_summary",
    "summarize_latencies",
    "summarize_migrations",
]
