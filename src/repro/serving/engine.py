"""Unified serving engine: one request/response surface for modeled and real execution.

The engine consolidates the serving story of Figures 8 and 9 behind a single
API.  A :class:`ServingEngine` owns admission, batching across ``num_servers``
identical (shared, simulated) accelerators, per-batch 4-bit-ratio selection
and metrics; *what* executes a batch, *which* requests ride in it and *which*
ratio it runs at are pluggable:

* :class:`Executor` — turns one :class:`Batch` into a service time (and
  optionally per-request outputs).  :class:`~repro.serving.executors.
  ModeledExecutor` wraps the analytic :class:`~repro.serving.simulator.
  ServiceTimeModel` (the paper's Figure 8/9 setup, bit-identical to the seed
  simulator); :class:`~repro.serving.executors.RuntimeExecutor` wraps a
  prepared :class:`~repro.core.runtime.FlexiQModel` and measures real
  wall-clock batch latencies.  With ``num_servers=K`` an endpoint may
  register one executor *per server* (e.g. K ``RuntimeExecutor``\\ s, each
  owning an independent prepared-kernel cache).
* :class:`~repro.serving.schedulers.Scheduler` — the queue discipline.
  The default is FIFO (the seed behaviour);
  :class:`~repro.serving.schedulers.PriorityScheduler` and the SLO-aware
  :class:`~repro.serving.schedulers.EdfScheduler` reorder queued requests by
  per-request ``priority``/``deadline`` fields.
* :class:`~repro.serving.placement.Placer` — which server the next batch
  runs on.  ``placer=None`` keeps the seed argmin-free-clock dispatch
  (:class:`~repro.serving.placement.FreeClockPlacer`, bit-identical);
  heterogeneous clusters plug in least-work or model-affinity placement (see
  :mod:`repro.serving.placement` and :mod:`repro.serving.cluster`).
* :class:`RatioPolicy` — picks the 4-bit ratio for each batch.  Policies see
  a :class:`~repro.serving.policies.PolicyContext` (start time, queue depth,
  batch size, server, and — when the engine carries a
  :class:`~repro.serving.telemetry.TelemetryBus` — the windowed per-server
  telemetry); legacy one-argument ``select(time)`` policies keep working
  through an adapter (see :mod:`repro.serving.policies`).

An engine given a :class:`~repro.serving.telemetry.TelemetryBus` publishes
per-batch and per-drop events to it, and :meth:`ServingEngine.
set_active_servers` lets a control plane grow/shrink the serving set at run
time — the hooks :mod:`repro.serving.cluster` builds elastic autoscaling on.

Admission is incremental: :meth:`ServingEngine.start` opens a session,
:meth:`ServingEngine.submit` pushes requests while the engine runs,
:meth:`ServingEngine.step` executes one batch at a time, and
:meth:`ServingEngine.finish` drains the queue and returns the
:class:`EngineResult`.  :meth:`ServingEngine.run` is a thin batch driver
over exactly that lifecycle.

Whatever the entry point, a session holds its requests in one columnar
:class:`~repro.serving.core.RequestStore`: a trace or a request list is
columnarized at ``start()``, a :class:`~repro.serving.core.LazyRequests`
view brings its own store, and ``submit()`` appends rows.  Scheduler keys,
deadlines, responses and migrants all read its columns, and
:attr:`Batch.requests` is a lazy view over the batch's rows, so only an
executor that reads requests materializes :class:`Request` objects.

Several models can be registered on one engine (multi-model serving on
shared accelerators): each request names its model, batches are formed from
same-model requests in scheduler order, and every model keeps its own
executor(s) and policy — with a :class:`~repro.serving.executors.
RuntimeExecutor` per model and server that means one prepared-kernel cache
each, and a per-batch ``set_ratio()`` that stays an O(1) variable update.

The discrete-event loop reproduces the seed ``ServingSimulator`` semantics
exactly for single-server FIFO runs (same admission, batch-cap and float
arithmetic), so the compatibility wrappers in :mod:`repro.serving.simulator`
and :mod:`repro.serving.adaptation` return bit-identical latencies for the
Figure 8/9 reproductions.  One deliberate deviation from the seed: when
``drop_after`` expires requests, the batch is backfilled from the queue
after the expired prefix is dropped, so drops no longer waste batch slots
(the seed computed the batch window before filtering, leaving batches
under-filled exactly when the queue was backed up).
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from repro.data.traces import RequestTrace
from repro.serving.core import (
    BatchLedger,
    DROPPED,
    LazyRequests,
    PENDING,
    RequestStore,
    SERVED,
    per_request_latencies,
    run_fifo_columnar,
)
from repro.serving.metrics import (
    latency_percentiles,
    slo_attainment,
    summarize_latencies,
)
from repro.serving.placement import FreeClockPlacer, Placer, PlacementContext
from repro.serving.policies import PolicyContext
from repro.serving.schedulers import FifoScheduler, Scheduler, store_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.telemetry import TelemetryBus


@dataclass
class BatchingConfig:
    """Batching policy of the serving system."""

    max_batch: int = 64
    # A request admitted while every server is busy waits in an unbounded
    # queue; ``drop_after`` (seconds) optionally drops requests that waited
    # longer than this (disabled by default, as in the paper).
    drop_after: Optional[float] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject a batch size below 1 or a negative ``drop_after``.

        Runs at construction and again when a session starts, since the
        config is mutable.
        """
        if not self.max_batch >= 1:
            raise ValueError(f"max_batch must be >= 1; got {self.max_batch!r}")
        if self.drop_after is not None and not self.drop_after >= 0:
            raise ValueError(
                f"drop_after must be >= 0 (or None); got {self.drop_after!r}"
            )


@dataclass
class Request:
    """One inference request entering the engine.

    ``payload`` carries the actual model input for real execution (a single
    sample, e.g. a ``(C, H, W)`` image); modeled execution needs only the
    arrival time.  ``request_id`` defaults to the admission index.
    ``priority`` (higher serves first) and ``deadline`` (absolute time by
    which the response should finish) are read by the non-FIFO schedulers;
    FIFO ignores both.

    The *generation profile* — ``prefill_tokens`` (prompt length) and
    ``max_new_tokens`` (the stop condition: how many tokens to generate,
    counting the one the prefill emits) — is read only by the
    iteration-level :class:`~repro.serving.generation.IterationScheduler`;
    the one-shot batch engine ignores both, so non-generative runs are
    untouched.  ``max_new_tokens=0`` (the default) marks a non-generative
    request; ``max_new_tokens=1`` is a prefill-only request (first token,
    zero decode steps).
    """

    arrival_time: float
    model: str = "default"
    request_id: int = -1
    payload: Optional[np.ndarray] = None
    priority: int = 0
    deadline: Optional[float] = None
    prefill_tokens: int = 0
    max_new_tokens: int = 0


@dataclass
class Response:
    """Outcome of one request: timing, the batch it rode in, and its output.

    ``migrations`` counts how many times the request was preempted off a
    failing/deactivated server and requeued before this outcome (0 on the
    default, fault-free paths); see :mod:`repro.serving.resilience`.
    """

    request_id: int
    model: str
    arrival_time: float
    start_time: float
    finish_time: float
    batch_size: int
    ratio: float
    mode: str
    dropped: bool = False
    output: Any = None
    priority: int = 0
    deadline: Optional[float] = None
    server: int = 0
    migrations: int = 0

    @property
    def latency(self) -> float:
        """Response time: queueing delay plus batch service time (seconds)."""
        return self.finish_time - self.arrival_time

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the response finished by its deadline (None without one)."""
        if self.deadline is None:
            return None
        return (not self.dropped) and self.finish_time <= self.deadline


@dataclass
class Batch:
    """One batch handed to an :class:`Executor`.

    ``indices`` are the batch's rows in the session's
    :class:`~repro.serving.core.RequestStore`.  The engine sets
    ``requests`` to a :class:`~repro.serving.core.LazyRequests` view over
    those rows: indexing it materializes one :class:`Request` (so real
    executors can read payloads), while modeled execution reads only
    ``size`` and never pays for a view.  ``server`` is the accelerator the
    batch runs on (0-based).
    """

    model: str
    start_time: float
    size: int
    indices: np.ndarray
    requests: Optional[Sequence[Request]] = None
    server: int = 0


@dataclass
class BatchExecution:
    """What an executor reports back for one batch.

    ``service_time`` is the batch duration in seconds — analytic for modeled
    execution, measured wall-clock for real execution.  ``outputs`` optionally
    holds one entry per request of the batch, in batch order.  ``ratio``
    reports the ratio the batch *actually* executed at when the executor
    overrides the policy-selected one (e.g. ``RuntimeExecutor`` pinning
    ``"int8"``/``"int4"`` modes); ``None`` means the selected ratio ran.
    """

    service_time: float
    outputs: Optional[Sequence[Any]] = None
    ratio: Optional[float] = None


class Executor(Protocol):
    """Executes one batch for one model; see :mod:`repro.serving.executors`."""

    def execute(self, batch: Batch, mode: str, ratio: float) -> BatchExecution:
        ...


class RatioPolicy(Protocol):
    """Selects the 4-bit ratio for each batch; see :mod:`repro.serving.policies`.

    Two select signatures are supported.  Legacy policies implement
    ``select(time)`` and are adapted transparently; context-aware policies
    set ``accepts_context = True`` and implement ``select(context)`` with a
    :class:`~repro.serving.policies.PolicyContext` carrying the batch start
    time plus queue depth, batch size, model and server.
    """

    def on_run_start(self, trace: RequestTrace) -> None:
        """Observe the admitted trace for this model before serving starts."""
        ...

    def select(self, time: float) -> float:
        """Ratio for a batch whose service starts at ``time``."""
        ...


@dataclass
class BatchRecord:
    """Per-batch accounting: what ran, when, where, at which ratio.

    ``queue_depth`` is the number of arrived-and-waiting requests when the
    batch formed (the value telemetry aggregates) — kept on the record so a
    preempted batch can be *un*-recorded exactly.
    """

    model: str
    start: float
    finish: float
    size: int
    ratio: float
    mode: str
    server: int = 0
    queue_depth: int = 0


@dataclass
class _Endpoint:
    """One registered model: per-server executors + policy + execution mode."""

    name: str
    executors: List[Executor]
    policy: RatioPolicy
    mode: str
    select: Callable[[PolicyContext], float]

    @property
    def executor(self) -> Executor:
        """The (first) executor — the whole registration for ``num_servers=1``."""
        return self.executors[0]


@dataclass
class EngineResult:
    """Outcome of one engine run.

    ``latencies`` holds the served requests' response times in admission
    order (dropped requests excluded); ``request_latencies`` keeps one slot
    per admitted request with ``nan`` marking drops, aligned with
    ``request_models`` for per-model breakdowns.  ``server_busy_times`` has
    one accumulated busy time per server (their sum is ``busy_time``).
    ``migrated`` counts successful request moves (preemption + requeue; see
    :mod:`repro.serving.resilience`) — zero on the default fault-free paths.
    """

    latencies: np.ndarray
    request_latencies: np.ndarray
    request_models: Optional[List[str]]
    batch_records: List[BatchRecord]
    dropped: int
    duration: float
    busy_time: float
    responses: Optional[List[Response]] = None
    _single_model: Optional[str] = None
    num_servers: int = 1
    server_busy_times: Optional[List[float]] = None
    migrated: int = 0

    # ------------------------------------------------------------------
    # Batch-level views
    # ------------------------------------------------------------------
    @property
    def batch_sizes(self) -> List[int]:
        records = self.batch_records
        if isinstance(records, BatchLedger):
            return records.sizes.tolist()
        return [record.size for record in records]

    @property
    def batch_ratios(self) -> List[float]:
        records = self.batch_records
        if isinstance(records, BatchLedger):
            return [records.ratio] * len(records)
        return [record.ratio for record in records]

    @property
    def mean_executed_ratio(self) -> float:
        """Batch-size-weighted mean of the executed per-batch 4-bit ratios.

        ``nan`` when no batch was served.  Uses the *executed* ratios (after
        any executor mode pinning), so it reflects what actually ran.
        """
        sizes = np.asarray(self.batch_sizes, dtype=np.float64)
        if sizes.size == 0 or sizes.sum() <= 0:
            return float("nan")
        return float(
            np.average(np.asarray(self.batch_ratios, dtype=np.float64), weights=sizes)
        )

    # ------------------------------------------------------------------
    # Latency statistics
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        return summarize_latencies(self.latencies)

    @property
    def median_latency(self) -> float:
        return latency_percentiles(self.latencies, (50,))["p50"]

    @property
    def p90_latency(self) -> float:
        return latency_percentiles(self.latencies, (90,))["p90"]

    @property
    def throughput(self) -> float:
        """Served requests per second of trace time."""
        if self.duration <= 0:
            return 0.0
        return len(self.latencies) / self.duration

    @property
    def requests_per_busy_second(self) -> float:
        """Served requests per second of accelerator busy time.

        For :class:`~repro.serving.executors.RuntimeExecutor` runs this is
        the real sustained throughput of the serving hot path.  With several
        servers, busy time accumulates across all of them.
        """
        if self.busy_time <= 0:
            return 0.0
        return len(self.latencies) / self.busy_time

    def for_model(self, name: str) -> np.ndarray:
        """Served latencies of one registered model, in admission order."""
        served = ~np.isnan(self.request_latencies)
        if self.request_models is None:
            if self._single_model is not None and name != self._single_model:
                return np.zeros(0, dtype=np.float64)
            return self.request_latencies[served]
        mask = served & (np.asarray(self.request_models) == name)
        return self.request_latencies[mask]

    def deadline_attainment(self) -> float:
        """Fraction of deadline-carrying requests that met their deadline.

        Dropped requests with deadlines count as misses.  Returns ``nan``
        when no response carries a deadline (or responses were not
        recorded).
        """
        if not self.responses:
            return float("nan")
        recorded = [r for r in self.responses if r is not None]
        if not recorded:
            return float("nan")
        # Dropped responses carry finish_time=nan, which slo_attainment
        # counts as a miss whenever a deadline is present.
        return slo_attainment(
            [r.finish_time for r in recorded], [r.deadline for r in recorded]
        )

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready report of the run (plain types only).

        Aggregates, not raw per-request arrays: the summary statistics,
        throughput, drop/migration counts and per-server busy times —
        what a report pipeline or dashboard ingests.  Pair with
        :func:`repro.obs.registry.registry_from_engine` for full metric
        exports.
        """
        summary = {
            key: (None if np.isnan(value) else float(value))
            for key, value in self.summary().items()
        }
        attainment = self.deadline_attainment()
        return {
            "served": int(len(self.latencies)),
            "dropped": int(self.dropped),
            "migrated": int(self.migrated),
            "batches": int(len(self.batch_records)),
            "duration": float(self.duration),
            "busy_time": float(self.busy_time),
            "throughput": float(self.throughput),
            "num_servers": int(self.num_servers),
            "server_busy_times": [
                float(seconds) for seconds in (self.server_busy_times or [])
            ],
            "latency": summary,
            "deadline_attainment": (
                None if np.isnan(attainment) else float(attainment)
            ),
        }


def requests_from_trace(
    trace: RequestTrace,
    model: str = "default",
    payloads: Optional[Sequence[np.ndarray]] = None,
    priorities: Optional[Sequence[int]] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
    prefill_tokens: Optional[Sequence[int]] = None,
    max_new_tokens: Optional[Sequence[int]] = None,
    lazy: bool = False,
) -> Sequence[Request]:
    """Materialize :class:`Request` objects from an arrival-time trace.

    ``payloads`` optionally attaches model inputs round-robin (real execution
    of a trace longer than the available sample pool reuses samples).
    ``priorities``/``deadlines`` optionally attach scheduler metadata, also
    round-robin, in arrival order.  ``deadlines`` entries are *relative*
    SLOs (seconds after the request's arrival): the materialized
    ``Request.deadline`` is ``arrival_time + slo`` — an absolute deadline
    list would make every request arriving after the largest entry
    born-expired.  ``prefill_tokens``/``max_new_tokens`` optionally attach
    generation profiles (also round-robin) for iteration-level scheduling
    (see :mod:`repro.serving.generation`) — a mixed prompt-length trace is
    one ``prefill_tokens`` list with several entries.

    Requests build from a columnar :class:`~repro.serving.core.RequestStore`
    (so the sorted arrivals are computed once per trace and the deadline
    arithmetic is the vectorized twin of the per-request ``arrival + slo``).
    ``lazy=True`` skips materialization entirely and returns the store's
    :class:`~repro.serving.core.LazyRequests` view — field-for-field the
    same requests, O(columns) memory instead of O(requests) objects.
    """
    store = RequestStore.from_trace(
        trace,
        model=model,
        payloads=payloads,
        priorities=priorities,
        deadlines=deadlines,
        prefill_tokens=prefill_tokens,
        max_new_tokens=max_new_tokens,
    )
    view = LazyRequests(store)
    if lazy:
        return view
    return list(view)


def _require_finite(arrivals: np.ndarray) -> None:
    """Reject NaN/inf arrivals, which would otherwise vanish unserved."""
    bad = ~np.isfinite(arrivals)
    if bad.any():
        raise ValueError(
            f"arrival_time must be finite; got {float(arrivals[bad][0])!r}"
        )


class _Session:
    """Mutable state of one serving run (batch or streaming)."""

    def __init__(
        self,
        num_servers: int,
        store: RequestStore,
        fixed: bool,
        duration: Optional[float],
        record_responses: bool,
        fifo: bool,
    ) -> None:
        num_requests = len(store)
        # Every request's metadata, one row per slot; submit() appends rows
        # unless the session is ``fixed`` (trace and LazyRequests sessions).
        self.store = store
        self.fixed = fixed
        self.duration = duration
        self.latencies = np.zeros(num_requests, dtype=np.float64)
        self.responses: Optional[List[Optional[Response]]] = (
            [None] * num_requests if record_responses else None
        )
        self.records: List[BatchRecord] = []
        # One slot array per record (views, no copies): what preemption
        # needs to rewind a batch exactly (see preempt_server).
        self.record_slots: List[np.ndarray] = []
        # Per-slot move counts and the run total (resilience accounting).
        self.migrations: Dict[int, int] = {}
        self.migrated = 0
        # Per-slot checkpointed progress fraction (partial-batch
        # checkpointing; see preempt_server).  Empty on the default paths —
        # _execute only looks at it when non-empty, keeping the seed
        # arithmetic untouched.
        self.checkpoints: Dict[int, float] = {}
        # Per-slot checkpoint-restore cost in seconds (state transfer to the
        # resuming server; see StepCheckpoint.restore_seconds).  Paid once,
        # by the first batch that consumes the slot's checkpoint.  Empty
        # unless a checkpoint policy prices restores.
        self.transfer_costs: Dict[int, float] = {}
        self.dropped = 0
        self.free_at: List[float] = [0.0] * num_servers
        self.busy: List[float] = [0.0] * num_servers
        # Servers eligible for new batches (ascending ids).  The control
        # plane shrinks/grows this set at window boundaries (elastic
        # autoscaling); a deactivated server finishes its running batch but
        # receives no new ones.
        self.active: List[int] = list(range(num_servers))
        # Pending admission, sorted by pend key (arrival, or a migrant's
        # ready key): positions >= ``pos`` are not yet admitted to the
        # queue.  ``pend_slots[p]`` maps a pending position back to the
        # stable per-request slot index.
        self.pend_arrivals = store.arrivals
        self.pend_slots = np.arange(num_requests, dtype=np.intp)
        self.pos = 0
        # Admitted-but-unserved requests, ordered by (scheduler key, pend
        # key, tie, slot) — pend key then tie (see _admit) are the FIFO
        # tie-breakers behind the discipline's key.  A heap, except under
        # FIFO: its key is empty and it admits in pend-key order almost
        # always, so its queue is a sorted deque, served and expired from
        # the left.
        self.queue: Any = deque() if fifo else []
        # FIFO only: ``admitted`` counts admissions (its tie-breaker), and
        # the queued pend keys stay an ascending list from ``fifo_head`` on,
        # so "queued by time t" is a bisect.
        self.admitted = 0
        self.fifo_keys: List[float] = []
        self.fifo_head = 0
        # Other disciplines: ``arrival_heap`` (lazily cleaned against
        # ``queued_slots``) answers "earliest queued pend key" without
        # scanning the queue.
        self.arrival_heap: List[Tuple[float, int]] = []
        self.queued_slots: set = set()


class ServingEngine:
    """Discrete-event serving engine for ``num_servers`` shared accelerators.

    Register one endpoint per model with :meth:`register`, then either
    :meth:`run` a :class:`~repro.data.traces.RequestTrace` (single-model
    FIFO runs), an explicit list of :class:`Request` objects (multi-model,
    scheduler-aware and real execution) or a
    :class:`~repro.serving.core.LazyRequests` view — or drive the engine
    incrementally::

        engine.start()                  # open a streaming session
        engine.submit(first_requests)   # admission while the engine runs
        engine.step()                   # execute one batch
        engine.submit(more_requests)
        result = engine.finish()        # drain the queue, close the session

    Every session keeps its requests in one columnar
    :class:`~repro.serving.core.RequestStore`, whatever the entry point: a
    trace or a request list is columnarized at :meth:`start`, a
    ``LazyRequests`` view brings its own store, and :meth:`submit` appends
    rows.  No :class:`Request` objects live in the session, keeping
    million-request sweeps cheap.

    ``scheduler`` selects the queue discipline (default FIFO); non-FIFO
    schedulers read per-request ``priority``/``deadline`` fields and
    therefore require explicit requests (see :func:`requests_from_trace`).
    """

    def __init__(
        self,
        batching: Optional[BatchingConfig] = None,
        num_servers: int = 1,
        scheduler: Optional[Scheduler] = None,
        placer: Optional[Placer] = None,
        telemetry: Optional["TelemetryBus"] = None,
        columnar: bool = True,
        tracer=None,
    ) -> None:
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        self.batching = batching if batching is not None else BatchingConfig()
        self.num_servers = int(num_servers)
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        # ``columnar`` lets finish() drain eligible FIFO sessions through
        # the vectorized core (repro.serving.core) — identical results,
        # orders of magnitude faster at trace scale.  False forces the
        # object loop everywhere (the parity-test reference).
        self.columnar = bool(columnar)
        # ``placer=None`` places through FreeClockPlacer (the seed
        # argmin-free-clock rule, bit-identical); a Placer generalizes server
        # selection for heterogeneous clusters (see repro.serving.placement).
        self.placer = placer if placer is not None else FreeClockPlacer()
        # Optional telemetry bus: receives per-batch/per-drop events for the
        # cluster control plane (see repro.serving.telemetry).
        self.telemetry = telemetry
        # Optional request-lifecycle tracer (duck-typed; see repro.obs).
        # None keeps every hot path on a single is-None branch per batch,
        # preserving bit-identity with the untraced engine.
        self.tracer = tracer
        self._fifo = isinstance(self.scheduler, FifoScheduler)
        self._endpoints: Dict[str, _Endpoint] = {}
        self._session: Optional[_Session] = None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        executor: Union[Executor, Sequence[Executor]],
        policy: Optional[RatioPolicy] = None,
        mode: str = "flexiq",
    ) -> None:
        """Register a model endpoint (executor(s) + ratio policy + mode).

        ``executor`` is either one executor shared by every server (fine for
        the stateless :class:`~repro.serving.executors.ModeledExecutor`) or a
        sequence of exactly ``num_servers`` executors, one per server — the
        configuration that gives each server its own
        :class:`~repro.serving.executors.RuntimeExecutor` and therefore its
        own prepared-kernel cache.
        """
        from repro.serving.policies import FixedRatioPolicy, policy_selector

        if policy is None:
            policy = FixedRatioPolicy(0.0)
        if isinstance(executor, (list, tuple)):
            executors = list(executor)
            if len(executors) != self.num_servers:
                raise ValueError(
                    f"got {len(executors)} executors for {self.num_servers} servers; "
                    "register one per server (or a single shared executor)"
                )
        else:
            executors = [executor] * self.num_servers
        self._endpoints[name] = _Endpoint(
            name, executors, policy, mode, policy_selector(policy)
        )

    @property
    def models(self) -> List[str]:
        return list(self._endpoints)

    # ------------------------------------------------------------------
    # Batch driver
    # ------------------------------------------------------------------
    def run(
        self,
        trace: Optional[RequestTrace] = None,
        requests: Optional[Sequence[Request]] = None,
        model: Optional[str] = None,
        duration: Optional[float] = None,
        record_responses: Optional[bool] = None,
    ) -> EngineResult:
        """Serve a trace or an explicit request list to completion.

        A thin driver over the streaming lifecycle: :meth:`start` a session
        with everything admitted up front, then :meth:`finish` (which steps
        until the queue drains).  Exactly one of ``trace`` and ``requests``
        must be given.  ``model`` names the endpoint a trace targets
        (optional when only one is registered).  ``duration`` sets the
        result's time span for throughput; it defaults to the trace
        duration, or to the makespan (time until the last batch finishes)
        for explicit request lists.  ``record_responses`` materializes
        per-request :class:`Response` objects; it defaults to on for
        explicit requests and off for traces (where only the latency arrays
        are needed).
        """
        if (trace is None) == (requests is None):
            raise ValueError("provide exactly one of trace or requests")
        self.start(
            trace=trace,
            requests=requests,
            model=model,
            duration=duration,
            record_responses=record_responses,
        )
        return self.finish()

    # ------------------------------------------------------------------
    # Streaming lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        trace: Optional[RequestTrace] = None,
        requests: Optional[Sequence[Request]] = None,
        model: Optional[str] = None,
        duration: Optional[float] = None,
        record_responses: Optional[bool] = None,
    ) -> None:
        """Open a serving session.

        For streaming use, call with no ``trace``/``requests`` (or just the
        initially known requests) and push the rest through :meth:`submit`
        while :meth:`step`\\ ping.  Ratio policies observe the requests known
        at start time via ``on_run_start`` (endpoints with no admitted
        requests are skipped, as in the seed); later submissions are served
        but not re-shown to the policies.
        """
        if self._session is not None:
            raise RuntimeError("a serving session is already open; finish() it first")
        self.batching.validate()
        if trace is not None and requests is not None:
            raise ValueError("provide exactly one of trace or requests")
        if not self._endpoints:
            raise RuntimeError("no model endpoints registered")

        if trace is not None:
            if not self._fifo:
                raise ValueError(
                    "non-FIFO schedulers read per-request priority/deadline "
                    "fields; pass explicit requests (see requests_from_trace)"
                )
            if model is None:
                if len(self._endpoints) != 1:
                    raise ValueError(
                        "model= is required when several models are registered"
                    )
                model = next(iter(self._endpoints))
            if model not in self._endpoints:
                raise KeyError(f"model {model!r} is not registered")
            # The trace caches its sorted arrivals, so repeated runs over a
            # million-request trace pay the O(n log n) sort once.
            store = RequestStore.from_trace(trace, model)
            fixed = True
            run_duration = trace.duration if duration is None else float(duration)
        else:
            if model is not None and model not in self._endpoints:
                raise KeyError(f"model {model!r} is not registered")
            if isinstance(requests, LazyRequests) and requests.rows is None:
                # Its rows are already arrival-sorted: the session aliases
                # the store's columns — no object walk, no sort, no copies.
                store, fixed = requests.store, True
            else:
                store = RequestStore.from_requests([] if requests is None else requests)
                fixed = False
            for name in store.model_names:
                if name not in self._endpoints:
                    raise KeyError(f"model {name!r} is not registered")
                if model is not None and name != model:
                    raise ValueError(
                        f"model={model!r} conflicts with a request for "
                        f"{name!r}; omit model= for multi-model request lists"
                    )
            # Without an explicit duration the run spans until the last batch
            # finishes (makespan, filled in by finish()); policies windowing
            # over admissions see the arrival horizon.
            run_duration = float(duration) if duration is not None else None

        arrivals = store.arrivals
        _require_finite(arrivals)
        if record_responses is None:
            record_responses = trace is None

        policy_horizon = run_duration
        if policy_horizon is None:
            policy_horizon = float(arrivals[-1]) if len(arrivals) else 0.0
        self._start_policies(store, trace, policy_horizon)
        self._session = _Session(
            self.num_servers,
            store,
            fixed,
            run_duration,
            record_responses,
            self._fifo,
        )

    def submit(self, requests: Union[Request, Sequence[Request]]) -> None:
        """Push requests into the open session (streaming admission).

        Requests are merged into the unserved part of the queue by arrival
        time; a request whose ``arrival_time`` lies before the engine's
        current simulated time is simply served at the next opportunity.
        """
        session = self._require_session()
        if session.fixed:
            raise RuntimeError(
                "trace and store-backed (LazyRequests) sessions are fixed at "
                "start(); open a request-list session (start() or "
                "start(requests=...)) for streaming admission"
            )
        if isinstance(requests, Request):
            requests = [requests]
        if not len(requests):
            return
        new = sorted(requests, key=lambda request: request.arrival_time)
        for request in new:
            if request.model not in self._endpoints:
                raise KeyError(f"model {request.model!r} is not registered")
        new_arrivals = np.asarray([r.arrival_time for r in new], dtype=np.float64)
        _require_finite(new_arrivals)
        first_slot = len(session.store)
        session.store.append(new)
        session.latencies = np.concatenate(
            [session.latencies, np.zeros(len(new), dtype=np.float64)]
        )
        if session.responses is not None:
            session.responses.extend([None] * len(new))
        new_slots = np.arange(first_slot, first_slot + len(new), dtype=np.intp)
        self._merge_pending(session, new_arrivals, new_slots)

    def step(self) -> Optional[BatchRecord]:
        """Execute the next batch; ``None`` when no admitted work remains."""
        return self._step_scheduled(self._require_session())

    def finish(self) -> EngineResult:
        """Drain the queue, close the session and return the result.

        The session is closed even if an executor raises mid-drain, so the
        engine stays reusable after a failed run.

        Untouched FIFO sessions that satisfy :meth:`_fast_eligible` drain
        through the columnar core (:mod:`repro.serving.core`) — identical
        results to stepping the object loop, vectorized; everything else
        (and any leftover state) drains through :meth:`step` as before.
        """
        session = self._require_session()
        try:
            if self._fast_eligible(session):
                self._run_columnar_fast(session)
            while self.step() is not None:
                pass
        finally:
            self._session = None
        return self._finalize(session)

    def abort(self) -> None:
        """Discard the open session (if any) without finalizing.

        For streaming callers stepping manually: after an executor error
        (or a decision to stop early) this resets the engine for a fresh
        :meth:`start`.
        """
        self._session = None

    def _require_session(self) -> _Session:
        if self._session is None:
            raise RuntimeError("no serving session open; call start() (or run())")
        return self._session

    # ------------------------------------------------------------------
    # Elasticity (cluster control plane)
    # ------------------------------------------------------------------
    @property
    def active_servers(self) -> List[int]:
        """Server ids eligible for new batches in the open session."""
        return list(self._require_session().active)

    def set_active_servers(
        self,
        servers: Sequence[int],
        available_from: Optional[float] = None,
    ) -> None:
        """Resize the set of servers receiving new batches (elastic scaling).

        ``servers`` are the ids (0-based) to keep active; at least one is
        required, and deactivated servers simply stop receiving batches
        (one already running finishes normally).  ``available_from``
        models provisioning lag: a *newly* activated server's clock is
        advanced to at least that time, so scale-up capacity does not
        retroactively serve the past.
        """
        session = self._require_session()
        active = sorted({int(server) for server in servers})
        if not active:
            raise ValueError("at least one server must stay active")
        for server in active:
            if not 0 <= server < self.num_servers:
                raise ValueError(
                    f"server {server} out of range (num_servers={self.num_servers})"
                )
        if available_from is not None:
            previous = set(session.active)
            for server in active:
                if server not in previous:
                    session.free_at[server] = max(
                        session.free_at[server], float(available_from)
                    )
        session.active = active

    # ------------------------------------------------------------------
    # Preemption & migration (resilience plane)
    # ------------------------------------------------------------------
    def preempt_server(
        self,
        server: int,
        time: float,
        policy=None,
        kill_running: bool = True,
        checkpoint=None,
    ):
        """Rewind a server's unfinished batches and migrate their requests.

        The fault/elasticity hook of :mod:`repro.serving.resilience`: called
        when ``server`` crashes at ``time`` (``kill_running=True`` — the
        running batch dies too, its partial work wasted) or is gracefully
        deactivated (``kill_running=False`` — the running batch finishes,
        only batches that have not *started* by ``time`` are rewound).

        ``checkpoint`` (a :class:`~repro.serving.resilience.
        CheckpointPolicy`) optionally records how much of a *running* killed
        batch's service had been checkpointed by ``time``: each victim keeps
        that fraction as surviving progress (compounding across repeated
        migrations), and when a cohort re-executes, the batch's service time
        shrinks to its largest residual demand — resumed work is not redone,
        though one fresh rider still costs the full batch.

        Every rewound batch is removed from the run's records, its requests'
        latencies/responses un-written and its telemetry contribution
        reversed (busy time up to the kill point stays billed: wasted work
        is still work).  The affected requests are then handed to ``policy``
        (a :class:`~repro.serving.resilience.MigrationPolicy`): requests it
        requeues re-enter the pending queue — ordered and gated by the
        policy's ready key, clamped to ``time`` so migration never serves
        the past — and flow back through the configured scheduler and
        placer; requests it rejects (or all of them when ``policy`` is
        ``None``: lost work) are dropped.  Returns a
        :class:`~repro.serving.resilience.Preemption` report.

        This never touches other servers' state: a session with no
        preempted work is left exactly as it was.
        """
        from repro.serving.resilience import Migrant, Preemption

        s = self._require_session()
        server = int(server)
        time = float(time)
        if not 0 <= server < self.num_servers:
            raise ValueError(
                f"server {server} out of range (num_servers={self.num_servers})"
            )
        victims: List[Tuple[BatchRecord, np.ndarray]] = []
        kept_records: List[BatchRecord] = []
        kept_slots: List[np.ndarray] = []
        for record, slots in zip(s.records, s.record_slots):
            if (
                record.server == server
                and record.finish > time
                and (kill_running or record.start >= time)
            ):
                victims.append((record, slots))
            else:
                kept_records.append(record)
                kept_slots.append(slots)
        if not victims:
            return Preemption(batches=0, migrated=0, dropped=0)
        s.records = kept_records
        s.record_slots = kept_slots

        migrant_slots: List[int] = []
        for record, slots in victims:
            # Busy time up to the kill point stays billed (wasted work);
            # service the server would have done after it is rewound.
            s.busy[server] -= record.finish - max(record.start, time)
            if checkpoint is not None and record.start < time:
                fraction = float(checkpoint.completed_fraction(record, time))
                if not 0.0 <= fraction < 1.0:
                    raise ValueError(
                        "checkpoint completed_fraction must be in [0, 1); "
                        f"got {fraction!r}"
                    )
                if fraction > 0.0:
                    price = getattr(checkpoint, "restore_seconds", None)
                    for slot in slots:
                        slot = int(slot)
                        done = s.checkpoints.get(slot, 0.0)
                        # Progress compounds: a re-migrated request already
                        # resumed from `done`, so the new checkpoints cover
                        # a fraction of the *residual* work only.
                        s.checkpoints[slot] = done + (1.0 - done) * fraction
                        if price is not None:
                            # Restoring this checkpoint on another server is
                            # not free: the resuming batch pays the transfer
                            # (see _execute).  Re-priced on re-migration —
                            # only the latest checkpoint is ever restored.
                            s.transfer_costs[slot] = float(
                                price(s.checkpoints[slot])
                            )
            if self.telemetry is not None:
                deadline_total, deadline_met = self._deadline_counts(
                    s, slots, record.finish
                )
                self.telemetry.unrecord_batch(
                    record,
                    latencies=record.finish - s.store.arrivals[slots],
                    deadline_total=deadline_total,
                    deadline_met=deadline_met,
                    kill_time=time,
                )
            if self.tracer is not None:
                self.tracer.on_preempt(record, slots, time)
            for slot in slots:
                slot = int(slot)
                s.latencies[slot] = 0.0
                s.store.status[slot] = PENDING
                if s.responses is not None:
                    s.responses[slot] = None
                migrant_slots.append(slot)
        # The server's clock rewinds to the preemption point (or the finish
        # of a still-running batch it was allowed to drain).
        s.free_at[server] = max(
            [time]
            + [record.finish for record in kept_records if record.server == server]
        )

        # The arrival heap may hold lazily-uncleaned entries from the
        # victims' first pass through the queue; when a migrant re-enters
        # ``queued_slots`` those stale entries would resurrect with the
        # *original* arrival, defeating the migration ready gate (and
        # expiring migrants against their pre-fault wait).  Preemption is
        # rare, so an explicit purge is cheap.
        if s.arrival_heap:
            preempted = set(migrant_slots)
            s.arrival_heap = [
                entry for entry in s.arrival_heap if entry[1] not in preempted
            ]
            heapq.heapify(s.arrival_heap)

        migrants = [
            Migrant(
                slot=slot,
                arrival=float(s.store.arrivals[slot]),
                deadline=s.store.deadline(slot),
                request=s.store.request(slot),
                migrations=s.migrations.get(slot, 0),
                progress=s.checkpoints.get(slot, 0.0),
            )
            for slot in migrant_slots
        ]
        if policy is None:
            keys: List[Optional[float]] = [None] * len(migrants)
        else:
            keys = list(policy.plan(migrants, time))
            if len(keys) != len(migrants):
                raise ValueError(
                    "migration policy returned "
                    f"{len(keys)} keys for {len(migrants)} migrants"
                )
        requeue_keys: List[float] = []
        requeue_slots: List[int] = []
        requeue_priors: List[int] = []
        drop_slots: List[int] = []
        for migrant, key in zip(migrants, keys):
            if key is None:
                drop_slots.append(migrant.slot)
            else:
                # Migration can never serve the past: the requeued request
                # becomes serviceable no earlier than the preemption time.
                requeue_keys.append(max(float(key), time))
                requeue_slots.append(migrant.slot)
                requeue_priors.append(migrant.migrations)
                s.migrations[migrant.slot] = s.migrations.get(migrant.slot, 0) + 1
                s.migrated += 1
        if self.tracer is not None and requeue_slots:
            self.tracer.on_requeue(requeue_slots, requeue_priors, time, server)
        if drop_slots:
            self._drop(s, np.asarray(drop_slots, dtype=np.intp), time)
        if requeue_slots:
            self._merge_pending(
                s,
                np.asarray(requeue_keys, dtype=np.float64),
                np.asarray(requeue_slots, dtype=np.intp),
            )
        return Preemption(
            batches=len(victims),
            migrated=len(requeue_slots),
            dropped=len(drop_slots),
        )

    @staticmethod
    def _deadline_counts(
        s: _Session, slots: np.ndarray, finish: float
    ) -> Tuple[int, int]:
        """(deadline-carrying, met-by-``finish``) counts for a batch's slots.

        The one definition of the deadline arithmetic telemetry records —
        and, on preemption, un-records: both must count identically or a
        rewound batch would leave phantom attainment in its window.
        """
        column = s.store.deadlines
        if column is None:
            return 0, 0
        batch = column[slots]
        carrying = ~np.isnan(batch)
        total = int(np.count_nonzero(carrying))
        met = int(np.count_nonzero(finish <= batch[carrying])) if total else 0
        return total, met

    @staticmethod
    def _slot_deadlines(s: _Session, slots: np.ndarray) -> Optional[np.ndarray]:
        """Absolute deadlines for ``slots`` (``nan`` = none), or ``None``.

        Only materialized when a tracer wants deadline-forced sampling —
        the common traced path (sample_rate=1.0) never pays for it.
        """
        column = s.store.deadlines
        return None if column is None else column[slots]

    @staticmethod
    def _merge_pending(s: _Session, keys: np.ndarray, slots: np.ndarray) -> None:
        """Merge slots into the unserved pending queue, sorted by key.

        The single place the 'pend arrays stay key-sorted, ``pos`` resets'
        invariant lives: streaming :meth:`submit` merges fresh requests by
        arrival time, and preemption merges migrants by their ready key —
        both the FIFO ordering position and the earliest time the slot can
        be admitted to a batch.  The stable sort keeps equal-key cohorts in
        insertion order.
        """
        merged = np.concatenate([s.pend_arrivals[s.pos:], keys])
        merged_slots = np.concatenate([s.pend_slots[s.pos:], slots])
        order = np.argsort(merged, kind="stable")
        s.pend_arrivals = merged[order]
        s.pend_slots = merged_slots[order]
        s.pos = 0

    def _select_server(
        self, s: _Session, time: float, model: str, pending: int, arrived: int
    ) -> int:
        """Pick the server for the next batch via the configured placer."""
        context = PlacementContext(
            time=time,
            free_at=s.free_at,
            active=s.active,
            model=model,
            pending=pending,
            batch_hint=max(1, min(arrived, self.batching.max_batch)),
            telemetry=self.telemetry,
        )
        server = int(self.placer.place(context))
        if server not in s.active:
            raise ValueError(
                f"placer returned server {server}, not in the active set {s.active}"
            )
        return server

    def _start_policies(
        self, store: RequestStore, trace: Optional[RequestTrace], duration: float
    ) -> None:
        """Show every involved policy its model's admitted trace.

        A trace run's policy sees the caller's own trace object.
        """
        arrivals = store.arrivals
        for name, endpoint in self._endpoints.items():
            if name == store.single_model:
                sub = trace if trace is not None else RequestTrace(arrivals, duration)
            else:
                mask = store.model_mask(name)
                if not mask.any():
                    continue
                sub = RequestTrace(arrivals[mask], duration)
            endpoint.policy.on_run_start(sub)

    # ------------------------------------------------------------------
    # Columnar fast core (vectorized whole-session FIFO drain)
    # ------------------------------------------------------------------
    def _fast_eligible(self, s: _Session) -> bool:
        """Whether finish() may drain this session through the columnar core.

        Every assumption the vectorized sweep bakes in is guarded here;
        anything else falls back to the object loop (identical results,
        slower).  Eligible: a columnar-enabled engine, FIFO discipline with
        the seed argmin-free-clock dispatch, an untouched single-model
        session (no steps taken, no queue, no checkpoints, no response
        recording) fixed at start (a trace or a LazyRequests view; request
        lists may still stream more via submit()), served by stateless
        modeled executors under a fixed-ratio policy.
        """
        from repro.serving.executors import ModeledExecutor
        from repro.serving.policies import FixedRatioPolicy

        if not self.columnar or not self._fifo:
            return False
        if type(self.placer) is not FreeClockPlacer:
            return False
        if s.pos != 0 or s.records or s.queue or s.dropped or s.migrated:
            return False
        if s.responses is not None or s.checkpoints or s.transfer_costs:
            return False
        if len(s.pend_arrivals) == 0 or not s.active or not s.fixed:
            return False
        model = s.store.single_model
        if model is None:
            return False
        endpoint = self._endpoints.get(model)
        if endpoint is None:
            return False
        if type(endpoint.policy) is not FixedRatioPolicy:
            return False
        return all(
            type(endpoint.executors[server]) is ModeledExecutor
            for server in s.active
        )

    def _run_columnar_fast(self, s: _Session) -> None:
        """Drain the whole pending queue through the vectorized FIFO core.

        Precomputes one service-time table per active server (the modeled
        ``batch_latency`` is a pure function of the batch size for a fixed
        mode/ratio, so table lookup returns the identical floats the
        executor would), sweeps the sorted arrivals through
        :func:`repro.serving.core.run_fifo_columnar`, then reconstructs the
        session state — per-request latencies, a columnar batch ledger,
        server clocks — and bulk-ingests telemetry.  Bit-identical to
        stepping the object loop over the same session.
        """
        model = s.store.single_model
        endpoint = self._endpoints[model]
        arrivals = s.pend_arrivals
        num_requests = len(arrivals)
        # A FixedRatioPolicy returns the same ratio for every context, and
        # ModeledExecutor never overrides it (BatchExecution.ratio is None).
        ratio = float(endpoint.policy.ratio)
        mode = endpoint.mode
        max_batch = self.batching.max_batch
        size_cap = min(int(max_batch), num_requests)
        tables: Dict[int, List[float]] = {}
        shared: Dict[int, List[float]] = {}
        for server in s.active:
            executor = endpoint.executors[server]
            table = shared.get(id(executor))
            if table is None:
                service_model = executor.service_model
                table = [0.0] + [
                    float(service_model.batch_latency(size, mode, ratio))
                    for size in range(1, size_cap + 1)
                ]
                shared[id(executor)] = table
            tables[server] = table
        run = run_fifo_columnar(
            arrivals,
            s.free_at,
            s.busy,
            s.active,
            tables,
            max_batch,
            self.batching.drop_after,
        )
        latencies = per_request_latencies(arrivals, run.seg_sizes, run.seg_finishes)
        # pend_slots is the identity map on an untouched session, so the
        # position axis IS the slot axis.
        s.latencies = latencies
        s.dropped = run.dropped
        s.records = BatchLedger(
            model, mode, ratio, run.starts, run.finishes, run.sizes,
            run.servers, run.queue_depths,
        )
        s.pos = num_requests
        status = s.store.status
        status[:num_requests] = SERVED
        for lo, hi in zip(run.drop_los.tolist(), run.drop_his.tolist()):
            status[lo:hi] = DROPPED
        if self.tracer is not None:
            # Bulk span ingestion mirrors the object loop's spans; the
            # position axis is the slot axis on an untouched session.
            self.tracer.ingest_columnar(
                run,
                arrivals,
                deadlines=s.store.deadlines if self.tracer.wants_deadlines else None,
            )
        if self.telemetry is None:
            return
        # Bulk telemetry ingestion: per-request finish times come from the
        # segment columns; positions where the finish is nan were dropped.
        finishes_per_req = (
            np.repeat(run.seg_finishes, run.seg_sizes)
            if len(run.seg_sizes)
            else np.zeros(0, dtype=np.float64)
        )
        if run.dropped:
            served_sel = ~np.isnan(finishes_per_req)
            served_latencies = latencies[served_sel]
        else:
            served_sel = None
            served_latencies = latencies
        deadline_flags = deadline_met = drop_misses = None
        deadlines = s.store.deadlines
        if deadlines is not None:
            flags_all = ~np.isnan(deadlines)
            # nan on either side compares False: dropped requests never
            # count as met, exactly like the object path.
            met_all = finishes_per_req <= deadlines
            if served_sel is not None:
                deadline_flags = flags_all[served_sel]
                deadline_met = met_all[served_sel]
                cumulative = np.zeros(num_requests + 1, dtype=np.int64)
                np.cumsum(flags_all, out=cumulative[1:])
                drop_misses = cumulative[run.drop_his] - cumulative[run.drop_los]
            else:
                deadline_flags = flags_all
                deadline_met = met_all
        self.telemetry.ingest_columnar(
            ratio=ratio,
            starts=run.starts,
            finishes=run.finishes,
            sizes=run.sizes,
            servers=run.servers,
            queue_depths=run.queue_depths,
            latencies=served_latencies,
            deadline_flags=deadline_flags,
            deadline_met=deadline_met,
            drop_times=run.drop_times if run.dropped else None,
            drop_counts=(run.drop_his - run.drop_los) if run.dropped else None,
            drop_misses=drop_misses,
        )

    # ------------------------------------------------------------------
    # Object dispatch loop (every discipline; the columnar sweep's reference)
    # ------------------------------------------------------------------
    def _step_scheduled(self, s: _Session) -> Optional[BatchRecord]:
        max_batch = self.batching.max_batch
        drop_after = self.batching.drop_after
        fifo = self._fifo

        while True:
            pending = len(s.pend_arrivals) - s.pos
            if not s.queue and not pending:
                return None
            free_min = min(map(s.free_at.__getitem__, s.active))
            if fifo:
                # FIFO places before admission.  The head is the oldest
                # unserved request, queued or not (a late submission or a
                # requeued migrant can precede every queued one).  The placer
                # sees its pend key and, as the size hint, the requests
                # arrived by the earliest possible start (under backlog the
                # batch forms then, not at the head's arrival); the batch
                # then admits up to the *placed* server's start.
                if s.queue:
                    _, head_time, _, head_slot = s.queue[0]
                if pending and (not s.queue or s.pend_arrivals[s.pos] < head_time):
                    head_time = float(s.pend_arrivals[s.pos])
                    head_slot = s.pend_slots[s.pos]
                # The hint is capped at max_batch, so its pending search is.
                earliest = max(free_min, head_time)
                arrived = self._queued_by(s, earliest) + bisect.bisect_right(
                    s.pend_arrivals, earliest, s.pos, s.pos + min(pending, max_batch)
                ) - s.pos
                server = self._select_server(
                    s, head_time, s.store.model_name(head_slot),
                    len(s.queue) + pending, arrived,
                )
                start = max(s.free_at[server], head_time)
            else:
                # Admission and expiry run against the earliest-free active
                # clock *before* placement: admitting can reorder the queue
                # head (EDF/priority) and expiry can remove it, and the
                # placer must see the head that will actually lead the batch.
                if s.queue:
                    head_time = self._earliest_queued_arrival(s)
                else:
                    head_time = float(s.pend_arrivals[s.pos])
                start = max(free_min, head_time)
            self._admit(s, start)

            # Expiry restarts the loop after dropping: the queue head (and
            # its model) may have changed, so placement must re-decide.
            if drop_after is not None and self._expire_queued(s, start, drop_after):
                continue

            head_model = s.store.model_name(s.queue[0][3])
            if not fifo:
                # The queue head is now final: place the batch's server.  A
                # placer may pick a later-free server, whose service then
                # begins when that server frees (admission stays anchored to
                # the earliest-free clock, so a batch never contains a
                # request that has not arrived by its service start).
                server = self._select_server(
                    s, start, head_model, len(s.queue) + pending, len(s.queue)
                )
                placed_start = max(s.free_at[server], start)
                if placed_start > start and drop_after is not None:
                    # Re-check expiry against the real service start so
                    # drop_after means the same thing on every placement (a
                    # request never waits beyond it).
                    if self._expire_queued(s, placed_start, drop_after):
                        continue
                start = placed_start

            batch_entries: List[Tuple[Tuple, float, int, int]] = []
            if fifo:
                # Head-of-line batching: a FIFO batch is a run of consecutive
                # same-model requests arrived by its start.  Entries an
                # earlier, later-starting batch admitted stay queued (and
                # out of this batch's queue depth): they follow every entry
                # arrived by the start in queue order.
                queue_depth = self._queued_by(s, start)
                mixed = s.store.single_model is None
                for _ in range(min(max_batch, queue_depth)):
                    if mixed and s.store.model_name(s.queue[0][3]) != head_model:
                        break
                    batch_entries.append(s.queue.popleft())
                self._fifo_served(s, len(batch_entries))
            else:
                # Pop same-model requests in scheduler order; requests of
                # other models encountered along the way go back on the heap.
                queue_depth = len(s.queue)
                stash: List[Tuple[Tuple, float, int, int]] = []
                while s.queue and len(batch_entries) < max_batch:
                    entry = heapq.heappop(s.queue)
                    if s.store.model_name(entry[3]) == head_model:
                        batch_entries.append(entry)
                    else:
                        stash.append(entry)
                for entry in stash:
                    heapq.heappush(s.queue, entry)
                s.queued_slots.difference_update(e[3] for e in batch_entries)
            slots = np.asarray([entry[3] for entry in batch_entries], dtype=np.intp)
            return self._execute(s, server, start, head_model, slots, queue_depth)

    def _admit(self, s: _Session, start: float) -> None:
        """Move every pending request whose pend key is <= ``start`` to the queue.

        The pend key — the arrival time for fresh requests, the
        migration-ready key for requeued migrants — is what queue ordering
        ties break on and what ``drop_after`` waiting is measured from, so a
        migrant's wait restarts at its migration.
        """
        end_index = bisect.bisect_right(s.pend_arrivals, start, lo=s.pos)
        if end_index == s.pos:
            return
        chunk_slots = s.pend_slots[s.pos:end_index]
        slots = chunk_slots.tolist()
        arrivals = s.pend_arrivals[s.pos:end_index].tolist()
        s.pos = end_index
        if self._fifo:
            # FIFO's key is empty and it breaks equal pend keys by admission
            # order, so a requeued migrant queues behind work already pending
            # at its ready time.
            entries = zip(
                repeat(()), arrivals, range(s.admitted, s.admitted + len(slots)), slots
            )
            s.admitted += len(slots)
            if not s.queue:
                s.fifo_keys, s.fifo_head = [], 0
            if not s.queue or arrivals[0] >= s.fifo_keys[-1]:
                # Behind every queued entry (the usual case).
                s.queue.extend(entries)
                s.fifo_keys.extend(arrivals)
            else:
                for entry in entries:
                    bisect.insort(s.queue, entry)
                    bisect.insort(s.fifo_keys, entry[1], lo=s.fifo_head)
            return
        # Vectorized key extraction over the columnar store — same key values
        # as scheduler.key on the object views.
        keys = store_keys(self.scheduler, s.store, chunk_slots)
        # Equal pend keys break by slot (the original arrival order).
        for key, arrival, slot in zip(keys, arrivals, slots):
            heapq.heappush(s.queue, (key, arrival, slot, slot))
            heapq.heappush(s.arrival_heap, (arrival, slot))
            s.queued_slots.add(slot)

    @staticmethod
    def _fifo_served(s: _Session, count: int) -> None:
        """Retire the ``count`` smallest FIFO pend keys (just popped)."""
        s.fifo_head += count
        if s.fifo_head > 1024 and 2 * s.fifo_head > len(s.fifo_keys):
            del s.fifo_keys[:s.fifo_head]
            s.fifo_head = 0

    @staticmethod
    def _queued_by(s: _Session, time: float) -> int:
        """Number of queued FIFO requests whose pend key is <= ``time``."""
        return bisect.bisect_right(s.fifo_keys, time, lo=s.fifo_head) - s.fifo_head

    def _expire_queued(self, s: _Session, start: float, drop_after: float) -> bool:
        """Drop queued requests that waited beyond ``drop_after`` by ``start``.

        Returns True when anything was dropped (callers restart their
        dispatch loop: the queue head may have changed).  The earliest
        queued pend key answers whether anything expired at all.  FIFO's
        expired entries are a prefix of its queue (float subtraction
        is monotone) and pop from the head; other disciplines filter the
        queue.
        """
        if not s.queue:
            return False
        if not (start - self._earliest_queued_arrival(s) > drop_after):
            return False
        if self._fifo:
            expired = []
            while s.queue and start - s.queue[0][1] > drop_after:
                expired.append(s.queue.popleft())
            self._fifo_served(s, len(expired))
        else:
            expired = [e for e in s.queue if start - e[1] > drop_after]
            kept = [e for e in s.queue if start - e[1] <= drop_after]
            heapq.heapify(kept)
            s.queue = kept
            s.queued_slots.difference_update(e[3] for e in expired)
        self._drop(s, np.asarray([e[3] for e in expired], dtype=np.intp), start)
        return True

    def _earliest_queued_arrival(self, s: _Session) -> float:
        """Earliest pend key among queued requests (queue must be non-empty).

        FIFO's queue head holds it.  Otherwise ``arrival_heap`` holds one
        entry per ever-queued slot; entries whose slot already left the
        queue are discarded lazily here, keeping the lookup amortized
        O(log queue) instead of a per-batch linear scan.
        """
        if self._fifo:
            return s.queue[0][1]
        heap = s.arrival_heap
        while heap and heap[0][1] not in s.queued_slots:
            heapq.heappop(heap)
        return heap[0][0]

    # ------------------------------------------------------------------
    # Shared batch execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        s: _Session,
        server: int,
        start: float,
        head_model: str,
        slots: np.ndarray,
        queue_depth: int,
    ) -> BatchRecord:
        endpoint = self._endpoints[head_model]
        batch_size = len(slots)
        context = PolicyContext(
            time=start,
            queue_depth=queue_depth,
            batch_size=batch_size,
            model=head_model,
            server=server,
            telemetry=self.telemetry,
            num_active=len(s.active),
        )
        ratio = float(endpoint.select(context))
        batch = Batch(
            model=head_model,
            start_time=start,
            size=batch_size,
            indices=slots,
            requests=LazyRequests(s.store, slots),
            server=server,
        )
        execution = endpoint.executors[server].execute(batch, endpoint.mode, ratio)
        service_time = float(execution.service_time)
        if s.checkpoints:
            # Partial-batch checkpointing: a batch executes its members'
            # remaining steps jointly, so the cohort pays its *largest*
            # residual demand (a single fresh member costs the full batch).
            # Consumed either way — re-running from scratch voids the saved
            # progress just as resuming does.
            residual = 0.0
            for slot in slots:
                residual = max(
                    residual, 1.0 - s.checkpoints.pop(int(slot), 0.0)
                )
            if residual < 1.0:
                service_time *= residual
                if s.transfer_costs:
                    # Checkpoint restores happen in parallel across the
                    # cohort (each migrant streams its own state), so the
                    # batch stalls for the slowest transfer — the same
                    # largest-member convention as the residual above.  A
                    # full re-execution (residual == 1.0) restores nothing
                    # and pays nothing.
                    service_time += max(
                        s.transfer_costs.pop(int(slot), 0.0) for slot in slots
                    )
        if s.transfer_costs:
            for slot in slots:
                s.transfer_costs.pop(int(slot), None)
        # Record the ratio the batch actually ran at, which executors may
        # override (mode pinning); metrics built on batch_ratios must
        # reflect executed configurations, not requested ones.
        if execution.ratio is not None:
            ratio = float(execution.ratio)
        finish = start + service_time
        s.latencies[slots] = finish - s.store.arrivals[slots]
        s.store.status[slots] = SERVED
        record = BatchRecord(
            head_model, start, finish, batch_size, ratio, endpoint.mode, server,
            queue_depth,
        )
        s.records.append(record)
        s.record_slots.append(slots)
        if self.telemetry is not None:
            deadline_total, deadline_met = self._deadline_counts(s, slots, finish)
            self.telemetry.record_batch(
                record,
                queue_depth=queue_depth,
                latencies=finish - s.store.arrivals[slots],
                deadline_total=deadline_total,
                deadline_met=deadline_met,
            )
        if self.tracer is not None:
            self.tracer.on_batch(
                record,
                slots,
                s.store.arrivals[slots],
                deadlines=(
                    self._slot_deadlines(s, slots)
                    if self.tracer.wants_deadlines
                    else None
                ),
            )
        if s.responses is not None:
            outputs = execution.outputs
            for position, slot in enumerate(slots):
                s.responses[int(slot)] = self._response(
                    s, int(slot), head_model, start, finish, batch_size, ratio,
                    mode=endpoint.mode, server=server,
                    output=outputs[position] if outputs is not None else None,
                )
        s.busy[server] += service_time
        s.free_at[server] = finish
        return record

    def _drop(self, s: _Session, slots: np.ndarray, start: float) -> None:
        """Expire ``slots`` (waited beyond ``drop_after``) at time ``start``."""
        s.dropped += len(slots)
        s.latencies[slots] = np.nan
        s.store.status[slots] = DROPPED
        if s.checkpoints or s.transfer_costs:
            for slot in slots:
                s.checkpoints.pop(int(slot), None)
                s.transfer_costs.pop(int(slot), None)
        if self.telemetry is not None:
            deadlines = s.store.deadlines
            misses = (
                0 if deadlines is None
                else int(np.count_nonzero(~np.isnan(deadlines[slots])))
            )
            self.telemetry.record_drops(start, len(slots), deadline_misses=misses)
        if self.tracer is not None:
            self.tracer.on_drop(slots, s.store.arrivals[slots], start)
        if s.responses is not None:
            for slot in slots:
                slot = int(slot)
                model = s.store.model_name(slot)
                s.responses[slot] = self._response(
                    s, slot, model, start, float("nan"), 0, float("nan"),
                    mode=self._endpoints[model].mode, dropped=True,
                )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _finalize(self, s: _Session) -> EngineResult:
        duration = s.duration
        if duration is None:
            # Makespan: from time zero until the last accelerator went idle
            # (or the last arrival, if everything after it was dropped).
            arrivals = s.store.arrivals
            last_arrival = float(arrivals[-1]) if len(arrivals) else 0.0
            duration = max(max(s.free_at), last_arrival)
        valid = s.latencies[~np.isnan(s.latencies)]
        single_model = s.store.single_model
        return EngineResult(
            latencies=valid,
            request_latencies=s.latencies,
            request_models=(
                None if single_model is not None else s.store.model_name_list()
            ),
            batch_records=s.records,
            dropped=s.dropped,
            duration=duration,
            busy_time=float(sum(s.busy)),
            responses=s.responses,
            _single_model=single_model,
            num_servers=self.num_servers,
            server_busy_times=list(s.busy),
            migrated=s.migrated,
        )

    def _response(
        self,
        s: _Session,
        slot: int,
        model: str,
        start: float,
        finish: float,
        batch_size: int,
        ratio: float,
        mode: str = "",
        dropped: bool = False,
        output: Any = None,
        server: int = 0,
    ) -> Response:
        store = s.store
        return Response(
            request_id=store.request_id(slot),
            model=model,
            arrival_time=float(store.arrivals[slot]),
            start_time=start,
            finish_time=finish,
            batch_size=batch_size,
            ratio=ratio,
            mode=mode,
            dropped=dropped,
            output=output,
            priority=store.priority(slot),
            deadline=store.deadline(slot),
            server=server,
            migrations=s.migrations.get(slot, 0),
        )
