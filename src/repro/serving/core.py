"""Columnar serving core: arrays behind the object API.

Carrying one Python ``Request`` object per request through the dispatch
loop is fine at 10^4 requests and hopeless at a realistic diurnal day
(>= 10^6).  Here the hot state lives in parallel numpy columns, and the
object API survives as thin lazily materialized views.

Views vs. copies
================
* :class:`RequestStore` owns the columns (one contiguous ``float64``/
  integer array per field).  Every :class:`~repro.serving.engine.
  ServingEngine` session runs on one: a trace or a plain request list is
  columnarized at ``start()`` (streaming ``submit()`` appends rows), and a
  :class:`LazyRequests` view hands over its store as is.
  ``store.arrivals`` *is* the engine's arrival array — no copy is taken.
  Columns that hold one value for every row (a single model, identity
  request ids, no priorities/deadlines/generation profiles) stay ``None``.
* :class:`LazyRequests` is a zero-copy ``Sequence[Request]`` view over a
  store, or over selected rows of it; indexing materializes a single
  transient :class:`Request`.  ``Batch.requests`` is such a view over the
  batch's rows, so only executors that read requests pay for them.
* :class:`BatchLedger` is a columnar ``Sequence[BatchRecord]``: the batch
  arrays are owned, each ``ledger[i]`` materializes one record on demand.
* Per-request latencies are computed once, vectorized, as
  ``repeat(segment_finish, segment_size) - arrivals`` — a fresh array, not
  a view, because the session owns it past the run.
* Telemetry ingestion groups per-request latencies into per-window chunks
  (fresh arrays); everything else aggregates into scalar accumulators.

The unbreakable invariant: a K=1 FIFO run through the columnar core is
**bit-identical** to the seed simulator — same admission boundaries, same
batch formation, same IEEE-754 arithmetic (``start + service``,
``finish - arrival``), same drop predicate (``start - arrival >
drop_after`` re-applied exactly at the searchsorted boundary).
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "RequestStore",
    "LazyRequests",
    "BatchLedger",
    "ColumnarFifoRun",
    "run_fifo_columnar",
    "per_request_latencies",
    "ReservoirSample",
]


# Request status column values.
PENDING = 0
SERVED = 1
DROPPED = 2


# ----------------------------------------------------------------------
# Columnar request storage
# ----------------------------------------------------------------------
def _roundrobin_column(values: Sequence, n: int, dtype) -> np.ndarray:
    """``values`` tiled round-robin to length ``n`` (the trace convention)."""
    pool = np.asarray(values, dtype=dtype)
    if len(pool) >= n:
        return pool[:n].copy()
    reps = -(-n // len(pool))  # ceil
    return np.tile(pool, reps)[:n]


class RequestStore:
    """Columnar storage for a cohort of requests (structure-of-arrays).

    One contiguous array per field; :class:`Request` objects exist only as
    transient views built by :meth:`request`.  ``arrivals`` must be sorted
    ascending for the engine to admit from it directly (both constructors
    guarantee it; rows added by :meth:`append` for streaming admission
    follow in append order and are merged by the engine).

    A column holding one value for every row is ``None``: ``model_ids``
    (every row targets ``model_names[0]``), ``request_ids`` (each row's id
    is its index), ``priorities`` (0), ``deadlines`` (none) and the
    generation profile (0).  ``deadlines`` uses ``nan`` as the "no
    deadline" sentinel so the column stays a dense ``float64`` array;
    :meth:`deadline` converts back to ``None`` at the view boundary.
    ``status`` tracks request outcomes (``PENDING`` / ``SERVED`` /
    ``DROPPED``) and is maintained by the engine.
    """

    __slots__ = (
        "arrivals",
        "model_ids",
        "model_names",
        "request_ids",
        "priorities",
        "deadlines",
        "prefill_tokens",
        "max_new_tokens",
        "status",
        "payload_pool",
        "payload_list",
    )

    def __init__(
        self,
        arrivals: np.ndarray,
        model_names: Sequence[str],
        model_ids: Optional[np.ndarray] = None,
        request_ids: Optional[np.ndarray] = None,
        priorities: Optional[np.ndarray] = None,
        deadlines: Optional[np.ndarray] = None,
        prefill_tokens: Optional[np.ndarray] = None,
        max_new_tokens: Optional[np.ndarray] = None,
        payload_pool: Optional[Sequence] = None,
        payload_list: Optional[Sequence] = None,
    ) -> None:
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        n = len(self.arrivals)
        self.model_names = list(model_names)
        if n and not self.model_names:
            raise ValueError("model_names must name at least one model")
        self.model_ids = _column(model_ids, np.int32)
        self.request_ids = _column(request_ids, np.int64)
        self.priorities = _column(priorities, np.int64)
        self.deadlines = _column(deadlines, np.float64)
        self.prefill_tokens = _column(prefill_tokens, np.int64)
        self.max_new_tokens = _column(max_new_tokens, np.int64)
        self.status = np.full(n, PENDING, dtype=np.int8)
        # Payloads: a round-robin pool (trace convention, request i gets
        # pool[i % len(pool)]) or a full per-request list — never both.
        self.payload_pool = list(payload_pool) if payload_pool is not None else None
        self.payload_list = list(payload_list) if payload_list is not None else None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace,
        model: str = "default",
        payloads: Optional[Sequence] = None,
        priorities: Optional[Sequence[int]] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
        prefill_tokens: Optional[Sequence[int]] = None,
        max_new_tokens: Optional[Sequence[int]] = None,
    ) -> "RequestStore":
        """Columnar equivalent of :func:`repro.serving.engine.requests_from_trace`.

        Same semantics, zero ``Request`` objects: metadata pools attach
        round-robin in arrival order, ``deadlines`` entries are relative
        SLOs (the column stores ``arrival + slo``, elementwise — the exact
        IEEE sum the eager constructor computes per request).
        """
        if payloads is not None and len(payloads) == 0:
            raise ValueError("payloads must be non-empty (or None for no payloads)")
        if priorities is not None and len(priorities) == 0:
            raise ValueError("priorities must be non-empty (or None)")
        if deadlines is not None and len(deadlines) == 0:
            raise ValueError("deadlines must be non-empty (or None)")
        if prefill_tokens is not None and len(prefill_tokens) == 0:
            raise ValueError("prefill_tokens must be non-empty (or None)")
        if max_new_tokens is not None and len(max_new_tokens) == 0:
            raise ValueError("max_new_tokens must be non-empty (or None)")
        if hasattr(trace, "sorted_arrivals"):
            arrivals = trace.sorted_arrivals()
        else:
            arrivals = np.sort(np.asarray(trace.arrival_times, dtype=np.float64))
        n = len(arrivals)
        deadline_col = None
        if deadlines is not None:
            slo = _roundrobin_column(
                [np.nan if value is None else float(value) for value in deadlines],
                n,
                np.float64,
            )
            deadline_col = arrivals + slo
        return cls(
            arrivals,
            model_names=[model],
            priorities=(
                _roundrobin_column(priorities, n, np.int64)
                if priorities is not None
                else None
            ),
            deadlines=deadline_col,
            prefill_tokens=(
                _roundrobin_column(prefill_tokens, n, np.int64)
                if prefill_tokens is not None
                else None
            ),
            max_new_tokens=(
                _roundrobin_column(max_new_tokens, n, np.int64)
                if max_new_tokens is not None
                else None
            ),
            payload_pool=payloads,
        )

    @classmethod
    def from_requests(cls, requests: Sequence) -> "RequestStore":
        """Columnarize explicit :class:`Request` objects (arrival-sorted)."""
        order = sorted(range(len(requests)), key=lambda i: requests[i].arrival_time)
        store = cls(np.zeros(0), [])
        store.append([requests[i] for i in order])
        return store

    def append(self, requests: Sequence) -> None:
        """Append one row per :class:`Request`, in the given order.

        A request's ``request_id`` below 0 means its row index.  Columns
        stay ``None`` while every row holds the default value and
        materialize the first time an appended row does not.
        """
        if self.payload_pool is not None:
            raise ValueError("a store with a round-robin payload pool cannot grow")
        n = len(self)
        names = {name: index for index, name in enumerate(self.model_names)}
        for request in requests:
            if request.model not in names:
                names[request.model] = len(self.model_names)
                self.model_names.append(request.model)
        self.arrivals = np.concatenate(
            [self.arrivals, [float(r.arrival_time) for r in requests]]
        )
        self.status = np.concatenate(
            [self.status, np.full(len(requests), PENDING, dtype=np.int8)]
        )
        self.model_ids = _extend(
            self.model_ids, n, [names[r.model] for r in requests], 0, np.int32
        )
        self.priorities = _extend(
            self.priorities, n, [r.priority for r in requests], 0, np.int64
        )
        self.deadlines = _extend(
            self.deadlines, n,
            [np.nan if r.deadline is None else r.deadline for r in requests],
            np.nan, np.float64,
        )
        self.prefill_tokens = _extend(
            self.prefill_tokens, n, [r.prefill_tokens for r in requests], 0, np.int64
        )
        self.max_new_tokens = _extend(
            self.max_new_tokens, n, [r.max_new_tokens for r in requests], 0, np.int64
        )
        rows = np.arange(n, len(self), dtype=np.int64)
        ids = np.asarray([r.request_id for r in requests], dtype=np.int64)
        ids = np.where(ids >= 0, ids, rows)
        if self.request_ids is not None or not np.array_equal(ids, rows):
            previous = np.arange(n) if self.request_ids is None else self.request_ids
            self.request_ids = np.concatenate([previous, ids])
        payloads = [r.payload for r in requests]
        if self.payload_list is None and any(p is not None for p in payloads):
            self.payload_list = [None] * n
        if self.payload_list is not None:
            self.payload_list.extend(payloads)

    # -- column access --------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def single_model(self) -> Optional[str]:
        """The one model every request targets, or ``None`` if mixed."""
        if len(self.model_names) == 1:
            return self.model_names[0]
        return None

    def model_name(self, i: int) -> str:
        if self.model_ids is None:
            return self.model_names[0]
        return self.model_names[self.model_ids[i]]

    def model_mask(self, name: str) -> np.ndarray:
        """Boolean mask of requests targeting ``name`` (vectorized)."""
        if name not in self.model_names:
            return np.zeros(len(self), dtype=bool)
        if self.model_ids is None:
            return np.ones(len(self), dtype=bool)
        return self.model_ids == self.model_names.index(name)

    def model_name_list(self) -> List[str]:
        """Per-request model names (materializes one list of shared strings)."""
        if self.model_ids is None:
            return self.model_names[:1] * len(self)
        return [self.model_names[model_id] for model_id in self.model_ids.tolist()]

    def request_id(self, i: int) -> int:
        return int(i) if self.request_ids is None else int(self.request_ids[i])

    def priority(self, i: int) -> int:
        return 0 if self.priorities is None else int(self.priorities[i])

    def deadline(self, i: int) -> Optional[float]:
        if self.deadlines is None or np.isnan(self.deadlines[i]):
            return None
        return float(self.deadlines[i])

    def payload(self, i: int):
        if self.payload_pool is not None:
            return self.payload_pool[i % len(self.payload_pool)]
        if self.payload_list is not None:
            return self.payload_list[i]
        return None

    # -- view materialization -------------------------------------------
    def request(self, i: int):
        """Materialize the :class:`~repro.serving.engine.Request` view of row ``i``."""
        from repro.serving.engine import Request

        i = int(i)
        return Request(
            arrival_time=float(self.arrivals[i]),
            model=self.model_name(i),
            request_id=self.request_id(i),
            payload=self.payload(i),
            priority=self.priority(i),
            deadline=self.deadline(i),
            prefill_tokens=(
                int(self.prefill_tokens[i]) if self.prefill_tokens is not None else 0
            ),
            max_new_tokens=(
                int(self.max_new_tokens[i]) if self.max_new_tokens is not None else 0
            ),
        )


def _column(values, dtype) -> Optional[np.ndarray]:
    return None if values is None else np.asarray(values, dtype=dtype)


def _extend(column, n: int, values, default, dtype) -> Optional[np.ndarray]:
    """``column`` (``None`` = ``n`` rows of ``default``) extended by ``values``.

    Stays ``None`` while every value equals ``default`` (``nan`` included).
    """
    new = np.asarray(values, dtype=dtype)
    if column is None:
        at_default = np.isnan(new) if np.isnan(default) else new == default
        if at_default.all():
            return None
        column = np.full(n, default, dtype=dtype)
    return np.concatenate([column, new])


class LazyRequests(_SequenceABC):
    """Zero-copy ``Sequence[Request]`` view over a :class:`RequestStore`.

    Without ``rows`` the view spans the whole store: rows are
    arrival-sorted (the store invariant), so the engine skips the
    admission re-sort and aliases ``store.arrivals`` directly.  With
    ``rows`` (an index array) it spans just those rows, in that order —
    the engine's ``Batch.requests``.  Indexing materializes one transient
    :class:`~repro.serving.engine.Request`; nothing holds the views alive,
    so peak RSS stays O(columns) instead of O(requests x object overhead).
    """

    __slots__ = ("store", "rows")

    def __init__(self, store: RequestStore, rows: Optional[np.ndarray] = None) -> None:
        self.store = store
        self.rows = rows

    def __len__(self) -> int:
        return len(self.store) if self.rows is None else len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.store.request(i if self.rows is None else self.rows[i])


# ----------------------------------------------------------------------
# Columnar batch ledger
# ----------------------------------------------------------------------
class BatchLedger(_SequenceABC):
    """Columnar ``Sequence[BatchRecord]`` (single model/mode/ratio cohort).

    The columnar FIFO core emits one row per batch into parallel arrays;
    record objects materialize lazily on indexing, so a million-batch run
    stores five arrays instead of a million dataclass instances.
    """

    __slots__ = ("model", "mode", "ratio", "starts", "finishes", "sizes",
                 "servers", "queue_depths")

    def __init__(
        self,
        model: str,
        mode: str,
        ratio: float,
        starts: np.ndarray,
        finishes: np.ndarray,
        sizes: np.ndarray,
        servers: np.ndarray,
        queue_depths: np.ndarray,
    ) -> None:
        self.model = model
        self.mode = mode
        self.ratio = float(ratio)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.finishes = np.asarray(finishes, dtype=np.float64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.servers = np.asarray(servers, dtype=np.int64)
        self.queue_depths = np.asarray(queue_depths, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        from repro.serving.engine import BatchRecord

        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return BatchRecord(
            model=self.model,
            start=float(self.starts[i]),
            finish=float(self.finishes[i]),
            size=int(self.sizes[i]),
            ratio=self.ratio,
            mode=self.mode,
            server=int(self.servers[i]),
            queue_depth=int(self.queue_depths[i]),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, BatchLedger):
            return (
                self.model == other.model
                and self.mode == other.mode
                and self.ratio == other.ratio
                and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.finishes, other.finishes)
                and np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.servers, other.servers)
                and np.array_equal(self.queue_depths, other.queue_depths)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                self[i] == other[i] for i in range(len(self))
            )
        return NotImplemented

    __hash__ = None  # mutable container semantics, like list

    def append(self, record) -> None:
        """Grow the ledger by one (already-materialized) record.

        Rare slow path — only control-plane code appends after a fast run
        (the hot loop never does); O(n) per call, so callers batching many
        appends should rebuild the arrays instead.
        """
        if record.model != self.model or record.mode != self.mode or (
            float(record.ratio) != self.ratio
        ):
            raise ValueError("BatchLedger holds a single model/mode/ratio cohort")
        self.starts = np.append(self.starts, float(record.start))
        self.finishes = np.append(self.finishes, float(record.finish))
        self.sizes = np.append(self.sizes, int(record.size))
        self.servers = np.append(self.servers, int(record.server))
        self.queue_depths = np.append(self.queue_depths, int(record.queue_depth))


# ----------------------------------------------------------------------
# Columnar FIFO fast core
# ----------------------------------------------------------------------
@dataclass
class ColumnarFifoRun:
    """Everything a columnar FIFO sweep produced, still in columns.

    ``seg_sizes``/``seg_finishes`` partition the arrival order into
    consecutive segments — one per batch (finish time) and one per drop
    cohort (``nan``) — so per-request latencies reconstruct vectorized via
    :func:`per_request_latencies` without a per-request loop.
    """

    starts: np.ndarray
    finishes: np.ndarray
    sizes: np.ndarray
    servers: np.ndarray
    queue_depths: np.ndarray
    seg_sizes: np.ndarray
    seg_finishes: np.ndarray
    drop_times: np.ndarray          # one entry per drop cohort
    drop_los: np.ndarray            # cohort position range [lo, hi) ...
    drop_his: np.ndarray            # ... in arrival order
    dropped: int


def run_fifo_columnar(
    arrivals: np.ndarray,
    free_at: List[float],
    busy: List[float],
    active: Sequence[int],
    latency_tables: Dict[int, Sequence[float]],
    max_batch: int,
    drop_after: Optional[float],
) -> ColumnarFifoRun:
    """Sweep sorted ``arrivals`` through the FIFO dispatch rule, columnar.

    Bit-identical to the engine's object loop
    (:meth:`repro.serving.engine.ServingEngine.step`) under FIFO with the
    seed argmin-free-clock rule: same ``start = max(free, arrival)``, same
    admission of every request arrived by ``start``, same ``start - arrival
    > drop_after`` expiry predicate, and ``finish = start + service`` with the
    *same* service times (``latency_tables[server][size]`` must be the
    executor's ``batch_latency`` evaluated per size).  ``free_at``/``busy``
    are mutated in place, exactly as the object loop leaves them.

    The loop runs over a plain Python float list (numpy scalar extraction
    per element is what makes the object loop slow); all per-request work
    is deferred to the vectorized epilogue.
    """
    arr = arrivals.tolist()
    n = len(arr)
    pos = 0
    starts: List[float] = []
    finishes: List[float] = []
    sizes: List[int] = []
    servers: List[int] = []
    depths: List[int] = []
    drop_times: List[float] = []
    drop_los: List[int] = []
    drop_his: List[int] = []
    dropped = 0

    active_list = sorted(active)
    single = len(active_list) == 1
    only = active_list[0] if single else -1
    table = latency_tables[only] if single else None
    # Free-clock heap: (free_at, server) pops the earliest-free server,
    # ties by lowest id — exactly ``min(active, key=free_at.__getitem__)``
    # over the ascending active list, in O(log K) with no key calls.
    clock_heap = [(free_at[server], server) for server in active_list]
    heapq.heapify(clock_heap)
    replace = heapq.heapreplace
    push_right = bisect.bisect_right
    push_left = bisect.bisect_left
    starts_append = starts.append
    finishes_append = finishes.append
    sizes_append = sizes.append
    servers_append = servers.append
    depths_append = depths.append

    while pos < n:
        first_arrival = arr[pos]
        if single:
            server = only
            free = free_at[only]
        else:
            free, server = clock_heap[0]
        start = free if free >= first_arrival else first_arrival
        # Galloping admission boundary: most batches admit only a few
        # requests, so bracket [pos, hi) by doubling steps before the
        # bisect — O(log(backlog)) instead of O(log n) per batch, with the
        # identical boundary (bisect_right over the same sorted floats).
        step = 8
        lo = pos
        hi = pos + step
        while hi < n and arr[hi] <= start:
            lo = hi
            step += step
            hi = pos + step
        end_index = push_right(arr, start, lo, hi if hi < n else n)

        if drop_after is not None:
            # Expired prefix: searchsorted boundary + a walk that re-applies
            # the object loop's exact per-request predicate.
            cut = start - drop_after
            fresh = push_left(arr, cut, pos, end_index)
            while fresh > pos and not (start - arr[fresh - 1] > drop_after):
                fresh -= 1
            while fresh < end_index and (start - arr[fresh]) > drop_after:
                fresh += 1
            if fresh > pos:
                dropped += fresh - pos
                drop_times.append(start)
                drop_los.append(pos)
                drop_his.append(fresh)
                pos = fresh
                continue  # head changed: re-derive server and start

        limit = pos + max_batch
        if end_index < limit:
            limit = end_index
        if limit == pos:
            limit = pos + 1  # serve at least the request that triggered us
        size = limit - pos
        service = table[size] if single else latency_tables[server][size]
        finish = start + service

        starts_append(start)
        finishes_append(finish)
        sizes_append(size)
        servers_append(server)
        depths_append(end_index - pos)
        busy[server] += service
        free_at[server] = finish
        if not single:
            replace(clock_heap, (finish, server))
        pos = limit

    sizes_col = np.asarray(sizes, dtype=np.int64)
    finishes_col = np.asarray(finishes, dtype=np.float64)
    drop_lo_col = np.asarray(drop_los, dtype=np.int64)
    drop_hi_col = np.asarray(drop_his, dtype=np.int64)
    if len(drop_lo_col) == 0:
        # No drop cohorts: the segment partition IS the batch sequence.
        seg_sizes = sizes_col
        seg_finishes = finishes_col
    elif len(sizes_col) == 0:
        seg_sizes = drop_hi_col - drop_lo_col
        seg_finishes = np.full(len(drop_lo_col), np.nan)
    else:
        # Reconstruct the pos-ordered segment interleave (one segment per
        # batch, one nan segment per drop cohort) from the absolute arrival
        # positions each covers: batch k's first position is the
        # ``cumsum``-th surviving (non-dropped) position, a drop cohort's
        # is its recorded ``lo``.  All first-positions are distinct, so a
        # plain merge sort of the two runs restores loop order.
        served_mask = np.ones(n, dtype=bool)
        for lo, hi in zip(drop_los, drop_his):
            served_mask[lo:hi] = False
        served_positions = np.flatnonzero(served_mask)
        offsets = np.concatenate(([0], np.cumsum(sizes_col)[:-1]))
        batch_first = served_positions[offsets]
        order = np.argsort(
            np.concatenate([batch_first, drop_lo_col]), kind="stable"
        )
        seg_sizes = np.concatenate([sizes_col, drop_hi_col - drop_lo_col])[order]
        seg_finishes = np.concatenate(
            [finishes_col, np.full(len(drop_lo_col), np.nan)]
        )[order]

    return ColumnarFifoRun(
        starts=np.asarray(starts, dtype=np.float64),
        finishes=finishes_col,
        sizes=sizes_col,
        servers=np.asarray(servers, dtype=np.int64),
        queue_depths=np.asarray(depths, dtype=np.int64),
        seg_sizes=seg_sizes,
        seg_finishes=seg_finishes,
        drop_times=np.asarray(drop_times, dtype=np.float64),
        drop_los=drop_lo_col,
        drop_his=drop_hi_col,
        dropped=dropped,
    )


def per_request_latencies(
    arrivals: np.ndarray, seg_sizes: np.ndarray, seg_finishes: np.ndarray
) -> np.ndarray:
    """Per-request latencies from segment columns, vectorized.

    ``repeat(finish, size) - arrival`` performs the identical elementwise
    IEEE subtraction the object loop's ``finish - slot_arrivals[slots]``
    does per batch; drop segments carry ``nan`` finishes, which propagate
    to the dropped requests exactly like the object path's ``nan`` store.
    """
    if len(seg_sizes) == 0:
        return np.zeros(len(arrivals), dtype=np.float64)
    return np.repeat(seg_finishes, seg_sizes) - arrivals


# ----------------------------------------------------------------------
# Streaming percentile estimators
# ----------------------------------------------------------------------
class ReservoirSample:
    """Fixed-capacity uniform reservoir (Vitter's algorithm R), vectorized.

    Any-percentile queries over an unbounded stream in O(capacity) memory;
    deterministic given the seed, so telemetry digests are reproducible
    run to run.
    """

    __slots__ = ("capacity", "_rng", "_values", "_seen")

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._values = np.empty(self.capacity, dtype=np.float64)
        self._seen = 0

    def __len__(self) -> int:
        return self._seen

    def add(self, value: float) -> None:
        self.extend(np.asarray([value], dtype=np.float64))

    def extend(self, values: Sequence[float]) -> None:
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        cap = self.capacity
        seen = self._seen
        fill = min(max(cap - seen, 0), arr.size)
        if fill:
            self._values[seen:seen + fill] = arr[:fill]
            seen += fill
        rest = arr[fill:]
        if rest.size:
            # Element at global index m replaces a uniform slot in [0, m]
            # when that slot lands inside the reservoir.
            highs = np.arange(seen + 1, seen + rest.size + 1, dtype=np.int64)
            slots = self._rng.integers(0, highs)
            hits = np.nonzero(slots < cap)[0]
            for i in hits.tolist():  # later hits overwrite earlier, in order
                self._values[slots[i]] = rest[i]
            seen += int(rest.size)
        self._seen = seen

    @property
    def values(self) -> np.ndarray:
        """The current sample (a copy of the filled prefix)."""
        return self._values[: min(self._seen, self.capacity)].copy()

    def percentile(self, percentile: float) -> float:
        filled = self._values[: min(self._seen, self.capacity)]
        if filled.size == 0:
            return float("nan")
        return float(np.percentile(filled, percentile))
