"""The columnar request store every ``ServingEngine`` session runs on.

Whatever the entry point — a trace, a plain request list, a
``LazyRequests`` view or streaming ``submit()`` — the session keeps its
requests in one :class:`~repro.serving.core.RequestStore`.  These tests pin
the store's memory rule (columns holding one value for every row stay
``None``), its ``append`` growth, row-subset views, and what the engine
hands executors and reports back.
"""

import numpy as np
import pytest

from repro.data.traces import PoissonTrace
from repro.serving.core import LazyRequests, RequestStore
from repro.serving.engine import (
    BatchExecution,
    BatchingConfig,
    Request,
    ServingEngine,
)
from repro.serving.simulator import ServiceTimeModel

SERVICE_MODEL = ServiceTimeModel()
DEFAULT_COLUMNS = (
    "model_ids", "request_ids", "priorities", "deadlines", "prefill_tokens",
    "max_new_tokens", "payload_list", "payload_pool",
)


class RecordingExecutor:
    """Modeled service time; keeps every batch it was handed."""

    def __init__(self) -> None:
        self.batches = []

    def execute(self, batch, mode: str, ratio: float) -> BatchExecution:
        self.batches.append(batch)
        return BatchExecution(SERVICE_MODEL.batch_latency(batch.size, mode, ratio))


def _engine(*models, max_batch=4):
    engine = ServingEngine(BatchingConfig(max_batch=max_batch))
    executor = RecordingExecutor()
    for name in models:
        engine.register(name, executor, mode="int8")
    return engine, executor


def _trace():
    return PoissonTrace(500.0, 0.2, seed=4).generate()


class TestMemoryRule:
    def test_trace_store_materializes_no_constant_column(self):
        store = RequestStore.from_trace(_trace(), model="m")
        for name in DEFAULT_COLUMNS:
            assert getattr(store, name) is None, name
        assert store.single_model == "m"
        view = store.request(3)
        assert (view.model, view.request_id) == ("m", 3)

    def test_default_request_list_materializes_no_constant_column(self):
        requests = [Request(0.3, "m"), Request(0.1, "m"), Request(0.2, "m")]
        store = RequestStore.from_requests(requests)
        for name in DEFAULT_COLUMNS:
            assert getattr(store, name) is None, name
        assert store.arrivals.tolist() == [0.1, 0.2, 0.3]
        # A negative request_id means the row index (the admission index).
        assert [store.request(i).request_id for i in range(3)] == [0, 1, 2]

    def test_non_default_values_materialize_their_column(self):
        requests = [
            Request(0.1, "a", request_id=7, priority=2, deadline=0.5),
            Request(0.2, "b", max_new_tokens=3),
        ]
        store = RequestStore.from_requests(requests)
        assert store.model_ids.tolist() == [0, 1]
        assert store.request_ids.tolist() == [7, 1]
        assert store.priorities.tolist() == [2, 0]
        assert store.deadlines[0] == 0.5 and np.isnan(store.deadlines[1])
        assert store.prefill_tokens is None
        assert store.max_new_tokens.tolist() == [0, 3]
        assert store.request(0) == requests[0]
        assert store.request(1) == Request(0.2, "b", request_id=1, max_new_tokens=3)


class TestAppend:
    def test_columns_materialize_on_first_non_default_row(self):
        store = RequestStore.from_requests([Request(0.1, "a"), Request(0.2, "a")])
        store.append([Request(0.05, "a")])
        assert store.model_ids is None and store.request_ids is None
        payload = np.ones(2)
        store.append([Request(0.3, "b", request_id=9, deadline=1.0, payload=payload)])
        assert store.model_ids.tolist() == [0, 0, 0, 1]
        assert store.request_ids.tolist() == [0, 1, 2, 9]
        assert np.isnan(store.deadlines[:3]).all() and store.deadlines[3] == 1.0
        assert store.payload_list[:3] == [None, None, None]
        assert store.payload_list[3] is payload
        # Appended rows follow in append order, not arrival order.
        assert store.arrivals.tolist() == [0.1, 0.2, 0.05, 0.3]
        assert store.status.tolist() == [0, 0, 0, 0]
        assert store.single_model is None

    def test_trace_payload_pool_store_cannot_grow(self):
        store = RequestStore.from_trace(_trace(), model="m", payloads=[np.zeros(1)])
        with pytest.raises(ValueError, match="payload pool"):
            store.append([Request(9.0, "m")])


class TestRowView:
    def test_rows_select_and_order(self):
        store = RequestStore.from_trace(_trace(), model="m", priorities=[0, 1, 2])
        view = LazyRequests(store, np.array([5, 2, 7]))
        assert len(view) == 3
        assert view[0] == store.request(5)
        assert view[-1] == store.request(7)
        assert view[1:] == [store.request(2), store.request(7)]
        with pytest.raises(IndexError):
            view[3]

    def test_row_view_session_serves_only_its_rows(self):
        store = RequestStore.from_trace(_trace(), model="m")
        engine, _ = _engine("m")
        result = engine.run(requests=LazyRequests(store, np.array([4, 1, 9])))
        assert len(result.request_latencies) == 3
        assert [r.arrival_time for r in result.responses] == [
            float(store.arrivals[i]) for i in (1, 4, 9)
        ]


class TestEngineSessions:
    def test_batch_requests_are_lazy_views_of_the_batch_rows(self):
        payloads = [np.full(2, float(i)) for i in range(6)]
        requests = [
            Request(0.001 * i, "m", payload=payloads[i], priority=i % 2)
            for i in range(6)
        ]
        engine, executor = _engine("m", max_batch=2)
        engine.run(requests=requests[::-1])
        served = []
        for batch in executor.batches:
            assert isinstance(batch.requests, LazyRequests)
            assert len(batch.requests) == batch.size
            served.extend(batch.requests)
        assert [r.arrival_time for r in served] == [r.arrival_time for r in requests]
        assert all(a.payload is b.payload for a, b in zip(served, requests))
        assert [r.priority for r in served] == [r.priority for r in requests]

    def test_trace_batches_carry_payload_free_views(self):
        engine, executor = _engine("m")
        engine.run(trace=_trace())
        first = executor.batches[0].requests
        assert isinstance(first, LazyRequests)
        assert first[0].payload is None and first[0].model == "m"

    def test_request_models_only_for_mixed_sessions(self):
        engine, _ = _engine("a", "b")
        single = engine.run(requests=[Request(0.0, "a"), Request(0.01, "a")])
        assert single.request_models is None
        assert single.for_model("a").size == 2 and single.for_model("b").size == 0
        mixed = engine.run(requests=[Request(0.0, "a"), Request(0.01, "b")])
        assert mixed.request_models == ["a", "b"]
        assert mixed.for_model("a").size == 1 and mixed.for_model("b").size == 1

    def test_streaming_submit_grows_the_session_store(self):
        engine, _ = _engine("a", "b")
        engine.start()
        engine.submit([Request(0.02, "a"), Request(0.01, "a")])
        engine.step()
        engine.submit(Request(0.005, "b", request_id=40))
        result = engine.finish()
        assert result.request_models == ["a", "a", "b"]
        assert [r.request_id for r in result.responses] == [0, 1, 40]
        assert result.latencies.size == 3
