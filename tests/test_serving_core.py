"""Parity and unit tests for the columnar event-driven serving core (PR 8).

The contract under test: every result the columnar fast path produces —
``EngineResult`` fields, batch records, telemetry windows — is
**bit-identical** to the object loop it replaces (``columnar=False``), and
the K=1 FIFO run stays bit-identical to the seed simulator.
"""

import numpy as np
import pytest

from repro.data.traces import DiurnalTrace, PoissonTrace, RequestTrace
from repro.serving.cluster import ClusterEngine, ServerSpec
from repro.serving.core import (
    DROPPED,
    SERVED,
    LazyRequests,
    RequestStore,
    ReservoirSample,
    per_request_latencies,
    run_fifo_columnar,
)
from repro.serving.engine import (
    BatchingConfig,
    Request,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.executors import ModeledExecutor
from repro.serving.metrics import streaming_percentile
from repro.serving.policies import FixedRatioPolicy
from repro.serving.resilience import FaultSchedule
from repro.serving.schedulers import EdfScheduler, PriorityScheduler
from repro.serving.simulator import ServiceTimeModel, ServingSimulator
from repro.serving.telemetry import TelemetryBus


SERVICE_MODEL = ServiceTimeModel()


def _trace(rate=400.0, duration=5.0, seed=3):
    return PoissonTrace(rate, duration, seed=seed).generate()


def _engine(columnar, num_servers=1, max_batch=8, drop_after=None, scheduler=None):
    engine = ServingEngine(
        batching=BatchingConfig(max_batch=max_batch, drop_after=drop_after),
        num_servers=num_servers,
        scheduler=scheduler,
        columnar=columnar,
    )
    engine.register(
        "m", ModeledExecutor(SERVICE_MODEL), policy=FixedRatioPolicy(0.5)
    )
    return engine


def _assert_results_identical(fast, slow):
    assert np.array_equal(fast.latencies, slow.latencies)
    assert np.array_equal(
        fast.request_latencies, slow.request_latencies, equal_nan=True
    )
    assert fast.dropped == slow.dropped
    assert fast.duration == slow.duration
    assert fast.busy_time == slow.busy_time
    assert fast.server_busy_times == slow.server_busy_times
    assert fast.migrated == slow.migrated
    assert list(fast.batch_sizes) == list(slow.batch_sizes)
    assert list(fast.batch_ratios) == list(slow.batch_ratios)
    assert len(fast.batch_records) == len(slow.batch_records)
    for a, b in zip(fast.batch_records, slow.batch_records):
        assert a == b


class TestRequestStore:
    def test_lazy_view_matches_eager_requests(self):
        trace = _trace(duration=1.0)
        lazy = requests_from_trace(
            trace, model="m", priorities=[0, 2], deadlines=[0.1, 0.3, None]
        )
        assert isinstance(lazy, list)
        view = requests_from_trace(
            trace,
            model="m",
            priorities=[0, 2],
            deadlines=[0.1, 0.3, None],
            lazy=True,
        )
        assert isinstance(view, LazyRequests)
        assert len(view) == len(lazy) == len(trace)
        for eager, materialized in zip(lazy, view):
            assert eager == materialized
        # Negative indexing and slicing behave like a list.
        assert view[-1] == lazy[-1]
        assert list(view[2:5]) == lazy[2:5]

    def test_from_requests_round_trip(self):
        requests = [
            Request(arrival_time=0.1, model="a", priority=1, deadline=0.5),
            Request(arrival_time=0.2, model="b"),
            Request(arrival_time=0.3, model="a", request_id=7),
        ]
        store = RequestStore.from_requests(requests)
        assert store.single_model is None
        assert store.model_name_list() == ["a", "b", "a"]
        assert list(store.model_mask("a")) == [True, False, True]
        for index, original in enumerate(requests):
            rebuilt = store.request(index)
            assert rebuilt.model == original.model
            assert rebuilt.arrival_time == original.arrival_time
            assert rebuilt.priority == original.priority
            assert rebuilt.deadline == original.deadline

    def test_deadline_column_is_absolute(self):
        trace = _trace(duration=1.0)
        store = RequestStore.from_trace(trace, model="m", deadlines=[0.25])
        arrivals = store.arrivals
        # Vectorized arrival + slo must equal the per-request float sum.
        for index in (0, len(arrivals) // 2, len(arrivals) - 1):
            assert store.deadlines[index] == float(arrivals[index]) + 0.25

    def test_status_column_tracks_run(self):
        trace = _trace(rate=2000.0, duration=1.0)
        view = requests_from_trace(trace, model="m", lazy=True)
        engine = _engine(True, max_batch=4, drop_after=0.01)
        result = engine.run(requests=view)
        store = view.store
        assert int(np.count_nonzero(store.status == DROPPED)) == result.dropped
        assert (
            int(np.count_nonzero(store.status == SERVED))
            == len(trace) - result.dropped
        )


class TestColumnarParity:
    @pytest.mark.parametrize("num_servers", [1, 4])
    @pytest.mark.parametrize("drop_after", [None, 0.05])
    def test_trace_fifo(self, num_servers, drop_after):
        trace = _trace()
        fast = _engine(True, num_servers, drop_after=drop_after).run(
            trace, model="m"
        )
        slow = _engine(False, num_servers, drop_after=drop_after).run(
            trace, model="m"
        )
        _assert_results_identical(fast, slow)

    def test_k1_fifo_matches_seed_simulator(self):
        """The unbreakable invariant: columnar K=1 FIFO == seed simulator."""
        trace = _trace()
        seed = ServingSimulator(
            SERVICE_MODEL, BatchingConfig(max_batch=8)
        ).run(trace, "flexiq", ratio=0.5)
        fast = _engine(True).run(trace, model="m")
        assert np.array_equal(seed.latencies, fast.latencies)
        assert seed.batch_sizes == fast.batch_sizes
        assert seed.dropped == fast.dropped

    def test_lazy_requests_fifo(self):
        trace = _trace()
        view = requests_from_trace(trace, model="m", deadlines=[0.1, 0.4], lazy=True)
        eager = requests_from_trace(trace, model="m", deadlines=[0.1, 0.4])
        fast = _engine(True, num_servers=2).run(requests=view)
        slow = _engine(False, num_servers=2).run(requests=eager)
        _assert_results_identical(fast, slow)
        assert fast.request_models == slow.request_models
        assert len(fast.responses) == len(slow.responses)
        for a, b in zip(fast.responses, slow.responses):
            assert a == b

    @pytest.mark.parametrize(
        "scheduler_cls", [EdfScheduler, PriorityScheduler]
    )
    def test_scheduled_disciplines(self, scheduler_cls):
        trace = _trace()
        kwargs = dict(priorities=[0, 1, 2], deadlines=[0.1, 0.3, None])
        view = requests_from_trace(trace, model="m", lazy=True, **kwargs)
        eager = requests_from_trace(trace, model="m", **kwargs)
        fast = _engine(True, 2, scheduler=scheduler_cls()).run(requests=view)
        slow = _engine(False, 2, scheduler=scheduler_cls()).run(requests=eager)
        _assert_results_identical(fast, slow)
        for a, b in zip(fast.responses, slow.responses):
            assert a == b

    def test_streaming_submit_rejected_for_store_sessions(self):
        view = requests_from_trace(_trace(duration=0.5), model="m", lazy=True)
        engine = _engine(True)
        engine.start(requests=view)
        with pytest.raises(RuntimeError, match="store-backed"):
            engine.submit(Request(arrival_time=9.0, model="m"))
        engine.finish()


class TestClusterParity:
    def _cluster(self, columnar, **kwargs):
        specs = [
            ServerSpec(name=f"s{index}", speed=1.0, service_model=SERVICE_MODEL)
            for index in range(4)
        ]
        engine = ClusterEngine(
            specs,
            batching=BatchingConfig(max_batch=8, drop_after=0.05),
            columnar=columnar,
            **kwargs,
        )
        engine.register("m", policy=FixedRatioPolicy(0.5))
        return engine

    def _assert_cluster_identical(self, fast, slow, windows=6):
        _assert_results_identical(fast.result, slow.result)
        for window in range(windows):
            a = fast.telemetry.cluster_window(window)
            b = slow.telemetry.cluster_window(window)
            assert (a.served, a.batches, a.drops) == (b.served, b.batches, b.drops)
            assert a.busy_time == b.busy_time
            assert np.array_equal(
                a.latency_percentile(95), b.latency_percentile(95), equal_nan=True
            )
            assert (a.deadline_total, a.deadline_met) == (
                b.deadline_total,
                b.deadline_met,
            )

    def test_plain_cluster(self):
        trace = _trace()
        fast = self._cluster(True).run(trace, model="m")
        slow = self._cluster(False).run(trace, model="m")
        self._assert_cluster_identical(fast, slow)

    def test_faulted_cluster_still_identical(self):
        # A fault schedule forces the stepped control loop on both sides;
        # the refactored EventCalendar bookkeeping must replay the seed
        # cursor's fault ordering exactly.
        trace = _trace()
        schedule = FaultSchedule.single_crash(at=1.0, server=1, recover_at=3.0)
        fast = self._cluster(True, fault_schedule=schedule).run(trace, model="m")
        slow = self._cluster(False, fault_schedule=schedule).run(trace, model="m")
        self._assert_cluster_identical(fast, slow)
        assert [
            (event.time, event.server, event.kind)
            for event in fast.fault_events
        ] == [
            (event.time, event.server, event.kind)
            for event in slow.fault_events
        ]


class TestColumnarFifoCore:
    def test_segments_reconstruct_latencies(self):
        arrivals = np.sort(
            np.random.default_rng(0).uniform(0.0, 2.0, size=200)
        )
        tables = {
            0: [0.0]
            + [
                float(SERVICE_MODEL.batch_latency(size, "flexiq", 0.5))
                for size in range(1, 9)
            ]
        }
        run = run_fifo_columnar(
            arrivals, [0.0], [0.0], [0], tables, 8, 0.02
        )
        latencies = per_request_latencies(
            arrivals, run.seg_sizes, run.seg_finishes
        )
        assert len(latencies) == len(arrivals)
        assert int(np.count_nonzero(np.isnan(latencies))) == run.dropped
        # Each served segment's latency equals finish - arrival exactly.
        assert int(run.seg_sizes.sum()) == len(arrivals)
        assert len(run.starts) == len(run.finishes) == len(run.sizes)


class TestStreamingEstimators:
    def test_reservoir_is_deterministic_and_bounded(self):
        first = ReservoirSample(capacity=64, seed=9)
        second = ReservoirSample(capacity=64, seed=9)
        data = np.arange(5000, dtype=np.float64)
        first.extend(data)
        second.extend(data)
        assert np.array_equal(first.values, second.values)
        assert len(first.values) == 64
        assert len(first) == 5000
        # A uniform ramp's reservoir median lands near the true median.
        assert abs(first.percentile(50) - 2500.0) < 600.0

    def test_streaming_percentile_dispatch(self):
        reservoir = ReservoirSample(capacity=32, seed=0)
        reservoir.extend(np.full(100, 4.0))
        assert streaming_percentile(reservoir, 50) == 4.0
        assert streaming_percentile([1.0, 3.0], 50) == 2.0


class TestTelemetryIncremental:
    def test_digest_mode_approximates_exact(self):
        trace = _trace(rate=800.0, duration=4.0)
        exact_bus = TelemetryBus(window=1.0, num_servers=2)
        digest_bus = TelemetryBus(
            window=1.0,
            num_servers=2,
            latency_digest="reservoir",
            digest_capacity=4096,
        )

        def run_with(bus):
            engine = ServingEngine(
                batching=BatchingConfig(max_batch=8),
                num_servers=2,
                telemetry=bus,
            )
            engine.register(
                "m", ModeledExecutor(SERVICE_MODEL), policy=FixedRatioPolicy(0.5)
            )
            engine.run(trace, model="m")

        run_with(exact_bus)
        run_with(digest_bus)
        for window in range(4):
            exact = exact_bus.cluster_window(window)
            digest = digest_bus.cluster_window(window)
            assert exact.served == digest.served
            exact_p95 = exact.latency_percentile(95)
            digest_p95 = digest.latency_percentile(95)
            if exact.served:
                # Capacity exceeds the per-window sample count, so the
                # reservoir is exhaustive and the percentile exact.
                assert digest_p95 == exact_p95

    def test_timeline_cache_invalidation(self):
        from repro.serving.telemetry import ScaleEvent

        bus = TelemetryBus(window=1.0, num_servers=1)
        bus.record_scale_event(
            ScaleEvent(time=2.0, action="add", server=1, active_after=2)
        )
        first = bus.timeline()
        bus.record_scale_event(
            ScaleEvent(time=1.0, action="remove", server=1, active_after=1)
        )
        second = bus.timeline()
        assert [event.time for event in second] == [1.0, 2.0]
        assert len(first) == 1
        # Returned lists are copies: mutating one must not poison the cache.
        second.clear()
        assert len(bus.timeline()) == 2


class TestTraceSortCache:
    def test_sorted_arrivals_cached_per_binding(self):
        trace = RequestTrace(
            np.asarray([3.0, 1.0, 2.0]), duration=3.0
        )
        first = trace.sorted_arrivals()
        assert list(first) == [1.0, 2.0, 3.0]
        assert trace.sorted_arrivals() is first
        assert not first.flags.writeable
        trace.arrival_times = np.asarray([5.0, 4.0])
        rebound = trace.sorted_arrivals()
        assert list(rebound) == [4.0, 5.0]
        assert rebound is not first

    def test_diurnal_day_uses_cache(self):
        trace = DiurnalTrace(
            night_rate=50, peak_rate=100, duration=4, period=4, num_phases=4
        ).generate()
        assert trace.sorted_arrivals() is trace.sorted_arrivals()
