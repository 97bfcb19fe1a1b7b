"""Input contracts at the serving API boundary.

Malformed configuration or requests must fail loudly with a ``ValueError``
naming the field, instead of hanging, silently serving batches of one, or
losing requests without counting them as served or dropped.
"""

import math

import numpy as np
import pytest

from repro.data.traces import RequestTrace
from repro.serving.engine import BatchingConfig, Request, ServingEngine
from repro.serving.executors import ModeledExecutor
from repro.serving.placement import (
    LeastOutstandingWorkPlacer,
    PlacementContext,
    WeightedSpeedPlacer,
)
from repro.serving.policies import (
    DecodePressureRatioPolicy,
    FixedRatioPolicy,
    QueueDepthRatioPolicy,
    RoundRobinRatioPolicy,
)
from repro.serving.simulator import ServiceTimeModel


def _engine():
    engine = ServingEngine(BatchingConfig(max_batch=8), num_servers=2)
    engine.register("m", ModeledExecutor(ServiceTimeModel()), mode="int8")
    return engine


class TestBatchingConfig:
    @pytest.mark.parametrize("max_batch", [0, -3])
    def test_max_batch_below_one_rejected(self, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=max_batch)

    @pytest.mark.parametrize("drop_after", [-0.001, -5.0, math.nan])
    def test_negative_drop_after_rejected(self, drop_after):
        with pytest.raises(ValueError, match="drop_after"):
            BatchingConfig(drop_after=drop_after)

    @pytest.mark.parametrize(
        "field, value", [("max_batch", 0), ("drop_after", -1.0)]
    )
    def test_mutated_config_rejected_at_start(self, field, value):
        # The config is mutable, so a session start re-checks it instead of
        # forming empty batches forever (or dropping every request).
        engine = _engine()
        setattr(engine.batching, field, value)
        with pytest.raises(ValueError, match=field):
            engine.run(requests=[Request(0.0, "m")])
        setattr(engine.batching, field, BatchingConfig().__dict__[field])
        assert engine.run(requests=[Request(0.0, "m")]).latencies.size == 1

    def test_boundary_values_accepted(self):
        config = BatchingConfig(max_batch=1, drop_after=0.0)
        assert (config.max_batch, config.drop_after) == (1, 0.0)
        assert BatchingConfig(drop_after=None).drop_after is None


class TestFiniteArrivals:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_start_rejects_non_finite_arrival(self, bad):
        engine = _engine()
        requests = [Request(0.0, "m"), Request(bad, "m"), Request(0.01, "m")]
        with pytest.raises(ValueError, match="arrival_time"):
            engine.start(requests=requests)
        # The failed start left no session behind.
        assert engine.run(requests=[Request(0.0, "m")]).latencies.size == 1

    def test_run_rejects_non_finite_trace_arrival(self):
        engine = _engine()
        trace = RequestTrace(np.array([0.0, np.nan, 0.01]), duration=1.0)
        with pytest.raises(ValueError, match="arrival_time"):
            engine.run(trace=trace, model="m")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_submit_rejects_non_finite_arrival(self, bad):
        engine = _engine()
        engine.start()
        engine.submit([Request(0.0, "m")])
        with pytest.raises(ValueError, match="arrival_time"):
            engine.submit([Request(0.005, "m"), Request(bad, "m")])
        # The rejected batch was not half-admitted: the session serves on.
        engine.submit([Request(0.01, "m")])
        result = engine.finish()
        assert len(result.request_latencies) == 2
        assert result.latencies.size == 2 and result.dropped == 0


class TestFixedRatioPolicy:
    @pytest.mark.parametrize("ratio", [7.0, 1.0001, -0.5, math.nan])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            FixedRatioPolicy(ratio)

    @pytest.mark.parametrize("ratio", [0.0, 0.25, 1.0])
    def test_unit_interval_accepted(self, ratio):
        assert FixedRatioPolicy(ratio).select(0.0) == ratio


class TestRatioPolicies:
    """Every ratio a policy can select lies in [0, 1]; anything else is a
    ValueError naming the field at construction, not a bad batch later."""

    @pytest.mark.parametrize(
        "ratios", [[1.5, -0.2], [0.5, 1.5], [-0.2], [0.0, math.nan]]
    )
    def test_round_robin_rejects_out_of_range(self, ratios):
        with pytest.raises(ValueError, match="ratios"):
            RoundRobinRatioPolicy(ratios)

    @pytest.mark.parametrize("thresholds", [{4: 2.0}, {4: 0.5, 8: -0.1}])
    def test_queue_depth_rejects_out_of_range_threshold(self, thresholds):
        with pytest.raises(ValueError, match="thresholds"):
            QueueDepthRatioPolicy(thresholds)

    @pytest.mark.parametrize("base_ratio", [1.5, -0.5, math.nan])
    def test_queue_depth_rejects_out_of_range_base(self, base_ratio):
        with pytest.raises(ValueError, match="base_ratio"):
            QueueDepthRatioPolicy({4: 0.5}, base_ratio=base_ratio)

    @pytest.mark.parametrize(
        "field, value",
        [("base_ratio", -0.5), ("base_ratio", 1.01), ("high_ratio", 3.0),
         ("high_ratio", math.nan)],
    )
    def test_decode_pressure_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecodePressureRatioPolicy(16, **{field: value})

    def test_unit_interval_boundaries_accepted(self):
        assert RoundRobinRatioPolicy([0.0, 1.0]).ratios == [0.0, 1.0]
        policy = QueueDepthRatioPolicy({4: 1.0, 8: 0.0}, base_ratio=1.0)
        assert policy.thresholds == [(4, 1.0), (8, 0.0)]
        assert policy.base_ratio == 1.0
        decode = DecodePressureRatioPolicy(16, base_ratio=1.0, high_ratio=0.0)
        assert (decode.base_ratio, decode.high_ratio) == (1.0, 0.0)


def test_weighted_is_least_work():
    """Earliest completion is least-work plus the constant ``now``, so one
    speed-scored placer serves both names, idle servers included."""
    assert WeightedSpeedPlacer is LeastOutstandingWorkPlacer
    placer = WeightedSpeedPlacer([100.0, 300.0])
    idle = PlacementContext(time=5.0, free_at=[1.0, 2.0], active=[0, 1], batch_hint=4)
    busy = PlacementContext(time=5.0, free_at=[5.0, 5.2], active=[0, 1], batch_hint=4)
    assert placer.place(idle) == 1  # both idle: the faster server
    # 0.2 s of backlog outweighs the 0.027 s the faster server saves.
    assert placer.place(busy) == 0
