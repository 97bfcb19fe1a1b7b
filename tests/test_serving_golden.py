"""Golden outcomes of the object dispatch loop, pinned case by case.

Every case serves one seeded request set through ``columnar=False`` — the
object loop — and hashes what it produced: ``request_latencies.tobytes()``,
the batch-record tuples and the drop count.  The digests in
``golden_outcomes.json`` were recorded when FIFO still ran through its own
array loop next to the scheduled heap loop; any change to admission,
expiry, placement, batching or queue-depth accounting that moves a single
float shows up here as a named case.

The grid crosses K ∈ {1, 3}, ``max_batch`` ∈ {1, 8, 32}, ``drop_after`` ∈
{None, 0.004, 0.02}, single- and two-model endpoints (different modes and
ratio policies), every shipped scheduler, the free-clock / least-work /
weighted / model-affinity placers (and ``placer=None``), and three entry
points: ``run(requests=...)``, ``run(trace=...)`` (single-model FIFO only),
streaming ``start``/``submit``/``step``, and stepping with preemption
(every fifth batch's server is preempted at that batch's start and its
requests requeued at exactly that instant).  Arrivals sit on a 0.1 ms grid
so equal-arrival ties are common, streaming submits chunks out of arrival
order so late submissions land behind already-queued work, and requeued
migrants tie with each other and with pending requests.

Re-record (only for an intended behaviour change, reviewed case by case)::

    PYTHONPATH=src python tests/test_serving_golden.py --record
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.traces import RequestTrace
from repro.serving.engine import (
    BatchExecution,
    BatchingConfig,
    EngineResult,
    Request,
    ServingEngine,
)
from repro.serving.placement import (
    FreeClockPlacer,
    LeastOutstandingWorkPlacer,
    ModelAffinityPlacer,
    WeightedSpeedPlacer,
)
from repro.serving.policies import FixedRatioPolicy, QueueDepthRatioPolicy
from repro.serving.resilience import RequeueAtHeadMigration
from repro.serving.schedulers import EdfScheduler, FifoScheduler, PriorityScheduler
from repro.serving.simulator import ServiceTimeModel

GOLDEN_PATH = Path(__file__).with_name("golden_outcomes.json")
DIGEST_HEX = 20  # leading hex digits of the sha256 kept per case

SERVICE_MODEL = ServiceTimeModel()
# Per-server slowdown factors: a heterogeneous cluster, so speed-aware
# placers and the free-clock rule disagree.
SLOWDOWN = (1.0, 1.6, 2.5)
NUM_REQUESTS = 160
RATE = 2000.0

SERVERS = (1, 3)
MAX_BATCHES = (1, 8, 32)
DROP_AFTERS = (None, 0.004, 0.02)
SCHEDULERS = ("none", "fifo", "edf", "priority")
PLACERS = ("none", "free_clock", "least_work", "weighted", "affinity")
ENTRIES = ("requests", "trace", "stream", "preempt")


class ScaledExecutor:
    """Modeled service time scaled by a per-server slowdown factor."""

    def __init__(self, factor: float) -> None:
        self.factor = factor

    def execute(self, batch, mode: str, ratio: float) -> BatchExecution:
        seconds = SERVICE_MODEL.batch_latency(batch.size, mode, ratio)
        return BatchExecution(service_time=self.factor * seconds)


def make_requests(two_models: bool, seed: int = 7) -> List[Request]:
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / RATE, NUM_REQUESTS)
    arrivals = np.round(np.cumsum(gaps), 4)
    models = rng.choice(["a", "b"], NUM_REQUESTS) if two_models else ["a"] * NUM_REQUESTS
    slos = rng.uniform(0.005, 0.06, NUM_REQUESTS)
    has_deadline = rng.random(NUM_REQUESTS) < 0.7
    priorities = rng.integers(0, 3, NUM_REQUESTS)
    return [
        Request(
            arrival_time=float(arrivals[i]),
            model=str(models[i]),
            priority=int(priorities[i]),
            deadline=float(arrivals[i] + slos[i]) if has_deadline[i] else None,
        )
        for i in range(NUM_REQUESTS)
    ]


def make_engine(
    num_servers: int,
    max_batch: int,
    drop_after: Optional[float],
    two_models: bool,
    scheduler: str,
    placer: str,
) -> ServingEngine:
    factors = SLOWDOWN[:num_servers]
    # Requests/second at a reference batch of 8, as ServerSpec.speed reports.
    reference = SERVICE_MODEL.batch_latency(8, "flexiq", 0.5)
    speeds = [8.0 / (factor * reference) for factor in factors]
    placers = {
        "none": lambda: None,
        "free_clock": FreeClockPlacer,
        "least_work": lambda: LeastOutstandingWorkPlacer(speeds),
        "weighted": lambda: WeightedSpeedPlacer(speeds),
        "affinity": lambda: ModelAffinityPlacer(
            {"a": [0], "b": list(range(1, num_servers)) or [0]}
        ),
    }
    schedulers = {
        "none": lambda: None,
        "fifo": FifoScheduler,
        "edf": EdfScheduler,
        "priority": PriorityScheduler,
    }
    engine = ServingEngine(
        BatchingConfig(max_batch=max_batch, drop_after=drop_after),
        num_servers=num_servers,
        scheduler=schedulers[scheduler](),
        placer=placers[placer](),
        columnar=False,
    )
    executors = [ScaledExecutor(factor) for factor in factors]
    engine.register("a", executors, policy=FixedRatioPolicy(0.5), mode="flexiq")
    if two_models:
        engine.register(
            "b",
            executors,
            policy=QueueDepthRatioPolicy({4: 0.5, 12: 1.0}),
            mode="int8",
        )
    return engine


def serve(engine: ServingEngine, requests: List[Request], entry: str) -> EngineResult:
    if entry == "requests":
        return engine.run(requests=requests)
    if entry == "trace":
        arrivals = np.asarray([r.arrival_time for r in requests], dtype=np.float64)
        return engine.run(trace=RequestTrace(arrivals, duration=float(arrivals[-1])))
    if entry == "preempt":
        requeue = RequeueAtHeadMigration(delay=0.0)
        engine.start(requests=requests)
        steps = 0
        record = engine.step()
        while record is not None:
            steps += 1
            if steps % 5 == 0:
                engine.preempt_server(record.server, record.start, policy=requeue)
            record = engine.step()
        return engine.finish()
    # Streaming: out-of-arrival-order chunks, a few steps between submits.
    order = np.random.default_rng(11).permutation(len(requests))
    engine.start()
    for chunk in np.array_split(order, 8):
        engine.submit([requests[i] for i in chunk])
        for _ in range(3):
            if engine.step() is None:
                break
    return engine.finish()


def digest(result: EngineResult) -> str:
    h = hashlib.sha256()
    h.update(result.request_latencies.tobytes())
    for r in result.batch_records:
        fields = (
            r.model, r.mode, float(r.start).hex(), float(r.finish).hex(),
            int(r.size), float(r.ratio).hex(), int(r.server), int(r.queue_depth),
        )
        h.update(repr(fields).encode())
    h.update(str(int(result.dropped)).encode())
    return h.hexdigest()[:DIGEST_HEX]


def cases() -> Iterator[Tuple[str, tuple]]:
    """(case id, make_engine args + entry) for every valid grid point."""
    grid = itertools.product(
        SERVERS, MAX_BATCHES, DROP_AFTERS, (False, True), SCHEDULERS, PLACERS, ENTRIES
    )
    for num_servers, max_batch, drop_after, two, scheduler, placer, entry in grid:
        if entry == "trace" and (two or scheduler not in ("none", "fifo")):
            continue  # traces carry arrivals only: one model, FIFO order
        case_id = "k{}-b{}-d{}-{}-{}-{}-{}".format(
            num_servers, max_batch, drop_after, "two" if two else "one",
            scheduler, placer, entry,
        )
        yield case_id, (num_servers, max_batch, drop_after, two, scheduler, placer, entry)


def compute_digests() -> Dict[str, str]:
    requests = {two: make_requests(two) for two in (False, True)}
    out = {}
    for case_id, (k, b, d, two, scheduler, placer, entry) in cases():
        engine = make_engine(k, b, d, two, scheduler, placer)
        out[case_id] = digest(serve(engine, requests[two], entry))
    return out


def test_golden_outcomes_unchanged():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_digests()
    assert sorted(current) == sorted(golden), "grid changed; re-record deliberately"
    changed = sorted(case for case in golden if current[case] != golden[case])
    assert not changed, f"{len(changed)} of {len(golden)} cases changed: {changed[:20]}"


def test_grid_exercises_drops_backlog_and_placement():
    """The grid is only a guard if its cases reach the paths it pins."""
    requests = make_requests(True)
    engine = make_engine(3, 8, 0.004, True, "none", "least_work")
    result = serve(engine, requests, "stream")
    assert result.dropped > 0
    assert max(r.queue_depth for r in result.batch_records) > 8
    assert {r.server for r in result.batch_records} == {0, 1, 2}
    assert {r.model for r in result.batch_records} == {"a", "b"}


if __name__ == "__main__":
    if "--record" in sys.argv:
        GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n")
        print(f"recorded {GOLDEN_PATH}")
