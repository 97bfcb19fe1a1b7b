"""Serve workloads: a FlexiQ runtime behind ``ServingEngine`` + ``RuntimeExecutor``.

``resnet18_serve`` and ``vit_small_serve`` build the runtime with the
paper-default ``FlexiQPipeline`` (evolutionary selection, 4-bit ratios
0.25/0.5/0.75/1.0), then serve labelled test images through a batch-8
engine whose ``RoundRobinRatioPolicy`` cycles over all five ratios.  Three
measured phases:

* **forward table** -- the forward time of every batch size 1..8 at every
  ratio: ``TABLE_PASSES`` real ``forward_batch`` calls each per round, the
  median over all of them.
* **burst** -- every test image five times, all due at t=0, so batches are
  full and deterministic.  256 images make 32 batches per pass, which moves
  each image to the next-but-one ratio every pass, so over five passes every
  image is served at every ratio.  Real forwards through
  ``RuntimeExecutor``.  Gives ``requests_per_s`` (served requests per wall
  second of ``engine.run``, median over rounds) and ``top1_pct``.

  A round is the table passes and one burst; rounds repeat for the
  measuring window (at least ``MIN_ROUNDS``), so both spread over the
  whole window.
* **ladder** -- open-loop Poisson arrivals at fixed rates, ``LADDER_REQUESTS``
  per step, timed on the engine clock: the engine advances its clock by the
  measured forward time of each batch's size and ratio (from the table), and
  a request's latency runs from its due (arrival) time, so a slow forward
  delays every request queued behind it.  Arrivals are admitted on the
  engine clock, so the generator never runs late.  Taking the forward time
  from the table, not from the one forward the batch ran, keeps a single
  preempted forward from deciding the p99.  Gives ``p50_ms``/``p99_ms`` at
  the first (nominal) rate and ``max_rate_rps`` against ``p99_limit_ms``.

The seed orders the burst and draws the ladder's arrivals; the runtime itself
is seed-independent.  Wall-clock figures are scaled to the reference machine
speed (see :func:`perfbench.common.speed_probe`): a table pass or a burst by
the probes on either side of it, the set-up by the median of the probes
taken before, between every ``PROBE_EVERY_FORWARDS`` of its forwards, and
after it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from perfbench.common import Report, ladder, median, percentile, speed_probe, to_reference
from perfbench.layers import TraceSession

MAX_BATCH = 8
BURST_PASSES = 5
MIN_ROUNDS = 3
TABLE_PASSES = 2
LADDER_REQUESTS = 5000
PROBE_EVERY_FORWARDS = 20
BITEXACT_IMAGES = 8


@dataclass(frozen=True)
class ServeSpec:
    model: str
    # req/s, ascending.  The first, nominal, rate loads the server lightly
    # (about a fifth of its capacity), so p50/p99 follow the forward time
    # without queueing amplifying this machine's speed drift.
    ladder: Tuple[float, ...]
    p99_limit_ms: float


SPECS = {
    "resnet18_serve": ServeSpec("resnet18", (200.0, 450.0, 600.0, 750.0, 900.0, 1050.0),
                                50.0),
    "vit_small_serve": ServeSpec("vit_small", (600.0, 1600.0, 2200.0, 2800.0, 3400.0,
                                               4000.0), 20.0),
}


class ProbingForward:
    """The pipeline's default forward, plus a speed probe every few calls.

    Set-up runs for seconds without a break; probes taken between its
    calibration and fitness forwards follow the machine's speed through it.
    Their time is kept apart so it can be subtracted from the set-up time.
    """

    def __init__(self, probes: List[float]) -> None:
        self.probes = probes
        self.probe_seconds = 0.0
        self.calls = 0

    def __call__(self, model, batch):
        from repro.tensor import Tensor

        self.calls += 1
        if self.calls % PROBE_EVERY_FORWARDS == 0:
            start = time.perf_counter()
            self.probes.append(speed_probe())
            self.probe_seconds += time.perf_counter() - start
        return model(Tensor(batch))


def build_runtime(model_name: str, forward_fn=None):
    """Load weights, calibrate, select channels and prepare the kernels."""
    from repro.core import FlexiQConfig, FlexiQPipeline
    from repro.data import CalibrationSampler
    from repro.nn.registry import get_spec
    from repro.train.pretrain import get_dataset_for, get_pretrained

    model = get_pretrained(model_name)
    dataset = get_dataset_for(model_name)
    calibration = CalibrationSampler(
        dataset.train_images, size=get_spec(model_name).calibration_size,
        batch_size=32, seed=0,
    )
    runtime = FlexiQPipeline(model, calibration.all(), FlexiQConfig(),
                             forward_fn=forward_fn).run()
    return runtime, dataset


class TableExecutor:
    """Batch service times from the measured (batch size, ratio) forward table."""

    def __init__(self, table: Dict[Tuple[int, float], float]) -> None:
        self.table = table

    def execute(self, batch, mode: str, ratio: float):
        from repro.serving.engine import BatchExecution

        return BatchExecution(service_time=self.table[(batch.size, float(ratio))])


def _serve(executor, ratios, requests) -> Tuple[object, float, str]:
    """One ``engine.run``; an executor error fails the phase, it is not raised."""
    from repro.serving import BatchingConfig, RoundRobinRatioPolicy, ServingEngine

    engine = ServingEngine(BatchingConfig(max_batch=MAX_BATCH))
    engine.register("m", executor, policy=RoundRobinRatioPolicy(ratios))
    start = time.perf_counter()
    try:
        result = engine.run(requests=requests)
        error = ""
    except Exception as exc:  # counted as failed requests by the caller
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, error


def _served(result) -> List:
    if result is None:
        return []
    return [r for r in result.responses if r is not None and not r.dropped]


def check_bit_exact(runtime, images: np.ndarray) -> bool:
    """Prepared outputs equal ``prepare(use_prepared=False)`` at every ratio."""
    from repro.tensor import Tensor

    exact = True
    try:
        for ratio in runtime.available_ratios:
            runtime.set_ratio(ratio)
            runtime.prepare(use_prepared=True)
            fast = runtime(Tensor(images)).data.copy()
            runtime.prepare(use_prepared=False)
            slow = runtime(Tensor(images)).data.copy()
            exact &= bool(np.array_equal(fast, slow))
    finally:
        runtime.prepare(use_prepared=True)
    return exact


def reference_predictions(runtime, images: np.ndarray) -> Dict[float, np.ndarray]:
    """Class predictions of a direct runtime forward at each ratio."""
    from repro.tensor import Tensor

    predictions = {}
    for ratio in runtime.available_ratios:
        runtime.set_ratio(ratio)
        predictions[float(ratio)] = runtime(Tensor(images)).data.argmax(axis=1)
    return predictions


def forward_table(runtime, images: np.ndarray) -> Dict[Tuple[int, float], float]:
    """Wall seconds of one ``forward_batch`` per (batch size, ratio)."""
    table = {}
    for ratio in runtime.available_ratios:
        for size in range(1, MAX_BATCH + 1):
            _, table[(size, float(ratio))] = runtime.forward_batch(images[:size], ratio=ratio)
    return table


class Burst:
    """The burst phase's requests and the checks on their responses."""

    def __init__(self, dataset, seed: int) -> None:
        self.images = dataset.test_images
        self.labels = dataset.test_labels
        order = np.random.default_rng(seed).permutation(len(self.images))
        self.slots = np.tile(order, BURST_PASSES)

    def requests(self) -> List:
        from repro.serving import Request

        return [Request(arrival_time=0.0, model="m", payload=self.images[slot])
                for slot in self.slots]

    def score(self, result, reference: Dict[float, np.ndarray]) -> Tuple[int, int, bool, dict]:
        """(served, correct, matches_reference, per-ratio top-1) of one burst."""
        served = _served(result)
        correct, matches = 0, True
        per_ratio: Dict[float, List[int]] = {}
        for response in served:
            slot = self.slots[response.request_id]
            predicted = int(np.argmax(response.output))
            hit = int(predicted == self.labels[slot])
            correct += hit
            matches &= predicted == int(reference[float(response.ratio)][slot])
            per_ratio.setdefault(float(response.ratio), []).append(hit)
        top1 = {ratio: 100.0 * float(np.mean(hits)) for ratio, hits in sorted(per_ratio.items())}
        return len(served), correct, matches, top1


def ladder_requests(rate: float, rng: np.random.Generator) -> List:
    """``LADDER_REQUESTS`` Poisson arrivals at ``rate``."""
    from repro.serving import Request

    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=LADDER_REQUESTS))
    return [Request(arrival_time=float(t), model="m") for t in arrivals]


def ladder_latencies(result, sent: int) -> np.ndarray:
    """Per-request latency in arrival order; a failed request is ``inf``."""
    latencies = np.full(sent, np.inf)
    for response in _served(result):
        latencies[response.request_id] = response.latency
    return latencies


def run(workload: str, seed: int, seconds: float, session: TraceSession) -> Report:
    from repro.core.prepared import PreparedKernel
    from repro.serving import RuntimeExecutor

    spec = SPECS[workload]
    report = Report()
    traced = session.enabled

    # Traced, the pipeline's own forward runs, so no probe lands inside the
    # fitness spans the per-layer metrics time.
    setup_probes = [speed_probe()]
    forward = None if traced else ProbingForward(setup_probes)
    with session.phase("setup"):
        start = time.perf_counter()
        runtime, dataset = build_runtime(spec.model, forward)
        raw_setup = time.perf_counter() - start - (forward.probe_seconds if forward else 0.0)
        setup_probes.append(speed_probe())
    ratios = [float(r) for r in runtime.available_ratios]
    burst = Burst(dataset, seed)

    with session.phase("check"):
        rng = np.random.default_rng(seed)
        sample = dataset.test_images[rng.choice(len(dataset.test_images), BITEXACT_IMAGES,
                                                replace=False)]
        report.check("prepared_bit_exact_all_ratios", check_bit_exact(runtime, sample))
        reference = reference_predictions(runtime, dataset.test_images)
    reference_top1 = {
        ratio: 100.0 * float(np.mean(pred == dataset.test_labels))
        for ratio, pred in reference.items()
    }

    builds_before = PreparedKernel.build_count
    measure_start = time.perf_counter()
    table_images = dataset.test_images[burst.slots[:MAX_BATCH]]
    walls, raw_walls, scores, rps_untraced = [], [], [], []
    tables: List[Dict[Tuple[int, float], float]] = []
    probes = [speed_probe()]
    phase = report.phase("burst")
    switches = 0

    def one_round() -> float:
        """``TABLE_PASSES`` passes over the forward table, then one burst.

        Every pass and the burst sit between two speed probes.
        """
        nonlocal switches
        for _ in range(TABLE_PASSES):
            raw_table = forward_table(runtime, table_images)
            probes.append(speed_probe())
            tables.append({key: to_reference(value, probes[-2], probes[-1])
                           for key, value in raw_table.items()})
        requests = burst.requests()
        executor = RuntimeExecutor(runtime)
        result, wall, error = _serve(executor, ratios, requests)
        probes.append(speed_probe())
        served, correct, matches, top1 = burst.score(result, reference)
        phase.add(len(requests), served, error)
        scores.append((served, correct, matches, top1, len(requests)))
        raw_walls.append(served / wall)
        switches += executor.ratio_switches
        return served / to_reference(wall, probes[-2], probes[-1])

    if traced:
        # Untraced baseline for the overhead, then two traced repetitions of
        # the same round whose counts must repeat exactly.
        with session.paused():
            rps_untraced = [one_round() for _ in range(MIN_ROUNDS)]
        switches = 0
        for rep in ("rep0", "rep1"):
            with session.phase(rep):
                walls.append(one_round())
    else:
        while len(walls) < MIN_ROUNDS or time.perf_counter() - measure_start < seconds:
            walls.append(one_round())
    table = {key: median([t[key] for t in tables]) for key in tables[0]}

    ladder_phase = report.phase("ladder")
    steps = []
    rng = np.random.default_rng([seed, 1])
    with session.phase("serve"):
        for rate in spec.ladder:
            requests = ladder_requests(rate, rng)
            result, _, error = _serve(TableExecutor(table), ratios, requests)
            latencies = ladder_latencies(result, len(requests))
            ladder_phase.add(len(requests), int(np.isfinite(latencies).sum()), error)
            steps.append(latencies)
    kernel_builds = PreparedKernel.build_count - builds_before

    limit = spec.p99_limit_ms / 1e3
    rate, p99s, passes = ladder(list(spec.ladder), steps, limit)
    nominal = steps[0]
    served_total = sum(s[0] for s in scores)
    correct_total = sum(s[1] for s in scores)
    report.put("setup_s", to_reference(raw_setup, median(setup_probes)), 1)
    report.put("requests_per_s", median(walls), len(walls))
    report.put("p50_ms", percentile(nominal, 50) * 1e3, len(nominal))
    report.put("p99_ms", percentile(nominal, 99) * 1e3, len(nominal))
    report.put("max_rate_rps", rate, sum(len(step) for step in steps))
    report.put("top1_pct", 100.0 * correct_total / max(served_total, 1), served_total)
    sent = sum(p.sent for p in report.phases.values())
    served = sum(p.served for p in report.phases.values())
    report.put("served_pct", 100.0 * served / max(sent, 1), sent)

    report.check("burst_matches_reference_predictions", all(s[2] for s in scores))
    report.check("per_ratio_top1_equals_reference", all(
        s[3] == {r: reference_top1[r] for r in s[3]} and len(s[3]) == len(ratios)
        for s in scores if s[0] == s[4]
    ))
    report.check("no_kernel_builds_while_serving", kernel_builds == 0)
    report.check("no_failed_requests", all(p.failed == 0 for p in report.phases.values()))

    report.details.update({
        "model": spec.model,
        "ratios": ratios,
        "max_batch": MAX_BATCH,
        "burst_requests": len(burst.slots),
        "rounds": len(walls),
        "forward_table_ms": {f"{size}@{ratio}": round(t * 1e3, 4)
                             for (size, ratio), t in sorted(table.items())},
        "ladder_rates": list(spec.ladder),
        "ladder_requests_per_step": LADDER_REQUESTS,
        "ladder_p99_ms": [round(p * 1e3, 4) for p in p99s],
        "ladder_passes": passes,
        "p99_limit_ms": spec.p99_limit_ms,
        "generator_lag_ms": 0.0,
        "top1_per_ratio": scores[0][3],
        "reference_top1_per_ratio": reference_top1,
        "kernel_builds_while_serving": kernel_builds,
        "raw_setup_s": raw_setup,
        "raw_requests_per_s": median(raw_walls),
        "speed_probe_s": median(probes),
    })
    report.outcomes.update({
        "burst_top1_pct": report.metrics["top1_pct"],
        "burst_batches": int(len(burst.slots) // MAX_BATCH),
    })
    if traced:
        report.details["untraced_requests_per_s"] = median(rps_untraced)
        report.details["traced_requests_per_s"] = median(walls)
        report.details["trace_extra"] = {
            "ratio_switches": float(switches),
            "migrated": 0.0,
            "obs_spans": 0.0,
            "alerts": 0.0,
            "served": float(sum(s[0] for s in scores[-2:])
                            + sum(int(np.isfinite(step).sum()) for step in steps)),
            "trace_overhead_pct": (median(rps_untraced) / median(walls) - 1.0) * 100.0,
        }
    return report
