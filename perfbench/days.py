"""Cluster workloads: the million-request diurnal day and its outage head.

``cluster_day`` -- a compressed diurnal day (3k req/s at night, 13k at
midday, 130 one-second phases, ~1.04M requests) through an 8-server
``ServingEngine`` of modeled executors: FIFO, fixed ratio 0.5, batch 16,
``drop_after`` 0.1 s, with a per-second streaming ``TelemetryBus``.  It
drains through the columnar sweep (``run_fifo_columnar``) and bulk
telemetry ingest; no kernels run and no request objects are built.

``outage_day`` -- the first 200k requests of the same day as a store-backed
(``lazy=True``) request view with 0.8 s deadlines, served by a
``ClusterEngine``: EDF scheduling, the ``"spread"`` placer over four zones
(six A6000 primaries, two warm spares), zone A failing from t=12 s to
t=22 s with ``RequeueAtHeadMigration`` + ``StepCheckpoint``, 0.25 s
control windows, a 1%-sampled ``Tracer`` and an ``SloMonitor``.  It runs
the object dispatch loop, placement, scheduling, resilience, per-batch
telemetry and ``repro.obs``.

Both report simulated latencies (the modeled clock, identical for a seed on
every run and every commit) next to the wall-clock cost of simulating them.
``max_rate_rps`` reads the day itself as a rate ladder: the one-second
phases of the rising half, in ascending rate.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench.common import Report, ladder, median, percentile, speed_probe, to_reference
from perfbench.layers import TraceSession

NIGHT_RATE, PEAK_RATE = 3000.0, 13000.0
DAY_SECONDS = 130.0
DAY_SERVERS = 8
DAY_MAX_BATCH = 16
DAY_DROP_AFTER = 0.1
DAY_RATIO = 0.5
DAY_LIMIT_MS = 50.0
DAY_IN_TIME_MS = 100.0       # an answer later than this counts as late
HEAD_SLICE = 50_000          # requests of the parity checks
SETUP_REPEATS = 5
MIN_DAYS = 3

OUTAGE_REQUESTS = 200_000
OUTAGE_DEADLINE = 0.8
OUTAGE_ZONES = "AABBCDCD"    # six primaries, then the two warm spares
OUTAGE_SPARES = (6, 7)
OUTAGE_AT, RECOVER_AT = 12.0, 22.0
OUTAGE_WINDOW = 0.25
OUTAGE_SAMPLE_RATE = 0.01
OUTAGE_LIMIT_MS = 100.0
PROBE_EVERY_WINDOWS = 10


def diurnal_trace(seed: int):
    import repro.data.traces as traces

    return traces.DiurnalTrace(
        night_rate=NIGHT_RATE, peak_rate=PEAK_RATE, duration=DAY_SECONDS,
        period=DAY_SECONDS, num_phases=int(DAY_SECONDS), seed=seed,
    ).generate()


def head_trace(trace, count: int):
    from repro.data.traces import RequestTrace

    arrivals = np.asarray(trace.sorted_arrivals()[:count])
    return RequestTrace(arrivals, duration=float(arrivals[-1]))


def day_engine(columnar: bool = True, num_servers: int = DAY_SERVERS,
               telemetry: bool = True):
    """The day's engine; ``telemetry`` attaches a per-second streaming bus."""
    from repro.serving import (BatchingConfig, FixedRatioPolicy, ModeledExecutor,
                               ServiceTimeModel, ServingEngine, TelemetryBus)

    engine = ServingEngine(
        BatchingConfig(max_batch=DAY_MAX_BATCH, drop_after=DAY_DROP_AFTER),
        num_servers=num_servers, columnar=columnar,
        telemetry=(TelemetryBus(window=1.0, num_servers=num_servers,
                                latency_digest="reservoir") if telemetry else None),
    )
    engine.register("m", ModeledExecutor(ServiceTimeModel()),
                    policy=FixedRatioPolicy(DAY_RATIO))
    return engine


def outage_cluster(tracer, monitor):
    from repro.serving import (BatchingConfig, ClusterEngine, FaultSchedule,
                               RequeueAtHeadMigration, StepCheckpoint, WarmSparePool,
                               gpu_server)
    from repro.serving.schedulers import EdfScheduler

    specs = [gpu_server(f"g{i}", "vit_base", gpu="a6000", zone=zone)
             for i, zone in enumerate(OUTAGE_ZONES)]
    cluster = ClusterEngine(
        specs,
        BatchingConfig(max_batch=64),
        scheduler=EdfScheduler(),
        placer="spread",
        warm_spares=WarmSparePool(list(OUTAGE_SPARES), promotion_latency=0.05),
        fault_schedule=FaultSchedule.zone_outage("A", at=OUTAGE_AT, recover_at=RECOVER_AT),
        migration=RequeueAtHeadMigration(delay=0.01),
        checkpoint=StepCheckpoint(steps=4),
        window=OUTAGE_WINDOW,
        tracer=tracer,
        slo_monitor=monitor,
    )
    cluster.register("m", mode="int8")
    return cluster


class ProbingMonitor:
    """``SloMonitor`` stand-in that also takes a speed probe every few windows.

    A day of ``outage_day`` runs for seconds without a break; probes taken
    inside it, at window boundaries, follow the machine's speed through the
    run.  Their time is subtracted from the day's wall time.
    """

    def __init__(self, monitor, probes: List[float]) -> None:
        self.monitor = monitor
        self.probes = probes
        self.probe_seconds = 0.0
        self._windows = 0

    def reset(self) -> None:
        self.monitor.reset()

    def evaluate(self, telemetry, window: int, active_servers):
        self._windows += 1
        if self._windows % PROBE_EVERY_WINDOWS == 0:
            start = time.perf_counter()
            self.probes.append(speed_probe())
            self.probe_seconds += time.perf_counter() - start
        return self.monitor.evaluate(telemetry, window, active_servers)


def slo_monitor():
    from repro.obs import BurnRateRule, SloMonitor, SloObjective

    return SloMonitor(
        objectives=[
            SloObjective("deadline_attainment", target=0.99),
            SloObjective("latency_150ms", target=0.99, kind="latency",
                         latency_slo_seconds=0.15),
        ],
        rules=[
            BurnRateRule(threshold=14.4, fast_windows=1, slow_windows=4, severity="page"),
            BurnRateRule(threshold=3.0, fast_windows=6, slow_windows=12, severity="ticket"),
        ],
    )


def phase_ladder(arrivals: np.ndarray, latencies: np.ndarray):
    """(rates, latencies per step) over the rising half's one-second phases.

    ``latencies`` align with ``arrivals``; a dropped request is ``inf``.
    """
    from repro.data.traces import DiurnalTrace

    shape = DiurnalTrace(night_rate=NIGHT_RATE, peak_rate=PEAK_RATE,
                         duration=DAY_SECONDS, period=DAY_SECONDS,
                         num_phases=int(DAY_SECONDS))
    rates = shape.phase_rates()
    phase = np.floor(arrivals).astype(np.int64)
    last = min(int(phase.max()), int(DAY_SECONDS) // 2 - 1)
    ladder_rates, steps = [], []
    for index in range(last + 1):
        in_phase = latencies[phase == index]
        if len(in_phase) >= 100:
            ladder_rates.append(rates[index])
            steps.append(in_phase)
    return ladder_rates, steps


def _outcome(result, sent: int) -> Dict[str, object]:
    latencies = result.latencies
    return {
        "sent": sent,
        "served": int(latencies.size),
        "dropped": int(result.dropped),
        "migrated": int(result.migrated),
        "batches": int(len(result.batch_records)),
        "sim_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_p99_ms": percentile(latencies, 99) * 1e3,
    }


def _same(first: Dict[str, float], second: Dict[str, float]) -> bool:
    return all(first[key] == second[key] for key in first)


def _prometheus_valid(exposition: str) -> bool:
    def number(token: str) -> bool:
        try:
            float(token)
            return True
        except ValueError:
            return False

    return exposition.endswith("\n") and all(
        line.startswith(("# HELP ", "# TYPE "))
        or (len(line.rsplit(" ", 1)) == 2 and number(line.rsplit(" ", 1)[1]))
        for line in exposition.splitlines() if line
    )


def _repeat_until(seconds: float, minimum: int, traced: bool, session: TraceSession,
                  once, raw: List[float], probes: List[float]) -> List[float]:
    """Run ``once`` for the measuring window; its wall seconds at reference speed.

    ``once`` returns the wall seconds of its timed part, also appended to
    ``raw``.  A speed probe runs before the first call and after every call,
    added to the run's ``probes`` (``once`` may add more of its own while it
    runs); each call is scaled by the median of the probes from the one
    before it to the one after it.  Traced, it runs ``minimum`` times
    untraced (the overhead baseline) and then once in each traced
    repetition.
    """
    probes.append(speed_probe())
    walls: List[float] = []
    durations: List[float] = []

    def timed() -> None:
        start, first = time.perf_counter(), len(probes) - 1
        wall = once()
        probes.append(speed_probe())
        walls.append(to_reference(wall, median(probes[first:])))
        durations.append(time.perf_counter() - start)
        raw.append(wall)

    if traced:
        with session.paused():
            for _ in range(minimum):
                timed()
        for rep in ("rep0", "rep1"):
            with session.phase(rep):
                timed()
    else:
        start = time.perf_counter()
        while len(walls) < minimum or (
            time.perf_counter() - start + median(durations) <= seconds
        ):
            timed()
    return walls


def _overhead_pct(walls: List[float]) -> float:
    """Traced repetitions (the last two walls) against the untraced median."""
    return (median(walls[-2:]) / median(walls[:-2]) - 1.0) * 100.0


def _common_metrics(report: Report, setups: List[float], walls: List[float], sent: int,
                    result, arrivals: np.ndarray, limit_ms: float, in_time: float,
                    in_time_meaning: str) -> None:
    report.put("setup_s", median(setups), len(setups))
    report.put("requests_per_s", sent / median(walls), len(walls))
    latencies = result.latencies
    report.put("p50_ms", percentile(latencies, 50) * 1e3, latencies.size)
    report.put("p99_ms", percentile(latencies, 99) * 1e3, latencies.size)
    request_latencies = np.where(np.isnan(result.request_latencies), np.inf,
                                 result.request_latencies)
    rates, steps = phase_ladder(arrivals, request_latencies)
    rate, p99s, passes = ladder(rates, steps, limit_ms / 1e3)
    report.put("max_rate_rps", rate, sent)
    report.put("top1_pct", 100.0 * in_time / sent, sent)
    report.put("served_pct", 100.0 * latencies.size / sent, sent)
    report.details.update({
        "ladder_rates": [round(r, 3) for r in rates],
        "ladder_p99_ms": [round(p * 1e3, 4) for p in p99s],
        "ladder_passes": passes,
        "p99_limit_ms": limit_ms,
        "top1_pct_meaning": in_time_meaning,
    })


def run_cluster_day(seed: int, seconds: float, session: TraceSession) -> Report:
    from repro.serving import BatchingConfig, ServiceTimeModel, ServingSimulator

    report = Report()
    traced = session.enabled
    setups: List[float] = []
    probes = [speed_probe()]
    with session.phase("setup"):
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            trace = diurnal_trace(seed)
            day_engine()
            raw = time.perf_counter() - start
            probes.append(speed_probe())
            setups.append(to_reference(raw, probes[-2], probes[-1]))
    arrivals = np.asarray(trace.sorted_arrivals())
    sent = len(arrivals)

    with session.phase("check"):
        head = head_trace(trace, HEAD_SLICE)
        columnar = day_engine(columnar=True).run(head, model="m")
        legacy = day_engine(columnar=False).run(head, model="m")
        report.check("head_columnar_equals_object_loop", bool(
            np.array_equal(columnar.request_latencies, legacy.request_latencies,
                           equal_nan=True)
            and columnar.batch_sizes == legacy.batch_sizes
            and columnar.dropped == legacy.dropped
        ))
        seed_sim = ServingSimulator(
            ServiceTimeModel(),
            BatchingConfig(max_batch=DAY_MAX_BATCH, drop_after=DAY_DROP_AFTER),
        ).run(head, "flexiq", ratio=DAY_RATIO)
        single = day_engine(num_servers=1, telemetry=False).run(head, model="m")
        report.check("head_k1_equals_serving_simulator", bool(
            np.array_equal(seed_sim.latencies, single.latencies)
            and list(seed_sim.batch_sizes) == list(single.batch_sizes)
            and seed_sim.dropped == single.dropped
        ))

    outcomes: List[Dict[str, object]] = []
    results = []
    phase = report.phase("day")

    def once() -> float:
        engine = day_engine()
        start = time.perf_counter()
        try:
            result = engine.run(trace, model="m")
            error = ""
        except Exception as exc:  # counted as failed requests, not raised
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if result is None:
            phase.add(sent, 0, error)
            return wall
        # A dropped request got an answer: "shed" is the engine's response.
        phase.add(sent, int(result.latencies.size) + int(result.dropped))
        outcomes.append(_outcome(result, sent))
        results[:] = [result]
        return wall

    raw_walls: List[float] = []
    walls = _repeat_until(seconds, MIN_DAYS, traced, session, once, raw_walls, probes)
    if not results:
        report.check("days_completed", False)
        return report
    result = results[0]
    in_time = int((result.latencies <= DAY_IN_TIME_MS / 1e3).sum())
    _common_metrics(report, setups, walls[-2:] if traced else walls, sent, result,
                    arrivals, DAY_LIMIT_MS, in_time,
                    "share of sent requests answered within 100 ms "
                    "(modeled requests carry no labels)")
    report.check("outcomes_identical_across_runs",
                 all(_same(outcomes[0], o) for o in outcomes[1:]))
    report.check("no_failed_requests", phase.failed == 0)
    report.outcomes.update(outcomes[0])
    report.details.update({"days": len(walls), "raw_requests_per_s": sent / median(raw_walls),
                           "speed_probe_s": median(probes),
                           "servers": DAY_SERVERS,
                           "max_batch": DAY_MAX_BATCH, "drop_after_s": DAY_DROP_AFTER})
    if traced:
        report.details["trace_extra"] = {
            "ratio_switches": 0.0, "migrated": 0.0, "obs_spans": 0.0, "alerts": 0.0,
            "served": float(2 * result.latencies.size),
            "trace_overhead_pct": _overhead_pct(walls),
        }
    return report


def run_outage_day(seed: int, seconds: float, session: TraceSession) -> Report:
    import repro.obs as obs
    import repro.serving as serving

    report = Report()
    traced = session.enabled
    setups: List[float] = []
    probes: List[float] = []

    def build():
        probes.append(speed_probe())
        start = time.perf_counter()
        head = head_trace(diurnal_trace(seed), OUTAGE_REQUESTS)
        requests = serving.requests_from_trace(head, model="m", deadlines=[OUTAGE_DEADLINE],
                                               lazy=True)
        tracer = obs.Tracer(sample_rate=OUTAGE_SAMPLE_RATE)
        monitor = ProbingMonitor(slo_monitor(), probes)
        cluster = outage_cluster(tracer, monitor)
        raw = time.perf_counter() - start
        probes.append(speed_probe())
        setups.append(to_reference(raw, probes[-2], probes[-1]))
        return head, requests, tracer, cluster, monitor

    with session.phase("setup"):
        for _ in range(SETUP_REPEATS):
            head = build()[0]
    arrivals = np.asarray(head.sorted_arrivals())
    sent = len(arrivals)

    outcomes: List[Dict[str, object]] = []
    last: Dict[str, object] = {}
    phase = report.phase("day")

    def once() -> float:
        with session.phase("setup"):
            _, requests, tracer, cluster, monitor = build()
        start = time.perf_counter()
        try:
            outcome = cluster.run(requests=requests)
            error = ""
        except Exception as exc:  # counted as failed requests, not raised
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start - monitor.probe_seconds
        if outcome is None:
            phase.add(sent, 0, error)
            return wall
        result = outcome.result
        phase.add(sent, int(result.latencies.size) + int(result.dropped))
        summary = _outcome(result, sent)
        summary.update({"alerts": len(outcome.alert_events), "spans": len(tracer.store),
                        "faults": len(outcome.fault_events),
                        "scale_events": len(outcome.scale_events)})
        outcomes.append(summary)
        last.update(outcome=outcome, tracer=tracer, requests=requests)
        return wall

    raw_walls: List[float] = []
    walls = _repeat_until(seconds, 1, traced, session, once, raw_walls, probes)
    if not last:
        report.check("days_completed", False)
        return report
    outcome, tracer, requests = last["outcome"], last["tracer"], last["requests"]
    result = outcome.result

    with session.phase("check"):
        served = int(np.isfinite(result.request_latencies).sum())
        lost = sent - served - int(result.dropped)
        report.check("conservation_served_dropped_lost_equals_sent",
                     lost == 0 and len(result.request_latencies) == sent)
        terminals = tracer.terminal_requests()
        sampled = np.flatnonzero(tracer.sample_mask(np.arange(sent)))
        report.check("one_terminal_span_per_sampled_request", bool(
            len(sampled) > 0
            and all(count == 1 for count in terminals.values())
            and all(terminals.get(int(slot), 0) == 1 for slot in sampled)
        ))
        chrome = obs.to_chrome_trace(tracer, timeline=outcome.timeline(),
                                     server_names=[spec.name for spec in outcome.specs])
        try:
            obs.validate_chrome_trace(chrome)
            chrome_valid = True
        except ValueError:
            chrome_valid = False
        report.check("chrome_trace_valid", chrome_valid)
        exposition = obs.prometheus_exposition(obs.registry_from_cluster(outcome))
        report.check("prometheus_exposition_valid", _prometheus_valid(exposition))

    deadlines = arrivals + OUTAGE_DEADLINE
    finish = arrivals + np.nan_to_num(result.request_latencies, nan=np.inf)
    in_time = int((finish <= deadlines).sum())
    _common_metrics(report, setups, walls[-2:] if traced else walls, sent, result,
                    arrivals, OUTAGE_LIMIT_MS, in_time,
                    "share of sent requests answered by their 0.8 s deadline "
                    "(modeled requests carry no labels)")
    report.check("outcomes_identical_across_runs",
                 all(_same(outcomes[0], o) for o in outcomes[1:]))
    report.check("no_failed_requests", phase.failed == 0)
    report.outcomes.update(outcomes[0])
    report.details.update({
        "days": len(walls), "raw_requests_per_s": sent / median(raw_walls),
        "speed_probe_s": median(probes), "lazy_requests": type(requests).__name__,
        "deadline_s": OUTAGE_DEADLINE, "outage": [OUTAGE_AT, RECOVER_AT],
        "trace_events": len(chrome["traceEvents"]),
        "prometheus_lines": len(exposition.splitlines()),
    })
    if traced:
        report.details["trace_extra"] = {
            "ratio_switches": 0.0,
            "migrated": float(result.migrated),
            "obs_spans": float(len(tracer.store)),
            "alerts": float(len(outcome.alert_events)),
            "served": float(2 * result.latencies.size),
            "trace_overhead_pct": _overhead_pct(walls),
        }
    return report

