"""FlexiQ benchmark: one command for every workload, end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload resnet18_serve --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``resnet18_serve`` / ``vit_small_serve`` -- a paper-default FlexiQ
  runtime serving labelled images through ``ServingEngine`` +
  ``RuntimeExecutor`` (see ``perfbench/serve.py``);
* ``cluster_day`` -- the ~1.04M-request diurnal day through the columnar
  sweep; ``outage_day`` -- its first 200k requests through the cluster's
  object loop under a zone outage (see ``perfbench/days.py``).

``--trace 0`` measures for ``--seconds`` and prints every end-to-end metric;
``--trace 1`` wraps each layer's public entry points (``perfbench/layers.py``),
runs a fixed amount of work and prints every per-layer metric.  Either way
the output checks run in the same process and any failure makes the result
``"correct": false``.  The human-readable report (units, sample counts,
checks, operation accounting, simulated outcomes, provenance) precedes the
last stdout line, which is the JSON result; the full report, and the
gzipped spans of a traced run, are written under ``perfbench/out/``.

Wall-clock figures (set-up time, throughput, the serve ladders' forward
times) are scaled to a reference machine speed by speed probes taken next to
each timed unit (``perfbench.common.speed_probe``): the benchmark shares its
machine, whose speed drifts by tens of percent over minutes.  The raw
figures are in the report file.

The process is single-threaded: BLAS is pinned to one thread and no worker
pool is started.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("resnet18_serve", "vit_small_serve", "cluster_day", "outage_day")
MIN_COVERAGE_PCT = 90.0


def pin_blas_threads() -> None:
    """One BLAS thread; takes effect only before numpy is first imported."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_workload(args, session):
    from perfbench import days, serve

    if args.workload in serve.SPECS:
        return serve.run(args.workload, args.seed, args.seconds, session)
    if args.workload == "cluster_day":
        return days.run_cluster_day(args.seed, args.seconds, session)
    return days.run_outage_day(args.seed, args.seconds, session)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 1e18


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no FlexiQ sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from perfbench import provenance
    from perfbench.common import END_TO_END, PER_LAYER
    from perfbench.layers import TraceSession

    load_before = os.getloadavg()
    session = TraceSession(bool(args.trace))
    try:
        report = _run_workload(args, session)
    finally:
        session.close()
    report.put("peak_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)

    if args.trace:
        layer = session.metrics(report.details.get("trace_extra", {
            "ratio_switches": 0.0, "migrated": 0.0, "obs_spans": 0.0, "alerts": 0.0,
            "served": 0.0, "trace_overhead_pct": 0.0}))
        report.check("traced_counts_repeat_exactly", session.repeats_exactly())
        report.check("layer_self_times_cover_wall",
                     layer["bench.coverage_pct"] >= MIN_COVERAGE_PCT)
        printed = {name: (layer[name], unit, 1) for name, unit in PER_LAYER.items()}
    else:
        printed = {name: (report.metrics[name], unit, report.samples[name])
                   for name, unit in END_TO_END.items()}
    report.check("metrics_finite", all(math.isfinite(v) for v, _, _ in printed.values()))
    correct = all(report.checks.values())

    meta = provenance.collect(ROOT, load_before, args.seed, args.workload,
                              args.seconds, bool(args.trace))
    full = {
        "provenance": meta,
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in printed.items()},
        "checks": report.checks,
        "phases": {name: phase.to_json() for name, phase in report.phases.items()},
        "outcomes": report.outcomes,
        "details": report.details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1, default=float))
    if args.trace:
        with gzip.open(OUT_DIR / f"{stem}-spans.json.gz", "wt", compresslevel=1) as handle:
            json.dump(session.recorder.to_json(), handle)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sha {meta['git_sha']}  nproc {meta['nproc']}  "
          f"load {meta['loadavg_before']} -> {meta['loadavg_after']}")
    for name, phase in report.phases.items():
        print(f"  phase {name:<8} sent {phase.sent:>9}  served {phase.served:>9}  "
              f"failed {phase.failed}")
    for name, ok in report.checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    if report.outcomes:
        print("  outcomes " + json.dumps(report.outcomes, default=float))
    for name, (value, unit, samples) in printed.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": {n: {"value": _finite(v), "unit": u} for n, (v, u, _) in printed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
