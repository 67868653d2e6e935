#!/usr/bin/env python
"""Run the streaming overload sweep and the seeded burst demo.

Two checks back the Table-I overload cell:

1. the deterministic 10x burst demo — a rate burst plus a transient
   primary-stage outage streamed through the resilient executor.  The
   run must complete with exact window/event conservation
   (``processed + expired + shed + failed == offered``, ``failed == 0``),
   engage at least two shedding tiers, and every circuit breaker that
   opens must recover through its half-open probes;
2. the load sweep — each paradigm's delivered-window fraction across
   rising offered load must form a monotone (graceful) degradation
   curve with balanced accounting at every point;
3. the observability smoke — the demo's metrics snapshot must be
   schema-valid and non-empty, its per-stage span counts and
   shed/trip/expiry counters must reconcile exactly with the
   :class:`StreamReport` accounting, and re-running the same seed must
   produce a byte-identical snapshot (virtual-time determinism).

Exits non-zero when any check fails, so CI uses it as a smoke test.

Usage:
    python tools/run_streaming_sweep.py               # full-size run
    python tools/run_streaming_sweep.py --quick       # CI-sized run
    python tools/run_streaming_sweep.py --output /tmp/streaming.json
    python tools/run_streaming_sweep.py --metrics-output /tmp/metrics.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.observability import to_json, to_prometheus, validate_snapshot
from repro.parallel import SweepSpec, run_sweep
from repro.streaming import (
    degradation_violations,
    make_bursty_stream,
    overload_scores,
    run_overload_demo,
    validate_report,
)


def check_demo(seed: int) -> tuple[dict, list[str]]:
    """Run the burst demo and collect acceptance failures."""
    report, executor = run_overload_demo(seed=seed, burst_factor=10.0)
    failures = validate_report(report, context="demo")
    if report.failed != 0:
        failures.append(f"demo run failed {report.failed} window(s)")
    if len(report.tiers_engaged) < 2:
        failures.append(
            f"only {report.tiers_engaged} shedding tier(s) engaged, expected >= 2"
        )
    opened = [
        name
        for name, b in executor.breakers.items()
        if any(t.to_state.value == "open" for t in b.transitions)
    ]
    if not opened:
        failures.append("no breaker opened despite the transient outage")
    unrecovered = [
        name for name, b in executor.breakers.items() if not b.recovered
    ]
    if unrecovered:
        failures.append(f"breaker(s) never recovered: {unrecovered}")
    summary = {
        "offered": report.offered,
        "processed": report.processed,
        "expired": report.expired,
        "shed_windows": report.shed_windows,
        "failed": report.failed,
        "delivered_fraction": round(report.delivered_fraction, 4),
        "tiers_engaged": report.tiers_engaged,
        "shed_fractions_by_tier": {
            k: round(v, 4) for k, v in report.shed_fractions_by_tier().items()
        },
        "breakers_opened": opened,
        "breaker_transitions": len(report.breaker_transitions),
        "p50_latency_us": round(report.p50_latency_us, 1),
        "p99_latency_us": round(report.p99_latency_us, 1),
        "max_queue_depth": report.max_queue_depth,
    }
    return summary, failures


def check_observability(seed: int) -> tuple[dict, list[str], str]:
    """Snapshot validity, span/counter reconciliation and determinism.

    Runs the seeded burst demo twice: the first run's snapshot is
    checked structurally and reconciled against its report, the second
    must serialise byte-identically (the virtual-time clock makes the
    whole trace deterministic).

    Returns:
        ``(summary, failures, snapshot_json)``.
    """
    report, executor = run_overload_demo(seed=seed, burst_factor=10.0)
    snapshot = executor.snapshot()
    failures = [f"snapshot invalid: {p}" for p in validate_snapshot(snapshot)]
    registry = executor.obs.registry
    if registry.counter_total("stream_windows_total") == 0:
        failures.append("metrics snapshot recorded no windows (empty run?)")
    if not snapshot["trace"]:
        failures.append("trace tree is empty")

    counts = executor.obs.tracer.span_counts()
    failed_serve = registry.counter_value(
        "stream_windows_total", {"outcome": "failed_serve"}
    )
    checks = [
        ("ingest span count", counts.get("ingest", 0), report.offered),
        ("expire span count", counts.get("expire", 0), report.expired),
        (
            "serve span count",
            counts.get("serve", 0),
            report.processed + int(failed_serve),
        ),
        (
            "offered window counter",
            registry.counter_value("stream_windows_total", {"outcome": "offered"}),
            report.offered,
        ),
        (
            "processed window counter",
            registry.counter_value("stream_windows_total", {"outcome": "processed"}),
            report.processed,
        ),
        (
            "expired window counter",
            registry.counter_value("stream_windows_total", {"outcome": "expired"}),
            report.expired,
        ),
        (
            "shed window counter",
            registry.counter_value("stream_windows_total", {"outcome": "shed"}),
            report.shed_windows,
        ),
        (
            "shed events counter",
            registry.counter_total("stream_shed_events_total"),
            report.ledger.total_events_shed,
        ),
        (
            "breaker trip counter",
            registry.counter_total("stream_breaker_transitions_total"),
            len(report.breaker_transitions),
        ),
        (
            "latency histogram count",
            sum(
                h["count"]
                for h in snapshot["metrics"]["histograms"]
                if h["name"] == "stream_latency_us"
            ),
            report.processed,
        ),
    ]
    for name, stats in report.stage_stats.items():
        checks.append(
            (f"call:{name} span count", counts.get(f"call:{name}", 0), stats.calls)
        )
    for label, got, want in checks:
        if int(got) != int(want):
            failures.append(f"{label} {int(got)} != report's {int(want)}")

    snapshot_json = to_json(snapshot)
    _, executor2 = run_overload_demo(seed=seed, burst_factor=10.0)
    if to_json(executor2.snapshot()) != snapshot_json:
        failures.append("two identical seeded runs produced different snapshots")

    summary = {
        "spans": sum(counts.values()),
        "counter_series": len(snapshot["metrics"]["counters"]),
        "snapshot_bytes": len(snapshot_json),
        "reconciliation_checks": len(checks),
    }
    return summary, failures, snapshot_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "streaming_sweep.json"
    )
    parser.add_argument(
        "--metrics-output",
        type=Path,
        default=None,
        help="where the demo's instrumentation snapshot artifact goes "
        "(default: streaming_metrics.json next to --output; a Prometheus "
        "text twin lands next to it with a .prom suffix)",
    )
    args = parser.parse_args()
    if args.metrics_output is None:
        args.metrics_output = args.output.with_name("streaming_metrics.json")

    t0 = time.time()
    demo_summary, failures = check_demo(args.seed)
    obs_summary, obs_failures, snapshot_json = check_observability(args.seed)
    failures += obs_failures
    args.metrics_output.write_text(snapshot_json)
    args.metrics_output.with_suffix(".prom").write_text(
        to_prometheus(json.loads(snapshot_json))
    )

    if args.quick:
        num_windows, load_factors = 80, (0.5, 2.0, 6.0)
    else:
        num_windows, load_factors = 240, (0.5, 1.0, 2.0, 4.0, 8.0)
    stream = make_bursty_stream(
        num_windows=num_windows,
        burst_factor=1.0,
        burst_windows=(0, 0),
        seed=args.seed + 1,
    )
    result = run_sweep(
        SweepSpec(
            kind="streaming",
            stream=stream,
            window_us=10_000,
            conditions=load_factors,
            seed=args.seed,
        )
    ).result
    failures += degradation_violations(result)
    scores = overload_scores(result)
    elapsed = time.time() - t0

    payload = {
        "elapsed_s": round(elapsed, 2),
        "demo": demo_summary,
        "observability": obs_summary,
        "load_factors": list(load_factors),
        "curves": {
            name: [round(f, 4) for f in result.delivered(name)]
            for name in result.curves
        },
        "overload_scores": {k: round(v, 4) for k, v in scores.items()},
        "failures": failures,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"streaming sweep finished in {elapsed:.1f}s -> {args.output}")
    print(
        f"  observability: {obs_summary['spans']} spans, "
        f"{obs_summary['counter_series']} counter series, "
        f"{obs_summary['reconciliation_checks']} reconciliation checks "
        f"-> {args.metrics_output}"
    )
    print(
        f"  demo: {demo_summary['processed']}/{demo_summary['offered']} delivered, "
        f"tiers {demo_summary['tiers_engaged']}, "
        f"breakers opened {demo_summary['breakers_opened']}"
    )
    for name in result.curves:
        curve = ", ".join(
            f"{lf:g}x:{f:.3f}" for lf, f in zip(load_factors, result.delivered(name))
        )
        print(f"  {name}: {curve}  (overload score {scores[name]:.3f})")
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("accounting exact, breakers recovered, degradation monotone")
    return 0


if __name__ == "__main__":
    sys.exit(main())
