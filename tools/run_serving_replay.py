#!/usr/bin/env python
"""Run the multi-tenant serving chaos replay and gate its guarantees.

Five checks back the serving layer's isolation story:

1. **accounting** — all four replay runs ({isolated, shared} x
   {fault-free, chaos}) must reconcile exactly: per-tenant ledgers
   partition the offered windows, SLO met/missed partitions them again,
   isolated ledgers equal their own balanced ``StreamReport`` counters
   and shared member ledgers sum to their group's counters;
2. **bulkhead isolation** — under chaos, every admitted non-targeted
   tenant's delivered-at-SLO fraction must sit within
   ``ISOLATION_TOLERANCE`` of its fault-free control, while the shared
   no-isolation baseline must show measurable cross-tenant degradation
   (the coupling the bulkheads remove);
3. **paradigm failover** — each admitted stage-fault target must show
   its primary paradigm's breaker opening, windows re-routing onto the
   fallback chain, and the breaker re-closing with the primary serving
   again after the fault interval;
4. **observability** — both merged fleet snapshots must be
   schema-valid and non-empty, and the fleet's ``serving_*`` counters
   must reconcile exactly against the per-tenant ledgers and the
   tenant-labelled executor counters inside the same snapshot;
5. **determinism** — re-running the identical seeded replay must
   serialise byte-identically, and the isolated fleet must stay
   byte-identical across 1, 2 and 4 shards (placement independence).

Exits non-zero when any check fails, so CI uses it as a smoke test.

Usage:
    python tools/run_serving_replay.py               # full-size run
    python tools/run_serving_replay.py --quick       # CI-sized run
    python tools/run_serving_replay.py --output /tmp/serving.json
    python tools/run_serving_replay.py --metrics-output /tmp/metrics.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.observability import to_json, to_prometheus, validate_snapshot
from repro.serving import run_serving_replay
from repro.serving.fleet import _LEDGER_KEYS
from repro.serving.replay import ISOLATION_TOLERANCE


def _counter_value(snapshot: dict, name: str, labels: dict) -> int | None:
    """Exact-label counter lookup inside a merged snapshot."""
    for entry in snapshot["metrics"]["counters"]:
        if entry["name"] == name and entry["labels"] == labels:
            return int(entry["value"])
    return None


def check_isolation(result) -> tuple[dict, list[str]]:
    """Gate the bulkhead story: isolated holds, shared couples."""
    failures: list[str] = []
    stories = result.payload["modes"]
    iso = stories["isolated"]
    shared = stories["shared"]
    if not iso["isolation_holds"]:
        failures.append(
            "bulkhead breach: isolated non-targeted delta "
            f"{iso['max_non_targeted_delta']:.4f} > {ISOLATION_TOLERANCE}"
        )
    if shared["max_non_targeted_delta"] <= ISOLATION_TOLERANCE:
        failures.append(
            "shared baseline shows no cross-tenant coupling "
            f"({shared['max_non_targeted_delta']:.4f}) — the replay "
            "proves nothing at this configuration"
        )
    targeted = set(result.payload["targeted_tenants"])
    admitted = set(result.reports["isolated"]["chaos"].admitted_ids)
    if not targeted & admitted:
        failures.append("no chaos-targeted tenant was admitted")
    summary = {
        "targeted": sorted(targeted),
        "isolated_max_non_targeted_delta": iso["max_non_targeted_delta"],
        "shared_max_non_targeted_delta": shared["max_non_targeted_delta"],
        "isolated_holds": iso["isolation_holds"],
        "shared_couples": shared["max_non_targeted_delta"]
        > ISOLATION_TOLERANCE,
    }
    return summary, failures


def check_failover(result) -> tuple[list[dict], list[str]]:
    """Gate the end-to-end failover evidence of stage-fault targets."""
    failures: list[str] = []
    evidence = result.payload["failover"] or []
    if not evidence:
        failures.append("no admitted stage-fault target to exercise failover")
    recovered = 0
    for item in evidence:
        tid = item["tenant_id"]
        if not item.get("available"):
            failures.append(f"failover: {tid} has no stream report")
            continue
        if not item["breaker_opened"]:
            failures.append(
                f"failover: {tid} primary {item['primary']} never tripped"
            )
        if item["served_by_fallbacks"] == 0:
            failures.append(f"failover: {tid} never re-routed to a fallback")
        if item["recovered"]:
            recovered += 1
        else:
            failures.append(
                f"failover: {tid} primary {item['primary']} did not recover "
                f"(final state {item['final_state']!r})"
            )
    if evidence and recovered == 0:
        failures.append("no targeted tenant completed the failover round trip")
    return evidence, failures


def check_observability(result) -> tuple[dict, list[str]]:
    """Snapshot validity plus exact counter/ledger reconciliation."""
    failures: list[str] = []
    checks = 0
    for mode, snapshot in result.snapshots.items():
        failures.extend(
            f"{mode} snapshot invalid: {p}" for p in validate_snapshot(snapshot)
        )
        if not snapshot["metrics"]["counters"]:
            failures.append(f"{mode} snapshot has no counters")
            continue
        report = result.reports[mode]["chaos"]
        for outcome_name, want in (
            ("admitted", len(report.admitted_ids)),
            ("refused", len(report.refused_ids)),
        ):
            got = _counter_value(
                snapshot, "serving_tenants_total", {"outcome": outcome_name}
            )
            checks += 1
            if got != want:
                failures.append(
                    f"{mode}: serving_tenants_total[{outcome_name}] "
                    f"{got} != {want}"
                )
        for tid, outcome in report.tenants.items():
            for key in _LEDGER_KEYS:
                got = _counter_value(
                    snapshot,
                    "serving_windows_total",
                    {"tenant": tid, "outcome": key},
                )
                checks += 1
                if got != outcome.ledger[key]:
                    failures.append(
                        f"{mode}: serving_windows_total[{tid},{key}] "
                        f"{got} != ledger {outcome.ledger[key]}"
                    )
            for slo_outcome, want in (
                ("met", outcome.slo_met),
                ("missed", outcome.slo_missed),
            ):
                got = _counter_value(
                    snapshot,
                    "serving_slo_windows_total",
                    {"tenant": tid, "outcome": slo_outcome},
                )
                checks += 1
                if got != want:
                    failures.append(
                        f"{mode}: serving_slo_windows_total[{tid},"
                        f"{slo_outcome}] {got} != {want}"
                    )
            # Isolated mode also carries each tenant's own executor
            # counters, relabelled with the tenant id — the serving
            # ledger must agree with them series-for-series.
            if mode == "isolated" and outcome.admission.admitted:
                for stream_outcome, want in (
                    ("offered", outcome.ledger["offered"]),
                    ("processed", outcome.ledger["processed"]),
                    ("expired", outcome.ledger["expired"]),
                    ("shed", outcome.ledger["shed"]),
                ):
                    got = _counter_value(
                        snapshot,
                        "stream_windows_total",
                        {"outcome": stream_outcome, "tenant": tid},
                    )
                    checks += 1
                    if got != want:
                        failures.append(
                            f"isolated: stream_windows_total[{tid},"
                            f"{stream_outcome}] {got} != ledger {want}"
                        )
    summary = {
        "modes": sorted(result.snapshots),
        "reconciliation_checks": checks,
        "counter_series": {
            mode: len(snap["metrics"]["counters"])
            for mode, snap in result.snapshots.items()
        },
    }
    return summary, failures


def check_determinism(result, replay_kwargs: dict) -> tuple[dict, list[str]]:
    """Byte-identity across re-runs and isolated shard counts."""
    failures: list[str] = []
    payload_json = json.dumps(result.payload, sort_keys=True)
    snapshot_json = {
        mode: to_json(snap) for mode, snap in result.snapshots.items()
    }
    rerun = run_serving_replay(**replay_kwargs)
    if json.dumps(rerun.payload, sort_keys=True) != payload_json:
        failures.append("re-run with identical seed changed the payload")
    for mode, snap in rerun.snapshots.items():
        if to_json(snap) != snapshot_json[mode]:
            failures.append(f"re-run changed the {mode} merged snapshot")

    report_json = json.dumps(
        result.reports["isolated"]["chaos"].to_dict(), sort_keys=True
    )
    shard_counts = [2, 4]
    for n_shards in shard_counts:
        sharded = run_serving_replay(
            **{**replay_kwargs, "n_shards": n_shards, "modes": ("isolated",)}
        )
        if (
            json.dumps(
                sharded.reports["isolated"]["chaos"].to_dict(), sort_keys=True
            )
            != report_json
        ):
            failures.append(
                f"isolated report differs at n_shards={n_shards} "
                "(placement leaked into the accounting)"
            )
        if to_json(sharded.snapshots["isolated"]) != snapshot_json["isolated"]:
            failures.append(
                f"isolated snapshot differs at n_shards={n_shards}"
            )
    summary = {
        "payload_bytes": len(payload_json),
        "snapshot_bytes": {m: len(s) for m, s in snapshot_json.items()},
        "shard_counts_checked": [1, *shard_counts],
    }
    return summary, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tenants", type=int, default=12)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "serving_replay.json"
    )
    parser.add_argument(
        "--metrics-output",
        type=Path,
        default=None,
        help="where the isolated chaos run's merged snapshot artifact "
        "goes (default: serving_metrics.json next to --output; a "
        "Prometheus text twin lands next to it with a .prom suffix)",
    )
    args = parser.parse_args()
    if args.metrics_output is None:
        args.metrics_output = args.output.with_name("serving_metrics.json")

    num_windows = 40 if args.quick else 60
    replay_kwargs = dict(
        num_tenants=args.tenants,
        num_windows=num_windows,
        seed=args.seed,
        include_traces=not args.quick,
    )

    t0 = time.time()
    result = run_serving_replay(**replay_kwargs)
    failures = list(result.validation_errors)
    iso_summary, iso_failures = check_isolation(result)
    failover_evidence, failover_failures = check_failover(result)
    obs_summary, obs_failures = check_observability(result)
    det_summary, det_failures = check_determinism(result, replay_kwargs)
    failures += iso_failures + failover_failures + obs_failures + det_failures

    snapshot_json = to_json(result.snapshots["isolated"])
    args.metrics_output.write_text(snapshot_json)
    args.metrics_output.with_suffix(".prom").write_text(
        to_prometheus(json.loads(snapshot_json))
    )
    elapsed = time.time() - t0

    aggregate = {
        mode: {
            label: result.reports[mode][label].aggregate()
            for label in ("fault_free", "chaos")
        }
        for mode in result.reports
    }
    payload = {
        "elapsed_s": round(elapsed, 2),
        "config": result.payload["config"],
        "isolation": iso_summary,
        "failover": failover_evidence,
        "observability": obs_summary,
        "determinism": det_summary,
        "aggregate": aggregate,
        "per_tenant": {
            mode: story["per_tenant"]
            for mode, story in result.payload["modes"].items()
        },
        "failures": failures,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"serving replay finished in {elapsed:.1f}s -> {args.output}")
    agg = aggregate["isolated"]["chaos"]
    print(
        f"  isolated chaos: {agg['admitted']} admitted, "
        f"{agg['slo_met']}/{agg['offered']} windows at SLO, "
        f"{agg['failover_windows']} failover windows"
    )
    print(
        f"  isolation: non-targeted delta "
        f"{iso_summary['isolated_max_non_targeted_delta']:.4f} isolated vs "
        f"{iso_summary['shared_max_non_targeted_delta']:.4f} shared"
    )
    for item in failover_evidence:
        if item.get("available"):
            print(
                f"  failover {item['tenant_id']}: {item['primary']} "
                f"opened={item['breaker_opened']} "
                f"fallback_windows={item['served_by_fallbacks']} "
                f"recovered={item['recovered']}"
            )
    print(
        f"  observability: {obs_summary['reconciliation_checks']} "
        f"reconciliation checks -> {args.metrics_output}"
    )
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        "accounting exact, bulkheads held, failover recovered, "
        "byte-identical at 1/2/4 shards"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
