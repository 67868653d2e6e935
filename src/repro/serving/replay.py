"""The "million-user day" chaos replay and its isolation evidence.

The replay answers one question four ways: *what fraction of each
tenant's day is delivered within SLO when another tenant misbehaves?*
It runs the same seeded tenant mix through the fleet in a 2×2 grid —
{isolated, shared} × {fault-free, chaos} — and compares each chaos run
against its own architecture's fault-free control:

* under **isolation**, a non-targeted tenant's day is *bit-identical*
  to its fault-free control (the bulkhead property holds by
  construction, and the replay verifies it empirically);
* under the **shared** baseline, the same chaos measurably degrades
  non-targeted tenants — flooded queues evict their windows, a
  corrupted shared session trips everyone's breakers.

The replay also extracts the paradigm-failover evidence end to end: the
chaos-targeted tenant's breaker transition log must show its primary
paradigm tripping open, its windows re-routing onto the fallback chain,
and the breaker re-closing after recovery with the primary serving
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..parallel import ParallelConfig
from ..streaming import StreamReport
from .admission import AdmissionPolicy
from .chaos import ChaosEvent, ChaosSchedule
from .fleet import ServingFleet, ServingReport
from .tenancy import TenantSpec, make_tenant_mix

__all__ = [
    "default_chaos",
    "ReplayResult",
    "run_serving_replay",
]

#: Tolerance of the bulkhead acceptance check: a non-targeted tenant's
#: delivered-at-SLO fraction may move by at most this much under chaos.
ISOLATION_TOLERANCE = 0.01


def default_chaos(
    tenants: Sequence[TenantSpec], num_windows: int, *, seed: int = 0
) -> ChaosSchedule:
    """The canonical replay schedule: one fault per taxonomy entry.

    Targets the first tenant of each SLO class (and the second, where
    the mix has one) so every paradigm group contains both targeted and
    non-targeted tenants.  Faults start at a quarter of the day and end
    at half, leaving the second half for breaker recovery.
    """
    start = num_windows // 4
    stop = num_windows // 2
    by_class: dict[str, list[TenantSpec]] = {}
    for spec in tenants:
        by_class.setdefault(spec.slo_class, []).append(spec)
    golds = by_class.get("gold", [])
    silvers = by_class.get("silver", [])
    bronzes = by_class.get("bronze", [])
    events: list[ChaosEvent] = []
    if golds:
        events.append(
            ChaosEvent(golds[0].tenant_id, "poison", start, stop)
        )
    if silvers:
        events.append(
            ChaosEvent(silvers[0].tenant_id, "corrupt", start, stop)
        )
    if bronzes:
        events.append(
            ChaosEvent(bronzes[0].tenant_id, "flood", start, stop, magnitude=6.0)
        )
    if len(golds) > 1:
        events.append(
            ChaosEvent(
                golds[1].tenant_id,
                "skew",
                start,
                min(start + max(2, (stop - start) // 2), num_windows),
                magnitude=2.0,
            )
        )
    if len(silvers) > 1:
        events.append(
            ChaosEvent(silvers[1].tenant_id, "stall", start, stop)
        )
    return ChaosSchedule(events=tuple(events), seed=seed)


@dataclass
class ReplayResult:
    """One replay's full output.

    Attributes:
        payload: the JSON-serialisable replay record (configuration,
            per-mode reports, per-tenant deltas, acceptance checks).
        reports: mode → {"fault_free" | "chaos"} → the live
            :class:`~repro.serving.fleet.ServingReport` objects.
        snapshots: mode → the chaos run's merged observability
            snapshot.
        validation_errors: reconciliation problems across all four
            runs (empty on a healthy replay).
    """

    payload: dict[str, Any]
    reports: dict[str, dict[str, ServingReport]]
    snapshots: dict[str, dict[str, Any]]
    validation_errors: list[str]


def _failover_evidence(
    report: ServingReport, tenant_id: str
) -> dict[str, Any]:
    """Breaker/failover facts of one targeted tenant's isolated run."""
    outcome = report.tenants[tenant_id]
    stream: StreamReport | None = outcome.report
    primary = outcome.decision.primary
    if stream is None:
        return {"tenant_id": tenant_id, "primary": primary, "available": False}
    opened = any(
        t.stage == primary and t.to_state.value == "open"
        for t in stream.breaker_transitions
    )
    reclosed = any(
        t.stage == primary and t.to_state.value == "closed"
        for t in stream.breaker_transitions
    )
    return {
        "tenant_id": tenant_id,
        "primary": primary,
        "available": True,
        "breaker_opened": opened,
        "breaker_reclosed": reclosed,
        "final_state": stream.breaker_states.get(primary),
        "served_by": dict(stream.served_by),
        "served_by_primary": stream.served_by.get(primary, 0),
        "served_by_fallbacks": sum(
            count
            for stage, count in stream.served_by.items()
            if stage != primary
        ),
        "recovered": (
            reclosed
            and stream.breaker_states.get(primary) == "closed"
            and stream.served_by.get(primary, 0) > 0
        ),
    }


def _mode_story(
    fault_free: ServingReport,
    chaos_run: ServingReport,
    targeted: Sequence[str],
) -> dict[str, Any]:
    """Per-tenant fault-free → chaos comparison for one architecture."""
    per_tenant = {}
    non_targeted_deltas = []
    for tid in fault_free.tenants:
        base = fault_free.tenants[tid].delivered_at_slo
        under = chaos_run.tenants[tid].delivered_at_slo
        delta = under - base
        is_target = tid in targeted
        per_tenant[tid] = {
            "targeted": is_target,
            "delivered_at_slo_fault_free": base,
            "delivered_at_slo_chaos": under,
            "delta": delta,
        }
        if not is_target and fault_free.tenants[tid].admission.admitted:
            non_targeted_deltas.append(abs(delta))
    max_delta = max(non_targeted_deltas, default=0.0)
    return {
        "fault_free": fault_free.to_dict(),
        "chaos": chaos_run.to_dict(),
        "per_tenant": per_tenant,
        "max_non_targeted_delta": max_delta,
        "isolation_holds": max_delta <= ISOLATION_TOLERANCE,
    }


def run_serving_replay(
    num_tenants: int = 12,
    *,
    num_windows: int = 60,
    window_us: int = 10_000,
    capacity: float = 16.0,
    n_shards: int = 1,
    seed: int = 0,
    chaos: ChaosSchedule | None = None,
    modes: Sequence[str] = ("isolated", "shared"),
    parallel: ParallelConfig | None = None,
    include_traces: bool = True,
) -> ReplayResult:
    """Run the 2×2 chaos replay on one seeded tenant mix.

    Args:
        num_tenants: mix size (classes rotate gold/silver/bronze).
        num_windows: windows per tenant — the compressed day.
        window_us: serving window length.
        capacity: admission pool capacity (executor-equivalents).
        n_shards: isolated-mode shard count (bit-identity invariant).
        seed: master seed of mix, workloads and chaos.
        chaos: fault schedule; defaults to :func:`default_chaos`.
        modes: architectures to run ("isolated" and/or "shared").
        parallel: isolated-mode execution backend.
        include_traces: keep executor traces in merged snapshots.

    Returns:
        A :class:`ReplayResult`; ``payload`` alone tells the whole
        story and serialises deterministically.
    """
    tenants = make_tenant_mix(num_tenants, seed=seed)
    schedule = chaos if chaos is not None else default_chaos(
        tenants, num_windows, seed=seed
    )
    targeted = schedule.targeted_tenants
    policy = AdmissionPolicy(capacity=capacity)

    def build(isolation: bool, with_chaos: bool) -> ServingFleet:
        return ServingFleet(
            tenants,
            window_us=window_us,
            num_windows=num_windows,
            policy=policy,
            chaos=schedule if with_chaos else None,
            isolation=isolation,
            n_shards=n_shards if isolation else 1,
            parallel=parallel,
            include_traces=include_traces,
            seed=seed,
        )

    reports: dict[str, dict[str, ServingReport]] = {}
    snapshots: dict[str, dict[str, Any]] = {}
    stories: dict[str, dict[str, Any]] = {}
    validation_errors: list[str] = []
    for mode in modes:
        isolation = mode == "isolated"
        fleet_ff = build(isolation, with_chaos=False)
        report_ff = fleet_ff.run()
        fleet_chaos = build(isolation, with_chaos=True)
        report_chaos = fleet_chaos.run()
        reports[mode] = {"fault_free": report_ff, "chaos": report_chaos}
        snapshots[mode] = fleet_chaos.snapshot()
        for label, rep in (("fault_free", report_ff), ("chaos", report_chaos)):
            validation_errors.extend(
                f"{mode}/{label}: {p}" for p in rep.validate()
            )
        stories[mode] = _mode_story(report_ff, report_chaos, targeted)

    failover = None
    if "isolated" in reports:
        chaos_report = reports["isolated"]["chaos"]
        stage_targets = [
            e.tenant_id
            for e in schedule.events
            if e.kind in ("poison", "stall", "corrupt")
            and chaos_report.tenants.get(e.tenant_id) is not None
            and chaos_report.tenants[e.tenant_id].admission.admitted
        ]
        failover = [
            _failover_evidence(chaos_report, tid)
            for tid in dict.fromkeys(stage_targets)
        ]

    payload: dict[str, Any] = {
        "schema": "repro.serving.replay/1",
        "config": {
            "num_tenants": num_tenants,
            "num_windows": num_windows,
            "window_us": window_us,
            "capacity": capacity,
            "seed": seed,
            "modes": list(modes),
        },
        "chaos": schedule.to_dict(),
        "targeted_tenants": list(targeted),
        "modes": stories,
        "failover": failover,
        "validation_errors": list(validation_errors),
    }
    return ReplayResult(
        payload=payload,
        reports=reports,
        snapshots=snapshots,
        validation_errors=validation_errors,
    )
