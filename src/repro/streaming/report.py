"""StreamReport: the health snapshot of one streaming run.

Everything the executor did is reduced to counters that must balance
exactly: every offered window is processed, expired, shed or failed —
nothing disappears — and every offered event is either delivered to a
stage, removed by a named shedding tier, expired with its window, or
failed with its window.  :meth:`StreamReport.accounting_errors` checks
both identities; the sweep tool treats any violation as a CI failure.

The report also carries the operational telemetry the ROADMAP's
"graceful degradation" goal needs: per-stage throughput, shed fractions
per tier, the full breaker transition log and p50/p99 window latency in
virtual microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .breaker import BreakerTransition
from .shedding import ShedLedger, ShedTier

__all__ = ["StageStats", "StreamReport", "validate_report"]


@dataclass
class StageStats:
    """Aggregate activity of one executor stage.

    Attributes:
        name: stage name ("shed", the primary paradigm, fallbacks,
            "last_good").
        calls: stage invocations (refused calls not included).
        successes: calls returning a usable output.
        failures: calls raising or returning NaN.
        nan_trips: failures caused specifically by non-finite outputs.
        served: windows whose final prediction this stage provided.
        busy_us: virtual service time spent in this stage.
    """

    name: str
    calls: int = 0
    successes: int = 0
    failures: int = 0
    nan_trips: int = 0
    served: int = 0
    busy_us: float = 0.0

    @property
    def throughput_wps(self) -> float:
        """Windows served per second of this stage's virtual busy time."""
        if self.busy_us <= 0:
            return 0.0
        return self.served / (self.busy_us * 1e-6)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "calls": self.calls,
            "successes": self.successes,
            "failures": self.failures,
            "nan_trips": self.nan_trips,
            "served": self.served,
            "busy_us": round(self.busy_us, 3),
            "throughput_wps": round(self.throughput_wps, 3),
        }


@dataclass
class StreamReport:
    """Structured account of one streaming run.

    Window counters partition the offered windows; event counters
    partition the offered events.  See :meth:`accounting_errors`.

    Attributes:
        window_us: nominal window length.
        load_factor: offered-load multiplier of the arrival schedule.
        offered / processed / expired / shed_windows / failed: window
            counters (``shed_windows`` are whole windows evicted by the
            DROP_OLDEST tier).
        offered_events / processed_events / expired_events /
        failed_events: event counters; events removed by shedding tiers
            live in ``ledger``.
        ledger: exact per-tier shed accounting.
        served_by: stage name → windows whose prediction it provided.
        stage_stats: per-stage activity.
        breaker_transitions: every breaker state change, in order.
        tier_transitions: every shedding-tier change, in order
            (dictionaries from
            :class:`~repro.streaming.shedding.TierTransition`).
        latencies_us: arrival→completion virtual latency per processed
            window.
        predictions: window index → delivered prediction.
        max_queue_depth: deepest the ingest queue got.
        duration_us: virtual time span of the run.
    """

    window_us: int
    load_factor: float = 1.0
    offered: int = 0
    processed: int = 0
    expired: int = 0
    shed_windows: int = 0
    failed: int = 0
    offered_events: int = 0
    processed_events: int = 0
    expired_events: int = 0
    failed_events: int = 0
    ledger: ShedLedger = field(default_factory=ShedLedger)
    served_by: dict[str, int] = field(default_factory=dict)
    stage_stats: dict[str, StageStats] = field(default_factory=dict)
    breaker_transitions: list[BreakerTransition] = field(default_factory=list)
    breaker_states: dict[str, str] = field(default_factory=dict)
    tier_transitions: list[dict] = field(default_factory=list)
    latencies_us: list[float] = field(default_factory=list)
    predictions: dict[int, Any] = field(default_factory=dict)
    max_queue_depth: int = 0
    duration_us: float = 0.0

    # ------------------------------------------------------------------
    # Derived health metrics
    # ------------------------------------------------------------------
    @property
    def delivered_fraction(self) -> float:
        """Windows that produced a prediction, as a fraction of offered."""
        if self.offered == 0:
            return 1.0
        return self.processed / self.offered

    @property
    def shed_event_fraction(self) -> float:
        """Offered events removed by shedding tiers."""
        if self.offered_events == 0:
            return 0.0
        return self.ledger.total_events_shed / self.offered_events

    def shed_fractions_by_tier(self) -> dict[str, float]:
        """Tier name → fraction of offered events it removed."""
        if self.offered_events == 0:
            return {name: 0.0 for name in self.ledger.events_shed}
        return {
            name: count / self.offered_events
            for name, count in self.ledger.events_shed.items()
        }

    def latency_us(self, percentile: float) -> float:
        """Virtual latency percentile over processed windows (nan if none)."""
        if not self.latencies_us:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_us), percentile))

    @property
    def p50_latency_us(self) -> float:
        """Median window latency."""
        return self.latency_us(50.0)

    @property
    def p99_latency_us(self) -> float:
        """Tail window latency."""
        return self.latency_us(99.0)

    @property
    def tiers_engaged(self) -> list[str]:
        """Shedding tiers that actually touched at least one window."""
        return [
            name
            for name in (t.name for t in ShedTier if t is not ShedTier.NONE)
            if self.ledger.windows_touched.get(name, 0) > 0
        ]

    # ------------------------------------------------------------------
    # Conservation checks
    # ------------------------------------------------------------------
    def accounting_errors(self) -> list[str]:
        """Violations of the window/event conservation identities.

        Returns an empty list when
        ``processed + expired + shed_windows + failed == offered`` and
        ``processed_events + expired_events + failed_events +
        total_events_shed == offered_events``.
        """
        errors: list[str] = []
        window_sum = self.processed + self.expired + self.shed_windows + self.failed
        if window_sum != self.offered:
            errors.append(
                f"window accounting inexact: processed {self.processed} + "
                f"expired {self.expired} + shed {self.shed_windows} + "
                f"failed {self.failed} = {window_sum} != offered {self.offered}"
            )
        event_sum = (
            self.processed_events
            + self.expired_events
            + self.failed_events
            + self.ledger.total_events_shed
        )
        if event_sum != self.offered_events:
            errors.append(
                f"event accounting inexact: processed {self.processed_events} + "
                f"expired {self.expired_events} + failed {self.failed_events} + "
                f"shed {self.ledger.total_events_shed} = {event_sum} "
                f"!= offered {self.offered_events}"
            )
        served_total = sum(self.served_by.values())
        if served_total != self.processed:
            errors.append(
                f"served_by breakdown {served_total} != processed {self.processed}"
            )
        return errors

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (predictions summarised, not dumped)."""
        return {
            "window_us": self.window_us,
            "load_factor": self.load_factor,
            "offered": self.offered,
            "processed": self.processed,
            "expired": self.expired,
            "shed_windows": self.shed_windows,
            "failed": self.failed,
            "offered_events": self.offered_events,
            "processed_events": self.processed_events,
            "expired_events": self.expired_events,
            "failed_events": self.failed_events,
            "ledger": self.ledger.to_dict(),
            "served_by": dict(self.served_by),
            "stage_stats": {k: v.to_dict() for k, v in self.stage_stats.items()},
            "breaker_transitions": [t.to_dict() for t in self.breaker_transitions],
            "breaker_states": dict(self.breaker_states),
            "tier_transitions": list(self.tier_transitions),
            "delivered_fraction": self.delivered_fraction,
            "shed_fractions_by_tier": self.shed_fractions_by_tier(),
            "p50_latency_us": self.p50_latency_us,
            "p99_latency_us": self.p99_latency_us,
            "max_queue_depth": self.max_queue_depth,
            "duration_us": self.duration_us,
            "num_predictions": len(self.predictions),
        }


def validate_report(report: StreamReport, context: str = "") -> list[str]:
    """Check a report's balanced-accounting invariants, returning problems.

    The single entry point every sweep and sweep tool calls instead of
    re-asserting the identities ad hoc: window partition
    (``processed + expired + shed_windows + failed == offered``), event
    partition (including the shed ledger), the ``served_by`` breakdown,
    plus basic sanity (no negative counters, one latency sample per
    processed window).

    Args:
        report: the report to validate.
        context: optional prefix (e.g. a paradigm and load factor)
            attached to every problem string, so sweep-level validation
            stays attributable.

    Returns:
        Problem descriptions; empty when the report balances.
    """
    problems = list(report.accounting_errors())
    for name in (
        "offered",
        "processed",
        "expired",
        "shed_windows",
        "failed",
        "offered_events",
        "processed_events",
        "expired_events",
        "failed_events",
    ):
        value = getattr(report, name)
        if value < 0:
            problems.append(f"negative counter {name}={value}")
    if len(report.latencies_us) != report.processed:
        problems.append(
            f"latency samples {len(report.latencies_us)} != "
            f"processed {report.processed}"
        )
    if len(report.predictions) != report.processed:
        problems.append(
            f"predictions {len(report.predictions)} != "
            f"processed {report.processed}"
        )
    if context:
        problems = [f"{context}: {p}" for p in problems]
    return problems
