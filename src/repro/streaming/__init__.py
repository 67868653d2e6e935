"""Overload-resilient streaming execution of the paradigm pipelines.

Batch evaluation answers "how accurate is each paradigm?"; this package
answers the ROADMAP's production question: "what happens when the event
rate exceeds what the system can process?".  A
:class:`~repro.streaming.executor.StreamingExecutor` feeds live event
windows through any fitted pipeline under a deterministic virtual-time
model, degrading gracefully under overload instead of collapsing:

* bounded-queue ingest with watermark backpressure and deadline expiry
  (:mod:`~repro.streaming.queueing`);
* tiered load shedding — subsample → spatial pool → drop-oldest — with
  exact shed accounting (:mod:`~repro.streaming.shedding`);
* per-stage circuit breakers with seeded half-open probes and a
  fallback chain ending at the last-good cached prediction
  (:mod:`~repro.streaming.breaker`);
* one account per run: the run's metrics registry and trace
  (``StreamingExecutor.obs``) and a balanced :class:`~repro.streaming.report.StreamReport` derived
  from them — the breakers keep only their transition logs and the
  shed ledger only its per-tier totals, both copied into the registry
  when the run ends;
* an overload sweep (:mod:`~repro.streaming.sweep`) whose
  graceful-degradation scores join the regenerated Table I via
  :func:`repro.core.comparison.attach_row`.
"""

from .breaker import (
    BreakerPolicy,
    BreakerState,
    BreakerTransition,
    CircuitBreaker,
    is_bad_output,
)
from .executor import (
    LAST_GOOD_STAGE,
    ServiceModel,
    StreamingExecutor,
    StreamStage,
)
from .queueing import BoundedWindowQueue, WindowTicket
from .report import StageStats, StreamReport, validate_report
from .shedding import (
    ShedController,
    ShedLedger,
    ShedPolicy,
    ShedTier,
    spatial_shed,
    subsample_events,
)
from .sweep import (
    CAPACITY_HEADROOM,
    StreamingPoint,
    StreamingSweepResult,
    TransientOutage,
    calibrate_service,
    degradation_violations,
    make_bursty_stream,
    overload_scores,
    run_overload_demo,
    run_paradigm_stream,
    run_streaming_sweep,
)

__all__ = [
    "BreakerState",
    "BreakerPolicy",
    "BreakerTransition",
    "CircuitBreaker",
    "is_bad_output",
    "ShedTier",
    "ShedPolicy",
    "ShedLedger",
    "ShedController",
    "subsample_events",
    "spatial_shed",
    "WindowTicket",
    "BoundedWindowQueue",
    "StageStats",
    "StreamReport",
    "validate_report",
    "ServiceModel",
    "StreamStage",
    "StreamingExecutor",
    "LAST_GOOD_STAGE",
    "CAPACITY_HEADROOM",
    "calibrate_service",
    "StreamingPoint",
    "StreamingSweepResult",
    "run_paradigm_stream",
    "run_streaming_sweep",
    "overload_scores",
    "degradation_violations",
    "make_bursty_stream",
    "TransientOutage",
    "run_overload_demo",
]
