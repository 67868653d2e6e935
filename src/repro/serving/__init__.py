"""Fault-isolated multi-tenant serving with admission and failover.

The streaming layer hardened *one* stream; this package serves *many*:
a fleet of tenant sessions multiplexed over the repository's
virtual-time executors, with the paper's CNN/SNN/GNN scorecard acting
as a live routing policy rather than a static table.

* :mod:`~repro.serving.tenancy` — tenant specs and the gold / silver /
  bronze SLO classes (latency SLO vs. accuracy floor vs. energy
  floor);
* :mod:`~repro.serving.router` — degradation-aware paradigm routing:
  primary = most accurate eligible paradigm, fallbacks = cheapest
  energy first, which the executor's circuit breakers turn into live
  failover and recovery;
* :mod:`~repro.serving.admission` — deterministic weighted fair
  sharing of a fixed pool, refusal with seeded jittered retry hints
  (shared :class:`~repro.reliability.backoff.ExponentialBackoff`);
* :mod:`~repro.serving.chaos` — seeded per-tenant fault schedules
  (flood, skew, poison, stall, session-state corruption reusing the
  reliability layer's :class:`~repro.reliability.faults.SessionFault`
  models) plus the synthetic diurnal tenant workloads;
* :mod:`~repro.serving.fleet` — the bulkhead-isolated fleet and its
  shared-executor baseline, with exact per-tenant ledgers reconciling
  against the executors' balanced accounting and one merged
  observability snapshot;
* :mod:`~repro.serving.replay` — the "million-user day" chaos replay.

Determinism contract: for a fixed tenant mix, seed and chaos schedule,
fleet reports and merged snapshots are byte-identical across shard
counts and backends.
"""

from .admission import AdmissionController, AdmissionPolicy, AdmissionResult
from .chaos import (
    CHAOS_KINDS,
    MODEL_SNAPSHOT_FORMAT,
    CallFault,
    ChaosEvent,
    ChaosPredictor,
    ChaosSchedule,
    TenantModel,
    make_tenant_windows,
)
from .fleet import ServingFleet, ServingReport, TenantOutcome
from .replay import (
    ReplayResult,
    default_chaos,
    run_serving_replay,
)
from .router import (
    DEFAULT_SCORECARD,
    ParadigmProfile,
    PolicyRouter,
    RoutingDecision,
    fallback_chain,
    scorecard_from_comparison,
)
from .tenancy import SLO_CLASSES, SLOClass, TenantSpec, make_tenant_mix

__all__ = [
    "SLOClass",
    "SLO_CLASSES",
    "TenantSpec",
    "make_tenant_mix",
    "ParadigmProfile",
    "DEFAULT_SCORECARD",
    "scorecard_from_comparison",
    "fallback_chain",
    "PolicyRouter",
    "RoutingDecision",
    "AdmissionPolicy",
    "AdmissionResult",
    "AdmissionController",
    "CHAOS_KINDS",
    "MODEL_SNAPSHOT_FORMAT",
    "ChaosEvent",
    "ChaosSchedule",
    "TenantModel",
    "CallFault",
    "ChaosPredictor",
    "make_tenant_windows",
    "TenantOutcome",
    "ServingReport",
    "ServingFleet",
    "default_chaos",
    "ReplayResult",
    "run_serving_replay",
]
