"""Observability: metrics and tracing in one substrate.

Table I is only credible if every measured cell comes from instrumented
runs — the per-layer event-driven profiling of EvGNN and the per-event
cost accounting of AEGNN, generalised to this repository's three
pipelines.  This package provides the shared substrate:

* :mod:`~repro.observability.metrics` — a :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms, cheap enough for hot
  paths and snapshot-exportable;
* :mod:`~repro.observability.tracing` — nested :meth:`Tracer.span`
  contexts building a deterministic trace tree, virtual-time aware so
  streaming runs stay byte-for-byte reproducible;
* :mod:`~repro.observability.export` — canonical JSON and Prometheus
  text serialisation plus the snapshot schema check the CI smoke uses;
* :class:`Instrumentation` (below) — one registry and one tracer,
  wired through :class:`~repro.core.pipeline.ParadigmPipeline`,
  :class:`~repro.reliability.runner.HardenedRunner` and the
  :class:`~repro.streaming.executor.StreamingExecutor`.  They are the
  only record of a run: report counters are views derived from the
  registry, and no subsystem keeps a second tally or fires callbacks.
"""

from __future__ import annotations

from typing import Any, Callable

from .export import (
    SNAPSHOT_SCHEMA,
    to_json,
    to_prometheus,
    validate_snapshot,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from .tracing import Span, Tracer, wall_clock_us

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "wall_clock_us",
    "SNAPSHOT_SCHEMA",
    "to_json",
    "to_prometheus",
    "validate_snapshot",
    "Instrumentation",
]


class Instrumentation:
    """One registry + one tracer, shared by a run.

    Args:
        clock: microsecond clock for the tracer; ``None`` means wall
            time.  Virtual-time subsystems pass their own clock so the
            whole snapshot is deterministic.

    Attributes:
        registry: the run's :class:`MetricsRegistry`.
        tracer: the run's :class:`Tracer`.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock)

    def snapshot(self) -> dict[str, Any]:
        """Full deterministic snapshot: schema tag, metrics and trace."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "metrics": self.registry.snapshot(),
            "trace": self.tracer.to_dict(),
        }
