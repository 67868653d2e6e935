"""Observability: metrics, tracing and profiling hooks in one substrate.

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
* :class:`ProfilingHooks` / :class:`Instrumentation` (below) — the
  bundle wired through :class:`~repro.core.pipeline.ParadigmPipeline`,
  :class:`~repro.reliability.runner.HardenedRunner` and the
  :class:`~repro.streaming.executor.StreamingExecutor`, whose report
  counters are derived views over one registry rather than parallel
  bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "ProfilingHooks",
    "Instrumentation",
]


@dataclass
class ProfilingHooks:
    """User callbacks fired at the instrumented subsystems' seams.

    All hooks are optional; a hook must not raise (there is no guard —
    a raising hook is a bug in the caller's instrumentation, not a
    runtime condition to degrade around).

    Attributes:
        on_stage_start: ``(stage, index)`` — a guarded stage call (a
            pipeline fit/predict/measure, a streaming predict stage, a
            shed transform) is about to run; ``index`` is the window or
            recording index, -1 when not applicable.
        on_stage_end: ``(stage, index, ok)`` — the call returned.
        on_window: ``(index, outcome)`` — one unit of work reached a
            terminal outcome ("processed" / "expired" / "failed" / ...;
            recordings in batch runs, windows in streaming runs).
        on_shed: ``(tier, events_removed)`` — a shedding tier removed
            events (or evicted a whole window).
        on_trip: ``(stage, from_state, to_state)`` — a circuit breaker
            changed state.
    """

    on_stage_start: Callable[[str, int], None] | None = None
    on_stage_end: Callable[[str, int, bool], None] | None = None
    on_window: Callable[[int, str], None] | None = None
    on_shed: Callable[[str, int], None] | None = None
    on_trip: Callable[[str, str, str], None] | None = None


class Instrumentation:
    """One registry + one tracer + one hook set, shared by a run.

    Args:
        clock: microsecond clock for the tracer; ``None`` means wall
            time.  Virtual-time subsystems pass their own clock so the
            whole snapshot is deterministic.
        hooks: optional profiling callbacks.

    Attributes:
        registry: the run's :class:`MetricsRegistry`.
        tracer: the run's :class:`Tracer`.
        hooks: the run's :class:`ProfilingHooks`.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        hooks: ProfilingHooks | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock)
        self.hooks = hooks or ProfilingHooks()

    # ------------------------------------------------------------------
    # Hook emitters (None-safe so call sites stay one-liners)
    # ------------------------------------------------------------------
    def stage_start(self, stage: str, index: int = -1) -> None:
        """Fire ``on_stage_start``."""
        if self.hooks.on_stage_start is not None:
            self.hooks.on_stage_start(stage, index)

    def stage_end(self, stage: str, index: int = -1, ok: bool = True) -> None:
        """Fire ``on_stage_end``."""
        if self.hooks.on_stage_end is not None:
            self.hooks.on_stage_end(stage, index, ok)

    def window(self, index: int, outcome: str) -> None:
        """Fire ``on_window``."""
        if self.hooks.on_window is not None:
            self.hooks.on_window(index, outcome)

    def shed(self, tier: str, events_removed: int) -> None:
        """Fire ``on_shed``."""
        if self.hooks.on_shed is not None:
            self.hooks.on_shed(tier, events_removed)

    def trip(self, stage: str, from_state: str, to_state: str) -> None:
        """Fire ``on_trip``."""
        if self.hooks.on_trip is not None:
            self.hooks.on_trip(stage, from_state, to_state)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Full deterministic snapshot: schema tag, metrics and trace."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "metrics": self.registry.snapshot(),
            "trace": self.tracer.to_dict(),
        }
