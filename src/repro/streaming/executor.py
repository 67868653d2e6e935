"""The overload-resilient streaming executor.

Feeds live event windows through a fitted
:class:`~repro.core.pipeline.ParadigmPipeline` (or any predictor
callable) under a *virtual-time* single-server model, so every run is
exactly reproducible: windows arrive on a schedule derived from their
nominal duration and a ``load_factor``, service costs are charged by an
analytic :class:`ServiceModel` (per-event microseconds, like the
hardware cost models in :mod:`repro.hw`), and a queue builds whenever
offered load exceeds sustained capacity.

Resilience comes from three cooperating mechanisms:

* **backpressure + expiry** (:mod:`~repro.streaming.queueing`) — a
  bounded ingest queue whose depth drives the shedding watermarks, and
  deadline-aware expiry of windows too stale to be worth serving;
* **tiered load shedding** (:mod:`~repro.streaming.shedding`) — the
  controller escalates subsampling → spatial pooling → drop-oldest as
  depth and burstiness rise, recording exactly what was shed;
* **per-stage circuit breakers + fallback chain**
  (:mod:`~repro.streaming.breaker`) — each predict stage is guarded by
  a breaker (consecutive-failure and NaN trips, seeded half-open
  probes); refused or failed stages fall through to cheaper fallback
  paradigms and finally to the last-good cached prediction.

Stage calls run once, with no retry or wall-clock timeout: a live
executor prefers falling back over burning queue time.  An exception
from a stage is a failed call its breaker records; unfitted pipelines
raise :class:`~repro.core.pipeline.NotFittedError` up front.

Every window is served one way: through each stage's windowed
``predict``.  Per-event serving — the GNN fast path of the paper's
Section-IV perspective — does not go through the executor; its one
caller, e2ebench's ``event_serve`` workload, drives
:meth:`~repro.core.pipeline.GNNPipeline.open_session` directly.
The run returns a :class:`~repro.streaming.report.StreamReport` whose
window and event accounting balances exactly.

Every run builds a fresh :class:`~repro.observability.Instrumentation`
on the executor's *virtual* clock (exposed as :attr:`StreamingExecutor.obs`).
Its registry and trace are the run's one account: the executor
increments ``stream_*`` counters and opens ``ingest`` / ``serve`` /
``call:{stage}`` / ``expire`` spans, and the report's scalar counters
are derived from the registry when the run finishes, so the two can
never disagree.  The shed ledger and the breakers' transition logs are
copied into their ``stream_shed_*`` and
``stream_breaker_transitions_total`` series at the same point.  Because
every timestamp in the trace comes from the virtual clock, two identical
seeded runs produce byte-identical snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..core.pipeline import NotFittedError, ParadigmPipeline
from ..events.ops import split_by_time
from ..events.rate import rate_profile
from ..events.stream import EventStream
from ..observability import Instrumentation, exponential_buckets
from .breaker import BreakerPolicy, CircuitBreaker, is_bad_output
from .queueing import BoundedWindowQueue, WindowTicket, check_capacity
from .report import StageStats, StreamReport
from .shedding import ShedController, ShedPolicy, ShedTier

__all__ = ["ServiceModel", "StreamStage", "StreamingExecutor", "LAST_GOOD_STAGE"]

#: Name of the implicit final fallback serving the last-good cached
#: prediction (it has no breaker — a cache lookup cannot fail).
LAST_GOOD_STAGE = "last_good"

#: Reserved name of the ingest shedding stage's breaker.
SHED_STAGE = "shed"

#: Window outcome label values of ``stream_windows_total``.  "shed" has
#: no event-counter twin: evicted windows' events are charged to the
#: DROP_OLDEST tier of ``stream_shed_events_total`` instead.
_WINDOW_OUTCOMES = (
    "offered",
    "processed",
    "expired",
    "shed",
    "failed_ingest",
    "failed_serve",
)
_EVENT_OUTCOMES = ("offered", "processed", "expired", "failed_ingest", "failed_serve")

#: Shed tiers that remove data (NONE never appears in the ledger).
_SHED_TIERS = tuple(t.name for t in ShedTier if t is not ShedTier.NONE)

#: Age (arrival → service start), in windows, past which a queued
#: window expires unserved.
DEADLINE_WINDOWS = 4

#: Latency buckets: 1 ms .. ~1e4 s of virtual time, decade steps.
_LATENCY_BUCKETS = exponential_buckets(1e3, 10.0, 8)


@dataclass(frozen=True)
class ServiceModel:
    """Analytic virtual-time cost of serving one window.

    Attributes:
        base_us: fixed per-window overhead (dispatch, framing); also the
            cost of answering from the last-good cache.
        per_event_us: marginal cost per event fed to the model.
    """

    base_us: float = 1000.0
    per_event_us: float = 0.5

    def __post_init__(self) -> None:
        for cost in (self.base_us, self.per_event_us):
            if not (math.isfinite(cost) and cost >= 0):
                raise ValueError("service costs must be finite and non-negative")

    def service_us(self, num_events: int) -> float:
        """Virtual service time of one stage call on ``num_events``."""
        return self.base_us + self.per_event_us * num_events

    def sustainable_events_per_window(self, window_us: float) -> float | None:
        """Event budget per window period at 100% utilisation.

        ``None`` when events are free (no meaningful budget).
        """
        if self.per_event_us <= 0:
            return None
        return max(1.0, (window_us - self.base_us) / self.per_event_us)


@dataclass
class StreamStage:
    """One predict stage of the fallback chain.

    Attributes:
        name: unique stage name (breaker + report key).
        predict: window → prediction callable.
    """

    name: str
    predict: Callable[[EventStream], Any]


def _call(fn: Callable[[], Any]) -> tuple[bool, Any]:
    """Run one stage call: ``(True, value)``, or ``(False, reason)``.

    Any exception but :class:`NotFittedError` (a configuration error the
    run must not absorb) is a failed call; its reason, for the breaker,
    is the message or, for an empty one, the exception's type name.
    """
    try:
        return True, fn()
    except NotFittedError:
        raise
    except Exception as exc:
        return False, str(exc) or type(exc).__name__


def _as_stage(obj: Any, used: set[str]) -> StreamStage:
    """Normalise a pipeline / (name, fn) pair / callable into a stage."""
    if isinstance(obj, StreamStage):
        stage = obj
    elif isinstance(obj, ParadigmPipeline):
        stage = StreamStage(obj.name, obj.predict)
    elif isinstance(obj, tuple) and len(obj) == 2:
        stage = StreamStage(str(obj[0]), obj[1])
    elif callable(obj):
        stage = StreamStage(getattr(obj, "__name__", "stage"), obj)
    else:
        raise TypeError(
            "stages must be ParadigmPipeline, StreamStage, (name, callable) "
            f"or callable, got {type(obj).__name__}"
        )
    name = stage.name
    suffix = 2
    while name in used or name in (LAST_GOOD_STAGE, SHED_STAGE):
        name = f"{stage.name}#{suffix}"
        suffix += 1
    used.add(name)
    return StreamStage(name, stage.predict)


class StreamingExecutor:
    """Overload-resilient window-at-a-time execution of a fitted pipeline.

    Args:
        primary: the pipeline (or predictor callable, or ``(name, fn)``)
            that should serve windows when healthy.
        window_us: nominal window length of the stream, in whole
            microseconds (finite, >= 1); also sets the arrival schedule.
        fallbacks: cheaper stages tried, in order, when the primary's
            breaker refuses or its call fails.
        service: virtual-time cost model of one stage call.
        queue_capacity: bound of the ingest queue (an ``int`` >= 1).  A
            queued window expires once it is older than
            :data:`DEADLINE_WINDOWS` windows at service start.
        shed_policy: watermarks + transform parameters of the shedding
            controller.
        breaker_policy: trip/recovery parameters shared by all stage
            breakers.
        use_last_good: serve the most recent successful prediction when
            every stage fails or is refused.
        seed: seeds the breakers' half-open probe generators.
    """

    def __init__(
        self,
        primary: Any,
        *,
        window_us: int,
        fallbacks: Iterable[Any] = (),
        service: ServiceModel | None = None,
        queue_capacity: int = 16,
        shed_policy: ShedPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        use_last_good: bool = True,
        seed: int = 0,
    ) -> None:
        if not (math.isfinite(window_us) and window_us >= 1 and window_us % 1 == 0):
            # The window is whole microseconds: 2.5 would truncate to 2.
            raise ValueError("window_us must be a whole number >= 1")
        check_capacity(queue_capacity, "queue_capacity")
        used: set[str] = set()
        self._pipelines = [
            obj for obj in (primary, *fallbacks) if isinstance(obj, ParadigmPipeline)
        ]
        self.stages: list[StreamStage] = [
            _as_stage(obj, used) for obj in (primary, *fallbacks)
        ]
        self.window_us = int(window_us)
        self.service = service or ServiceModel()
        self.queue_capacity = queue_capacity
        self.deadline_us = float(DEADLINE_WINDOWS * self.window_us)
        self.shed_policy = shed_policy or ShedPolicy()
        self.breaker_policy = breaker_policy or BreakerPolicy()
        self.use_last_good = use_last_good
        self.seed = seed
        # Per-run state, exposed for inspection after run().
        self.breakers: dict[str, CircuitBreaker] = {}
        self.controller: ShedController | None = None
        self.last_good: Any = None
        self.obs: Instrumentation | None = None

    # ------------------------------------------------------------------
    # Run setup
    # ------------------------------------------------------------------
    def _reset(self) -> StreamReport:
        for pipeline in self._pipelines:
            pipeline._require_fitted()  # NotFittedError is a config error
        self._clock = 0.0
        obs = Instrumentation(clock=lambda: self._clock)
        self.obs = obs
        self.breakers = {
            name: CircuitBreaker(name, self.breaker_policy, self.seed)
            for name in [s.name for s in self.stages] + [SHED_STAGE]
        }
        self.controller = ShedController(
            self.shed_policy,
            self.service.sustainable_events_per_window(self.window_us),
        )
        self.last_good = None
        self._queue = BoundedWindowQueue(self.queue_capacity)

        # Pre-create every per-run series so snapshots carry the full
        # schema (explicit zeros, stable family set) and the hot paths
        # only touch held objects, never the registry.
        reg = obs.registry
        self._win = {
            o: reg.counter(
                "stream_windows_total",
                labels={"outcome": o},
                help="windows by outcome (offered is the partition total)",
            )
            for o in _WINDOW_OUTCOMES
        }
        self._evt = {
            o: reg.counter(
                "stream_events_total",
                labels={"outcome": o},
                help="events by window outcome (shed events are per-tier)",
            )
            for o in _EVENT_OUTCOMES
        }
        self._shed = {
            tier: (
                reg.counter(
                    "stream_shed_windows_total",
                    labels={"tier": tier},
                    help="windows a shedding tier touched (DROP_OLDEST: evicted)",
                ),
                reg.counter(
                    "stream_shed_events_total",
                    labels={"tier": tier},
                    help="events removed per shedding tier",
                ),
            )
            for tier in _SHED_TIERS
        }
        stage_names = [s.name for s in self.stages] + [SHED_STAGE, LAST_GOOD_STAGE]
        self._stage_m = {
            name: {
                field: reg.counter(
                    f"stream_stage_{field}_total",
                    labels={"stage": name},
                    help=help_text,
                )
                for field, help_text in (
                    ("calls", "stage invocations (breaker refusals excluded)"),
                    ("successes", "stage calls returning a usable output"),
                    ("failures", "stage calls raising or returning NaN"),
                    ("nan_trips", "failures caused by non-finite outputs"),
                    ("served", "windows whose final prediction this stage gave"),
                    ("busy_us", "virtual service microseconds spent in stage"),
                )
            }
            for name in stage_names
        }
        self._latency = reg.histogram(
            "stream_latency_us",
            buckets=_LATENCY_BUCKETS,
            help="arrival-to-completion virtual latency of processed windows",
        )
        self._queue_peak = reg.gauge(
            "stream_queue_depth_peak", help="deepest the ingest queue got"
        )
        report = StreamReport(window_us=self.window_us)
        for name in stage_names:
            report.stage_stats[name] = StageStats(name)
        return report

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve(self, ticket: WindowTicket, start_us: float, report: StreamReport) -> None:
        """Run one window through the fallback chain at virtual ``start_us``."""
        obs = self.obs
        self._clock = start_us
        value: Any = None
        served_by: str | None = None
        with obs.tracer.span("serve", index=ticket.index):
            for stage in self.stages:
                breaker = self.breakers[stage.name]
                if not breaker.allow(ticket.index):
                    continue
                m = self._stage_m[stage.name]
                cost = self.service.service_us(len(ticket.stream))
                m["calls"].inc()
                m["busy_us"].inc(cost)
                with obs.tracer.span(f"call:{stage.name}"):
                    self._clock += cost
                    called, out = _call(lambda: stage.predict(ticket.stream))
                if called and not is_bad_output(out):
                    breaker.record_success(ticket.index)
                    m["successes"].inc()
                    value, served_by = out, stage.name
                    break
                nan_trip = called  # call returned, but the output is bad
                m["failures"].inc()
                if nan_trip:
                    m["nan_trips"].inc()
                breaker.record_failure(
                    ticket.index,
                    nan_output=nan_trip,
                    reason="" if nan_trip else out,
                )
            if served_by is None and self.use_last_good and self.last_good is not None:
                cache_cost = self.service.base_us
                m = self._stage_m[LAST_GOOD_STAGE]
                m["calls"].inc()
                m["successes"].inc()
                m["busy_us"].inc(cache_cost)
                with obs.tracer.span(f"call:{LAST_GOOD_STAGE}"):
                    self._clock += cache_cost
                value, served_by = self.last_good, LAST_GOOD_STAGE

            if served_by is None:
                self._win["failed_serve"].inc()
                self._evt["failed_serve"].inc(len(ticket.stream))
                return
            self.last_good = value
            self._win["processed"].inc()
            self._evt["processed"].inc(len(ticket.stream))
            self._stage_m[served_by]["served"].inc()
            latency = self._clock - ticket.arrival_us
            self._latency.observe(latency)
            report.latencies_us.append(latency)
            report.predictions[ticket.index] = value

    def _drain(self, until_us: float, report: StreamReport) -> None:
        """Serve queued windows whose service can start before ``until_us``."""
        while self._queue.depth:
            head = self._queue.peek()
            start = max(self._clock, head.arrival_us)
            if start >= until_us:
                break
            self._queue.pop()
            if start > head.deadline_us:
                # Expiry is pure bookkeeping: no service time is spent.
                with self.obs.tracer.span("expire", index=head.index):
                    self._win["expired"].inc()
                    self._evt["expired"].inc(len(head.stream))
                continue
            self._serve(head, start, report)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _ingest(
        self, index: int, arrival_us: float, window: EventStream, report: StreamReport
    ) -> None:
        """Shed (per the controller) and enqueue one arriving window."""
        obs = self.obs
        offered_events = len(window)
        with obs.tracer.span("ingest", index=index):
            self._win["offered"].inc()
            self._evt["offered"].inc(offered_events)
            try:
                burstiness = rate_profile(
                    window, bin_us=self.shed_policy.burst_bin_us
                ).burstiness
            except ValueError as exc:
                # Corrupt span inside one window (e.g. a far-future
                # timestamp): quarantine the window, never the run.
                self._win["failed_ingest"].inc()
                self._evt["failed_ingest"].inc(offered_events)
                shed = self.breakers[SHED_STAGE]
                shed.record_failure(index, reason=f"unprofilable window: {exc}")
                return
            tier = self.controller.update(self._queue.depth, burstiness, index)

            shed_breaker = self.breakers[SHED_STAGE]
            if tier is not ShedTier.NONE and shed_breaker.allow(index):
                m = self._stage_m[SHED_STAGE]
                m["calls"].inc()
                with obs.tracer.span(f"call:{SHED_STAGE}"):
                    called, out = _call(
                        lambda: self.controller.apply(window, report.ledger)
                    )
                if called:
                    window = out
                    shed_breaker.record_success(index)
                    m["successes"].inc()
                else:
                    # A broken transform must not take the stream down:
                    # the window passes through unshed.
                    shed_breaker.record_failure(index, reason=out)
                    m["failures"].inc()

            if tier is ShedTier.DROP_OLDEST:
                evicted = self._queue.drop_oldest()
                if evicted is not None:
                    self._win["shed"].inc()
                    report.ledger.record_window_drop(len(evicted.stream))
            ticket = WindowTicket(
                index=index,
                arrival_us=arrival_us,
                deadline_us=arrival_us + self.deadline_us,
                stream=window,
            )
            evicted = self._queue.push(ticket)
            if evicted is not None:
                self._win["shed"].inc()
                report.ledger.record_window_drop(len(evicted.stream))

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        source: EventStream | Iterable[EventStream],
        load_factor: float = 1.0,
    ) -> StreamReport:
        """Stream every window through the executor and report.

        Args:
            source: an :class:`EventStream` (split into ``window_us``
                windows — a corrupted far-future timestamp raises
                :class:`ValueError` here, in O(len(stream)), via the
                :func:`~repro.events.ops.split_by_time` span guard) or
                an iterable of pre-split windows.
            load_factor: offered-load multiplier; arrivals are spaced
                ``window_us / load_factor`` apart, so 2.0 offers twice
                sustained real-time rate.

        Returns:
            The balanced :class:`~repro.streaming.report.StreamReport`.
        """
        if not (math.isfinite(load_factor) and load_factor > 0):
            raise ValueError("load_factor must be finite and positive")
        report = self._reset()
        report.load_factor = float(load_factor)
        windows = (
            split_by_time(source, self.window_us)
            if isinstance(source, EventStream)
            else source
        )
        inter_arrival = self.window_us / load_factor
        arrival = 0.0
        for index, window in enumerate(windows):
            arrival = (index + 1) * inter_arrival
            self._drain(arrival, report)
            self._ingest(index, arrival, window, report)
        self._drain(float("inf"), report)
        report.max_queue_depth = self._queue.max_depth
        report.duration_us = max(self._clock, arrival)
        transitions = [t for b in self.breakers.values() for t in b.transitions]
        report.breaker_transitions = sorted(transitions, key=lambda t: t.at_window)
        report.breaker_states = {
            name: b.state.value for name, b in self.breakers.items()
        }
        report.tier_transitions = [t.to_dict() for t in self.controller.transitions]
        self._finalise(report)
        return report

    def _finalise(self, report: StreamReport) -> None:
        """Close the run's one account: registry in, report out.

        Window, event and stage counters are the only tallies the hot
        paths increment; the report's scalars are copied from them, so
        the :class:`StreamReport` is a view that cannot drift from the
        metrics a scrape would see.  Two records are kept elsewhere
        because they carry checks or state of their own — the shed
        ledger (it rejects a transform that adds events) and each
        breaker's transition log — and are copied into their registry
        series here, once, at the end of the run.
        """
        self._queue_peak.max(self._queue.max_depth)
        ledger = report.ledger
        for tier, (windows, events) in self._shed.items():
            windows.inc(ledger.windows_touched[tier])
            events.inc(ledger.events_shed[tier])
        for t in report.breaker_transitions:
            self.obs.registry.counter(
                "stream_breaker_transitions_total",
                labels={"stage": t.stage, "to": t.to_state.value},
                help="circuit-breaker state changes by destination state",
            ).inc()
        report.offered = int(self._win["offered"].value)
        report.processed = int(self._win["processed"].value)
        report.expired = int(self._win["expired"].value)
        report.shed_windows = int(self._win["shed"].value)
        report.failed = int(
            self._win["failed_ingest"].value + self._win["failed_serve"].value
        )
        report.offered_events = int(self._evt["offered"].value)
        report.processed_events = int(self._evt["processed"].value)
        report.expired_events = int(self._evt["expired"].value)
        report.failed_events = int(
            self._evt["failed_ingest"].value + self._evt["failed_serve"].value
        )
        for name, stats in report.stage_stats.items():
            m = self._stage_m[name]
            stats.calls = int(m["calls"].value)
            stats.successes = int(m["successes"].value)
            stats.failures = int(m["failures"].value)
            stats.nan_trips = int(m["nan_trips"].value)
            stats.served = int(m["served"].value)
            stats.busy_us = float(m["busy_us"].value)
        report.served_by = {
            name: int(m["served"].value)
            for name, m in self._stage_m.items()
            if m["served"].value > 0
        }

    def snapshot(self) -> dict[str, Any]:
        """Deterministic instrumentation snapshot of the latest run.

        Raises:
            RuntimeError: before the first :meth:`run`.
        """
        if self.obs is None:
            raise RuntimeError("snapshot() requires a completed run()")
        return self.obs.snapshot()
