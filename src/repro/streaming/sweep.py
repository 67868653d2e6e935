"""Streaming overload sweep: graceful-degradation curves across load.

The batch robustness sweep (:mod:`repro.reliability.sweep`) measures how
accuracy degrades as *data* corrupts; this sweep measures how delivery
degrades as *load* rises.  Each paradigm's predictor runs inside a fresh
:class:`~repro.streaming.executor.StreamingExecutor` at every offered
load factor, and its delivered-window fraction traces a degradation
curve.  A resilient configuration degrades gracefully — the curve falls
smoothly and monotonically as load rises, because the shedding tiers
trade data quality for throughput instead of collapsing.

Per-paradigm capacity differs by :data:`CAPACITY_HEADROOM`, grounded in
the paper's "# Operations" row (SNN ``+``, CNN ``-``, GNN ``++``): the
service model is calibrated so each paradigm sustains the stream's mean
rate with that much headroom.  Curves reduce to one delivered-fraction
score per paradigm (:func:`overload_scores`) which
:func:`repro.core.comparison.attach_row` folds into the regenerated
Table I next to the measured robustness row.
:func:`run_streaming_sweep` runs the sweep in-process, one paradigm
after another through :func:`run_paradigm_stream`; every run is in
virtual time, so the curves are a pure function of the arguments.

The module also carries the deterministic burst demo
(:func:`run_overload_demo`) used by the tests, the benchmark and the CI
smoke tool: a seeded 10× rate burst plus a transient primary-stage
outage, after which the report's accounting must balance exactly, at
least two shedding tiers must have engaged, and every breaker that
opened must have re-closed through half-open probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..core.comparison import PARADIGMS
from ..events.stream import EventStream, Resolution, EVENT_DTYPE
from .breaker import BreakerPolicy
from .executor import ServiceModel, StreamingExecutor
from .report import StreamReport, validate_report
from .shedding import ShedPolicy

__all__ = [
    "CAPACITY_HEADROOM",
    "StreamingPoint",
    "StreamingSweepResult",
    "calibrate_service",
    "run_paradigm_stream",
    "run_streaming_sweep",
    "overload_scores",
    "degradation_violations",
    "make_bursty_stream",
    "TransientOutage",
    "run_overload_demo",
]

#: Relative sustained-capacity headroom per paradigm at load factor 1,
#: derived from the paper's "# Operations (down)" ratings (SNN ``+``,
#: CNN ``-``, GNN ``++``): the GNN does the fewest operations per event
#: and so sustains the most load; the dense CNN saturates first.
CAPACITY_HEADROOM: dict[str, float] = {"SNN": 1.2, "CNN": 0.7, "GNN": 1.5}


def calibrate_service(
    stream: EventStream,
    window_us: int,
    headroom: float,
    base_fraction: float = 0.1,
) -> ServiceModel:
    """Build a service model sustaining ``headroom``× the stream's mean rate.

    The per-event cost is chosen so that, at the stream's mean events
    per window, one window costs ``window_us / headroom`` of virtual
    service time — headroom 2.0 means half-utilised at real-time load,
    0.7 means overloaded even before the load factor rises.

    Args:
        stream: the workload whose mean rate anchors the calibration.
        window_us: window length of the executor.
        headroom: sustained-capacity multiple of the mean offered rate.
        base_fraction: fraction of the window period charged as fixed
            per-window overhead.
    """
    if not (math.isfinite(headroom) and headroom > 0):
        # A non-finite headroom prices events at 0 us, which silently
        # switches off the executor's shedding budget.
        raise ValueError("headroom must be finite and positive")
    if not 0.0 <= base_fraction < 1.0:
        raise ValueError("base_fraction must be in [0, 1)")
    base_us = base_fraction * window_us
    span = max(int(stream.t[-1] - stream.t[0]), window_us) if len(stream) else window_us
    mean_events = max(1.0, len(stream) * window_us / span)
    per_event_us = (window_us / headroom - base_us) / mean_events
    return ServiceModel(base_us=base_us, per_event_us=max(0.0, per_event_us))


@dataclass
class StreamingPoint:
    """One (paradigm, load factor) streaming run.

    Attributes:
        load_factor: offered-load multiplier of this point.
        report: the full balanced account of the run.
    """

    load_factor: float
    report: StreamReport

    @property
    def delivered_fraction(self) -> float:
        """Windows that produced a prediction, as a fraction of offered."""
        return self.report.delivered_fraction

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "load_factor": self.load_factor,
            "delivered_fraction": self.delivered_fraction,
            "report": self.report.to_dict(),
        }


@dataclass
class StreamingSweepResult:
    """Everything produced by one streaming overload sweep.

    Attributes:
        load_factors: the swept offered-load multipliers, ascending.
        window_us: window length shared by every run.
        curves: paradigm name → one :class:`StreamingPoint` per load.
        seed: master seed of the sweep.
    """

    load_factors: tuple[float, ...]
    window_us: int
    curves: dict[str, list[StreamingPoint]] = field(default_factory=dict)
    seed: int = 0

    def delivered(self, paradigm: str) -> list[float]:
        """The graceful-degradation curve of one paradigm."""
        return [p.delivered_fraction for p in self.curves[paradigm]]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "load_factors": list(self.load_factors),
            "window_us": self.window_us,
            "seed": self.seed,
            "curves": {
                name: [p.to_dict() for p in points]
                for name, points in self.curves.items()
            },
        }


def overload_scores(result: StreamingSweepResult) -> dict[str, float]:
    """Reduce degradation curves to one delivered-fraction score each.

    The score is the mean delivered-window fraction over the *stressed*
    load factors (those above 1.0; all of them when none exceed 1.0),
    clipped to [0, 1] — an executor that keeps answering under overload
    scores near 1, one that collapses scores near 0.

    Args:
        result: a completed sweep.

    Returns:
        paradigm name → graceful-degradation score.
    """
    scores: dict[str, float] = {}
    for name, points in result.curves.items():
        stressed = [p for p in points if p.load_factor > 1.0] or list(points)
        if not stressed:
            scores[name] = float("nan")
            continue
        fractions = [min(1.0, max(0.0, p.delivered_fraction)) for p in stressed]
        scores[name] = float(np.mean(fractions))
    return scores


def degradation_violations(
    result: StreamingSweepResult, tolerance: float = 0.02
) -> list[str]:
    """Check every curve for graceful (monotone) degradation and balance.

    A healthy executor delivers a non-increasing fraction of windows as
    offered load rises (within ``tolerance``, for discretisation
    wiggle), and every report's window/event accounting balances
    exactly.  The streaming-sweep CI tool treats any returned violation
    as a failure.

    Args:
        result: a completed sweep.
        tolerance: allowed upward wiggle between consecutive points.

    Returns:
        Human-readable violation descriptions; empty when clean.
    """
    violations: list[str] = []
    for name, points in result.curves.items():
        for prev, cur in zip(points, points[1:]):
            if cur.delivered_fraction > prev.delivered_fraction + tolerance:
                violations.append(
                    f"{name}: delivered fraction rises from "
                    f"{prev.delivered_fraction:.4f} (load {prev.load_factor}) to "
                    f"{cur.delivered_fraction:.4f} (load {cur.load_factor})"
                )
        for point in points:
            violations.extend(
                validate_report(
                    point.report, context=f"{name} @ load {point.load_factor}"
                )
            )
    return violations


class _CountClassifier:
    """Deterministic stand-in predictor: class = event count mod 4."""

    __name__ = "count_classifier"

    def __call__(self, stream: EventStream) -> int:
        return int(len(stream) % 4)


def run_paradigm_stream(
    name: str,
    predictor: Any,
    stream: EventStream,
    window_us: int,
    load_factors: Sequence[float],
    seed: int = 0,
) -> list[StreamingPoint]:
    """Measure one paradigm's graceful-degradation curve.

    The predictor streams the same workload once per load factor
    through a fresh executor (fresh queue, breakers and shedding
    controller — points are independent) with the executor's default
    policies and a service model calibrated by :func:`calibrate_service`
    with the paradigm's :data:`CAPACITY_HEADROOM`.  Virtual-time
    execution makes the curve a pure function of the arguments.

    Args:
        name: paradigm name (the capacity calibration key).
        predictor: fitted pipeline or predictor callable.
        stream: the workload (split into ``window_us`` windows per run).
        window_us: window length.
        load_factors: ascending offered-load multipliers.
        seed: seeds the breaker probe generators.

    Returns:
        One :class:`StreamingPoint` per load factor.
    """
    service = calibrate_service(stream, window_us, CAPACITY_HEADROOM[name])
    points: list[StreamingPoint] = []
    for load in load_factors:
        executor = StreamingExecutor(
            predictor, window_us=window_us, service=service, seed=seed
        )
        points.append(StreamingPoint(load, executor.run(stream, load_factor=load)))
    return points


def run_streaming_sweep(
    stream: EventStream,
    window_us: int,
    load_factors: Sequence[float],
    seed: int = 0,
) -> StreamingSweepResult:
    """Run every paradigm's degradation curve, in :data:`PARADIGMS` order.

    Each paradigm serves the stream with the deterministic count
    classifier; paradigms differ by their calibrated capacity
    (:data:`CAPACITY_HEADROOM`), which is what the overload row rates.

    Args:
        stream: the workload.
        window_us: window length shared by every run.
        load_factors: non-empty, ascending offered-load multipliers.
        seed: seeds the breaker probe generators.

    Raises:
        ValueError: on an empty or unordered grid, before any run.
    """
    load_factors = tuple(float(f) for f in load_factors)
    if not load_factors:
        raise ValueError("load_factors must not be empty")
    if list(load_factors) != sorted(load_factors):
        raise ValueError("load_factors must be ascending")
    window_us = int(window_us)
    result = StreamingSweepResult(
        load_factors=load_factors, window_us=window_us, seed=seed
    )
    for name in PARADIGMS:
        result.curves[name] = run_paradigm_stream(
            name, _CountClassifier(), stream, window_us, load_factors, seed=seed
        )
    return result


# ----------------------------------------------------------------------
# Deterministic burst workload + outage demo
# ----------------------------------------------------------------------
def make_bursty_stream(
    resolution: Resolution = Resolution(32, 32),
    num_windows: int = 200,
    window_us: int = 10_000,
    base_events_per_window: int = 200,
    burst_factor: float = 10.0,
    burst_windows: tuple[int, int] = (80, 130),
    seed: int = 0,
) -> EventStream:
    """Synthesise a steady stream with one sustained rate burst.

    Every window carries ``base_events_per_window`` events at uniform
    random positions, except the half-open window range
    ``burst_windows`` where the count is multiplied by ``burst_factor``
    — a deterministic model of the arbiter-saturating activity bursts
    of Section II of the paper.

    Args:
        resolution: sensor size.
        num_windows: total stream length in windows.
        window_us: window period.
        base_events_per_window: quiescent per-window event count.
        burst_factor: rate multiplier inside the burst.
        burst_windows: half-open ``[start, stop)`` window-index range of
            the burst.
        seed: seeds positions, polarities and in-window timestamps.
    """
    if num_windows < 1 or base_events_per_window < 1:
        raise ValueError("num_windows and base_events_per_window must be >= 1")
    if burst_factor < 1.0:
        raise ValueError("burst_factor must be >= 1")
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    for w in range(num_windows):
        count = base_events_per_window
        if burst_windows[0] <= w < burst_windows[1]:
            count = int(round(count * burst_factor))
        arr = np.zeros(count, dtype=EVENT_DTYPE)
        # sort-ok: value sort of random offsets; equal values are interchangeable
        arr["t"] = w * window_us + np.sort(
            rng.integers(0, window_us, size=count)
        ).astype(np.int64)
        arr["x"] = rng.integers(0, resolution.width, size=count)
        arr["y"] = rng.integers(0, resolution.height, size=count)
        arr["p"] = rng.choice(np.array([-1, 1], dtype=np.int8), size=count)
        chunks.append(arr)
    return EventStream(np.concatenate(chunks), resolution)


@dataclass
class TransientOutage:
    """Wrap a predictor with a deterministic call-counted outage.

    Calls in ``[fail_from_call, fail_from_call + fail_calls)`` (1-based)
    fail — by raising, or by returning NaN when ``mode`` is ``"nan"``
    (exercising the breaker's NaN trip) — then the stage heals.

    Attributes:
        inner: the healthy predictor.
        fail_from_call: first failing call number.
        fail_calls: number of failing calls.
        mode: ``"raise"`` or ``"nan"``.
        calls: calls made so far (mutates).
    """

    inner: Callable[[EventStream], Any]
    fail_from_call: int
    fail_calls: int
    mode: str = "raise"
    calls: int = 0

    def __post_init__(self) -> None:
        if self.fail_from_call < 1 or self.fail_calls < 0:
            raise ValueError("fail_from_call must be >= 1 and fail_calls >= 0")
        if self.mode not in ("raise", "nan"):
            raise ValueError("mode must be 'raise' or 'nan'")

    def __call__(self, stream: EventStream) -> Any:
        self.calls += 1
        if self.fail_from_call <= self.calls < self.fail_from_call + self.fail_calls:
            if self.mode == "nan":
                return float("nan")
            raise RuntimeError(f"transient outage (call {self.calls})")
        return self.inner(stream)


def run_overload_demo(
    seed: int = 0, burst_factor: float = 10.0
) -> tuple[StreamReport, StreamingExecutor]:
    """The seeded burst + outage demo behind the tests and CI smoke.

    A 200-window stream carries a sustained ``burst_factor``× rate burst
    while the primary predictor suffers a transient nine-call outage
    well before the burst.  The executor must absorb both: the breaker
    trips on the outage, routes windows to the fallback, and re-closes
    through half-open probes; the burst drives the queue past its
    watermarks, escalating the shedding tiers.  The returned report's
    accounting balances exactly (``processed + expired + shed + failed
    == offered``) with ``failed == 0``.

    Args:
        seed: master seed (stream synthesis + breaker probes).
        burst_factor: rate multiplier of the burst.

    Returns:
        ``(report, executor)`` — the executor exposes its breakers and
        shedding controller for inspection.
    """
    window_us = 10_000
    stream = make_bursty_stream(
        num_windows=200,
        window_us=window_us,
        base_events_per_window=200,
        burst_factor=burst_factor,
        burst_windows=(80, 130),
        seed=seed,
    )
    primary = TransientOutage(
        _CountClassifier(), fail_from_call=30, fail_calls=9
    )
    executor = StreamingExecutor(
        ("flaky_primary", primary),
        window_us=window_us,
        fallbacks=[("fallback", _CountClassifier())],
        # 200-event quiescent windows cost 1000 + 200*45 = 10000 us:
        # exactly real-time at base rate, ~9x overloaded in the burst.
        service=ServiceModel(base_us=1000.0, per_event_us=45.0),
        queue_capacity=12,
        shed_policy=ShedPolicy(high_watermark=8, low_watermark=2),
        breaker_policy=BreakerPolicy(
            failure_threshold=3,
            cooldown_calls=4,
            probe_probability=0.6,
            success_threshold=2,
        ),
        seed=seed,
    )
    report = executor.run(stream, load_factor=1.0)
    return report, executor
