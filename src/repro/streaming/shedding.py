"""Tiered load shedding: degrade data quality before dropping work.

Section II of the paper describes how a saturated camera arbiter
degrades: first events queue, then the readout thins them, and finally
whole rows are skipped.  The streaming executor mirrors that escalation
in software with four tiers:

* **NONE** — windows pass untouched;
* **SUBSAMPLE** — rate-proportional event subsampling: the window is
  thinned to the event budget the service model can sustain, keeping
  evenly spaced events so the temporal structure survives;
* **DOWNSAMPLE** — additionally pool events into super-pixels
  (:func:`repro.events.ops.spatial_downsample`) and re-project them
  onto the original resolution, merging bursts that hit one region;
* **DROP_OLDEST** — on top of both transforms, evict the oldest queued
  window entirely (it would expire anyway).

The :class:`ShedController` escalates one tier each time queue depth
crosses the high watermark and de-escalates below the low watermark;
a bursty arrival window (peak-to-mean rate from
:class:`repro.events.rate.RateProfile`) escalates pre-emptively.  Every
event removed is recorded in a :class:`ShedLedger`, so the executor's
accounting is exact — nothing is shed silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Any

import numpy as np

from ..events.ops import spatial_downsample
from ..events.stream import EventStream

__all__ = [
    "ShedTier",
    "ShedPolicy",
    "ShedLedger",
    "ShedController",
    "subsample_events",
    "spatial_shed",
]


class ShedTier(IntEnum):
    """Degradation levels, mild to drastic (mirrors the camera arbiter)."""

    NONE = 0
    SUBSAMPLE = 1
    DOWNSAMPLE = 2
    DROP_OLDEST = 3


@dataclass(frozen=True)
class ShedPolicy:
    """Watermarks and transform parameters of the shedding controller.

    Attributes:
        high_watermark: queue depth at (or above) which the controller
            escalates one tier per ingested window.
        low_watermark: queue depth at (or below) which it de-escalates.
        burstiness_threshold: peak-to-mean rate ratio of an arriving
            window that pre-emptively engages SUBSAMPLE even before the
            high watermark is hit.
        burst_bin_us: bin width of the per-window rate profile used for
            the burstiness signal.
        subsample_keep: floor on the SUBSAMPLE keep fraction (the
            rate-proportional budget can only thin *harder* than this,
            never softer once the tier is engaged).
        downsample_factor: super-pixel edge length of the DOWNSAMPLE
            tier.
        downsample_refractory_us: merge window of the DOWNSAMPLE tier
            (events on one super-pixel within it collapse to one).
    """

    high_watermark: int = 8
    low_watermark: int = 2
    burstiness_threshold: float = 6.0
    burst_bin_us: int = 1000
    subsample_keep: float = 0.5
    downsample_factor: int = 2
    downsample_refractory_us: int = 1000

    def __post_init__(self) -> None:
        # Checked first: every comparison below is False for nan.
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.low_watermark < 0:
            raise ValueError("low_watermark must be non-negative")
        if self.high_watermark <= self.low_watermark:
            raise ValueError("high_watermark must exceed low_watermark")
        if self.burstiness_threshold <= 1.0:
            raise ValueError("burstiness_threshold must be > 1")
        if self.burst_bin_us <= 0:
            raise ValueError("burst_bin_us must be positive")
        if not 0.0 < self.subsample_keep <= 1.0:
            raise ValueError("subsample_keep must be in (0, 1]")
        if self.downsample_factor < 2:
            raise ValueError("downsample_factor must be >= 2")
        if self.downsample_refractory_us < 0:
            raise ValueError("downsample_refractory_us must be non-negative")


def subsample_events(stream: EventStream, keep_fraction: float) -> EventStream:
    """Deterministically thin a stream to ``keep_fraction`` of its events.

    Kept events are evenly spaced in stream order (``linspace`` over the
    indices), so the result is a valid, time-ordered substream whose
    rate is reduced proportionally — the software analogue of an
    arbiter granting every k-th request.

    Args:
        stream: input events.
        keep_fraction: fraction of events to keep, in [0, 1].
    """
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in [0, 1]")
    n = len(stream)
    if n == 0 or keep_fraction >= 1.0:
        return stream
    kept = int(round(n * keep_fraction))
    if kept <= 0:
        return stream[np.zeros(0, dtype=np.int64)]
    idx = np.unique(np.round(np.linspace(0, n - 1, kept)).astype(np.int64))
    return stream[idx]


def spatial_shed(
    stream: EventStream, factor: int, refractory_us: int = 0
) -> EventStream:
    """Pool events into super-pixels, keeping the original resolution.

    :func:`repro.events.ops.spatial_downsample` merges same-super-pixel
    events within the refractory window but shrinks the resolution —
    which would invalidate a model fitted on full-resolution input.
    This wrapper re-projects the pooled events back onto the original
    array (each lands on its super-pixel's top-left corner), so the
    stream keeps its resolution while the event count drops.

    Args:
        stream: input events.
        factor: super-pixel edge length (>= 2).
        refractory_us: merge window of the pooled comparator.
    """
    if factor < 2:
        raise ValueError("factor must be >= 2")
    down = spatial_downsample(stream, factor, refractory_us)
    if len(down) == 0:
        return stream[np.zeros(0, dtype=np.int64)]
    arr = down.raw.copy()
    # Super-pixel corners always lie inside the original array:
    # x_down <= width//factor - 1, so x_down * factor <= width - factor.
    arr["x"] *= factor
    arr["y"] *= factor
    return EventStream(arr, stream.resolution, check=False)


@dataclass
class ShedLedger:
    """Exact account of everything the shedding tiers removed.

    Attributes:
        windows_touched: tier name → windows a transform was applied to
            (DROP_OLDEST counts evicted windows).
        events_shed: tier name → events removed at that tier.
    """

    windows_touched: dict[str, int] = field(
        default_factory=lambda: {t.name: 0 for t in ShedTier if t is not ShedTier.NONE}
    )
    events_shed: dict[str, int] = field(
        default_factory=lambda: {t.name: 0 for t in ShedTier if t is not ShedTier.NONE}
    )

    def record(self, tier: ShedTier, events_before: int, events_after: int) -> None:
        """Record one transform application (no-op rejections included)."""
        if tier is ShedTier.NONE:
            return
        if events_after > events_before:
            raise ValueError("shedding cannot add events")
        self.windows_touched[tier.name] += 1
        self.events_shed[tier.name] += events_before - events_after

    def record_window_drop(self, num_events: int) -> None:
        """Record one whole evicted window (DROP_OLDEST tier)."""
        self.windows_touched[ShedTier.DROP_OLDEST.name] += 1
        self.events_shed[ShedTier.DROP_OLDEST.name] += num_events

    @property
    def total_events_shed(self) -> int:
        """Events removed across all tiers."""
        return sum(self.events_shed.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "windows_touched": dict(self.windows_touched),
            "events_shed": dict(self.events_shed),
        }


@dataclass(frozen=True)
class TierTransition:
    """One controller tier change.

    Attributes:
        at_window: index of the arriving window that triggered it.
        from_tier / to_tier: tier names.
        reason: trigger description (watermark or burstiness).
    """

    at_window: int
    from_tier: str
    to_tier: str
    reason: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "at_window": self.at_window,
            "from": self.from_tier,
            "to": self.to_tier,
            "reason": self.reason,
        }


class ShedController:
    """Escalates/de-escalates the shedding tier from queue + rate signals.

    Args:
        policy: watermarks and transform parameters.
        target_events_per_window: event budget the service model can
            sustain per window period; the SUBSAMPLE tier thins windows
            toward it (rate-proportional).  ``None`` disables the
            budget and falls back to ``policy.subsample_keep``.
    """

    def __init__(
        self,
        policy: ShedPolicy | None = None,
        target_events_per_window: float | None = None,
    ) -> None:
        if target_events_per_window is not None and not (
            math.isfinite(target_events_per_window)
            and target_events_per_window > 0
        ):
            raise ValueError("target_events_per_window must be finite and positive")
        self.policy = policy or ShedPolicy()
        self.target_events_per_window = target_events_per_window
        self.tier = ShedTier.NONE
        self.transitions: list[TierTransition] = []

    def _move(self, to: ShedTier, at_window: int, reason: str) -> None:
        if to is self.tier:
            return
        self.transitions.append(
            TierTransition(at_window, self.tier.name, to.name, reason)
        )
        self.tier = to

    def update(
        self, queue_depth: int, burstiness: float, at_window: int
    ) -> ShedTier:
        """Advance the tier for one arriving window and return it.

        Args:
            queue_depth: pending windows before this arrival is queued.
            burstiness: peak-to-mean rate ratio of the arriving window.
            at_window: arriving window's index (for the transition log).
        """
        p = self.policy
        if queue_depth >= p.high_watermark:
            self._move(
                ShedTier(min(self.tier + 1, ShedTier.DROP_OLDEST)),
                at_window,
                f"queue depth {queue_depth} >= high watermark {p.high_watermark}",
            )
        elif queue_depth <= p.low_watermark:
            self._move(
                ShedTier(max(self.tier - 1, ShedTier.NONE)),
                at_window,
                f"queue depth {queue_depth} <= low watermark {p.low_watermark}",
            )
        if (
            self.tier is ShedTier.NONE
            and burstiness >= p.burstiness_threshold
            and queue_depth > p.low_watermark
        ):
            self._move(
                ShedTier.SUBSAMPLE,
                at_window,
                f"burstiness {burstiness:.1f} >= {p.burstiness_threshold}",
            )
        return self.tier

    def keep_fraction(self, window_events: int) -> float:
        """SUBSAMPLE keep fraction for a window of the given size.

        Rate-proportional: thin toward the sustainable event budget, but
        never keep more than ``policy.subsample_keep`` once the tier is
        engaged (shedding that sheds nothing would stall recovery).
        """
        if window_events == 0:
            return 1.0
        keep = self.policy.subsample_keep
        if self.target_events_per_window is not None:
            keep = min(keep, self.target_events_per_window / window_events)
        return max(0.0, min(1.0, keep))

    def apply(self, stream: EventStream, ledger: ShedLedger) -> EventStream:
        """Apply the current tier's transforms to one arriving window.

        DROP_OLDEST applies the DOWNSAMPLE transforms to the arriving
        window (the eviction itself is the queue's job); every removed
        event is recorded in ``ledger``.

        Returns:
            The transformed stream.
        """
        tier = self.tier
        if tier is ShedTier.NONE or len(stream) == 0:
            return stream
        before = len(stream)
        out = subsample_events(stream, self.keep_fraction(before))
        if tier >= ShedTier.DOWNSAMPLE:
            out = spatial_shed(
                out,
                self.policy.downsample_factor,
                self.policy.downsample_refractory_us,
            )
        ledger.record(min(tier, ShedTier.DOWNSAMPLE), before, len(out))
        return out
