"""Core event-stream container.

An event camera emits a sparse, time-ordered stream of *events*, each
comprising an ``(x, y)`` pixel address, a timestamp (microseconds in this
library) and a binary polarity (+1 for an ON / luminance-increase event,
-1 for an OFF / luminance-decrease event).  This module provides
:class:`EventStream`, a thin, validated wrapper around a NumPy structured
array with that layout.  Every other subsystem in the library — the camera
simulator, the SNN / CNN / GNN pipelines and the hardware cost models —
consumes and produces :class:`EventStream` objects.

The dtype is deliberately minimal and matches the fields carried by the
Address-Event Representation (AER) protocol (see :mod:`repro.events.aer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["EVENT_DTYPE", "EventStream", "Resolution", "concatenate"]

#: Structured dtype used for all event arrays in the library.
#:
#: ``t``: timestamp in microseconds (int64, monotonically non-decreasing).
#: ``x``/``y``: pixel coordinates (int32, ``0 <= x < width``, ``0 <= y < height``).
#: ``p``: polarity, strictly +1 or -1 (int8).
EVENT_DTYPE = np.dtype([("t", np.int64), ("x", np.int32), ("y", np.int32), ("p", np.int8)])


@dataclass(frozen=True)
class Resolution:
    """Sensor array resolution in pixels.

    Attributes:
        width: number of pixel columns (x spans ``[0, width)``).
        height: number of pixel rows (y spans ``[0, height)``).
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"resolution must be positive, got {self.width}x{self.height}")

    @property
    def num_pixels(self) -> int:
        """Total number of pixels in the array."""
        return self.width * self.height

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean mask of coordinates that fall inside the array."""
        return (x >= 0) & (x < self.width) & (y >= 0) & (y < self.height)

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


class EventStream:
    """A validated, time-ordered stream of camera events.

    The stream is backed by a structured NumPy array with dtype
    :data:`EVENT_DTYPE` and carries the resolution of the sensor that
    produced it.  Instances are conceptually immutable: operations return
    new streams rather than mutating in place.

    Args:
        events: structured array with fields ``t, x, y, p``, or anything
            :func:`numpy.asarray` can convert to one.
        resolution: the sensor array size; coordinates are validated
            against it.
        check: when True (default), validate ordering, coordinate bounds
            and polarity values.  Disable only on hot paths where the
            producer guarantees validity.
    """

    __slots__ = ("_events", "_resolution", "_soa")

    def __init__(
        self,
        events: np.ndarray,
        resolution: Resolution,
        *,
        check: bool = True,
    ) -> None:
        arr = np.asarray(events)
        if arr.dtype != EVENT_DTYPE:
            try:
                arr = arr.astype(EVENT_DTYPE)
            except (TypeError, ValueError) as exc:
                raise TypeError(
                    f"events must have dtype {EVENT_DTYPE}, got {arr.dtype}"
                ) from exc
        if arr.ndim != 1:
            raise ValueError(f"events must be a 1-D array, got shape {arr.shape}")
        if check and arr.size:
            if np.any(np.diff(arr["t"]) < 0):
                raise ValueError("event timestamps must be non-decreasing")
            if not np.all(resolution.contains(arr["x"], arr["y"])):
                raise ValueError(f"event coordinates out of bounds for {resolution}")
            pol = arr["p"]
            if not np.all((pol == 1) | (pol == -1)):
                raise ValueError("polarity values must be +1 or -1")
        self._events = arr
        self._resolution = resolution
        self._soa = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        t: Sequence[int] | np.ndarray,
        x: Sequence[int] | np.ndarray,
        y: Sequence[int] | np.ndarray,
        p: Sequence[int] | np.ndarray,
        resolution: Resolution,
        *,
        sort: bool = False,
    ) -> "EventStream":
        """Build a stream from parallel coordinate arrays.

        Args:
            t, x, y, p: equal-length sequences of timestamps, coordinates
                and polarities.
            resolution: sensor resolution.
            sort: when True, stably sort by timestamp before validation.
        """
        t = np.asarray(t, dtype=np.int64)
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        p = np.asarray(p, dtype=np.int8)
        n = len(t)
        if not (len(x) == len(y) == len(p) == n):
            raise ValueError("t, x, y, p must have equal lengths")
        arr = np.empty(n, dtype=EVENT_DTYPE)
        arr["t"], arr["x"], arr["y"], arr["p"] = t, x, y, p
        if sort and n:
            arr = arr[np.argsort(arr["t"], kind="stable")]
        return cls(arr, resolution)

    @classmethod
    def empty(cls, resolution: Resolution) -> "EventStream":
        """An event stream with no events."""
        return cls(np.empty(0, dtype=EVENT_DTYPE), resolution, check=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def resolution(self) -> Resolution:
        """Sensor resolution the stream coordinates refer to."""
        return self._resolution

    @property
    def t(self) -> np.ndarray:
        """Timestamps in microseconds (int64 view)."""
        return self._events["t"]

    @property
    def x(self) -> np.ndarray:
        """Pixel column addresses (int32 view)."""
        return self._events["x"]

    @property
    def y(self) -> np.ndarray:
        """Pixel row addresses (int32 view)."""
        return self._events["y"]

    @property
    def p(self) -> np.ndarray:
        """Polarities, +1 or -1 (int8 view)."""
        return self._events["p"]

    @property
    def raw(self) -> np.ndarray:
        """The backing structured array (do not mutate)."""
        return self._events

    def __len__(self) -> int:
        return self._events.size

    def __getstate__(self):
        # The SoA cache is derived data; keep pickles at the raw-array
        # footprint.
        return (self._events, self._resolution)

    def __setstate__(self, state) -> None:
        self._events, self._resolution = state
        self._soa = None

    def __iter__(self) -> Iterator[np.void]:
        return iter(self._events)

    def __getitem__(self, index) -> "EventStream":
        """Index or slice the stream, returning a new stream.

        Boolean masks, integer arrays and slices are supported.  Scalar
        indexing also returns a length-1 stream for type stability.
        """
        sub = self._events[index]
        if sub.ndim == 0:
            sub = sub.reshape(1)
        return EventStream(sub, self._resolution, check=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self._resolution == other._resolution and np.array_equal(
            self._events, other._events
        )

    def __repr__(self) -> str:
        span = f"[{self.t[0]}..{self.t[-1]}]us" if len(self) else "[]"
        return f"EventStream(n={len(self)}, res={self._resolution}, t={span})"

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Diagnose integrity problems without raising.

        Construction with ``check=True`` rejects malformed data outright;
        this method instead *reports* what is wrong, so fault-tolerant
        consumers (:mod:`repro.reliability`) can quarantine a corrupted
        recording with a reason instead of crashing on it.  A stream
        built with ``check=False`` (e.g. straight from a decoder or a
        fault injector) may fail any of these checks.

        Returns:
            A list of human-readable problem descriptions; empty when the
            stream satisfies every :data:`EVENT_DTYPE` invariant.
        """
        problems: list[str] = []
        if len(self) == 0:
            return problems
        bad_order = int(np.count_nonzero(np.diff(self.t) < 0))
        if bad_order:
            problems.append(f"{bad_order} out-of-order timestamp step(s)")
        oob = int(np.count_nonzero(~self._resolution.contains(self.x, self.y)))
        if oob:
            problems.append(
                f"{oob} event(s) outside the {self._resolution} array"
            )
        bad_pol = int(np.count_nonzero((self.p != 1) & (self.p != -1)))
        if bad_pol:
            problems.append(f"{bad_pol} event(s) with polarity not in {{+1, -1}}")
        if int(self.t[0]) < 0:
            problems.append(f"negative first timestamp {int(self.t[0])}")
        return problems

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """Time span covered by the stream in microseconds (0 if < 2 events)."""
        if len(self) < 2:
            return 0
        return int(self.t[-1] - self.t[0])

    def event_rate(self) -> float:
        """Mean event rate in events per second (0.0 for degenerate streams)."""
        dur = self.duration
        if dur <= 0:
            return 0.0
        return len(self) / (dur * 1e-6)

    def polarity_counts(self) -> tuple[int, int]:
        """Return ``(num_on, num_off)`` event counts."""
        on = int(np.count_nonzero(self.p == 1))
        return on, len(self) - on

    def sparsity(self) -> float:
        """Fraction of pixels that never fire in this stream (1.0 = all silent)."""
        if len(self) == 0:
            return 1.0
        active = np.unique(self.y.astype(np.int64) * self._resolution.width + self.x)
        return 1.0 - active.size / self._resolution.num_pixels

    # ------------------------------------------------------------------
    # Transformations (all return new streams)
    # ------------------------------------------------------------------
    def time_window(self, t_start: int, t_end: int) -> "EventStream":
        """Events with ``t_start <= t < t_end`` (microseconds)."""
        if t_end < t_start:
            raise ValueError(f"empty window: t_end={t_end} < t_start={t_start}")
        lo = np.searchsorted(self.t, t_start, side="left")
        hi = np.searchsorted(self.t, t_end, side="left")
        return self[lo:hi]

    def crop(self, x0: int, y0: int, x1: int, y1: int) -> "EventStream":
        """Events inside the half-open spatial box ``[x0, x1) x [y0, y1)``.

        Coordinates are re-referenced to the box origin and the resolution
        shrinks accordingly.
        """
        if not (0 <= x0 < x1 <= self._resolution.width):
            raise ValueError(f"invalid x crop [{x0}, {x1})")
        if not (0 <= y0 < y1 <= self._resolution.height):
            raise ValueError(f"invalid y crop [{y0}, {y1})")
        mask = (self.x >= x0) & (self.x < x1) & (self.y >= y0) & (self.y < y1)
        sub = self._events[mask].copy()
        sub["x"] -= x0
        sub["y"] -= y0
        return EventStream(sub, Resolution(x1 - x0, y1 - y0), check=False)

    def shift_time(self, offset_us: int) -> "EventStream":
        """Add ``offset_us`` to every timestamp."""
        sub = self._events.copy()
        sub["t"] += offset_us
        return EventStream(sub, self._resolution, check=False)

    def rezero_time(self) -> "EventStream":
        """Shift timestamps so the first event occurs at t=0."""
        if len(self) == 0:
            return self
        return self.shift_time(-int(self.t[0]))

    def with_polarity(self, polarity: int) -> "EventStream":
        """Only the events of the given polarity (+1 or -1)."""
        if polarity not in (1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {polarity}")
        return self[self.p == polarity]

    def flip_polarity(self) -> "EventStream":
        """Swap ON and OFF events."""
        sub = self._events.copy()
        sub["p"] = -sub["p"]
        return EventStream(sub, self._resolution, check=False)

    def flip_x(self) -> "EventStream":
        """Mirror the stream horizontally."""
        sub = self._events.copy()
        sub["x"] = self._resolution.width - 1 - sub["x"]
        return EventStream(sub, self._resolution, check=False)

    def flip_y(self) -> "EventStream":
        """Mirror the stream vertically."""
        sub = self._events.copy()
        sub["y"] = self._resolution.height - 1 - sub["y"]
        return EventStream(sub, self._resolution, check=False)

    def pixel_index(self) -> np.ndarray:
        """Flat pixel index ``y * width + x`` for every event (int64)."""
        return self.y.astype(np.int64) * self._resolution.width + self.x.astype(np.int64)

    def soa(self) -> "EventSoA":
        """Contiguous structure-of-arrays view of this stream, cached.

        The first call extracts one contiguous column per field; later
        calls (graph build, encoders, repeated point clouds) reuse them.
        """
        if self._soa is None:
            from .soa import EventSoA

            self._soa = EventSoA.from_stream(self)
        return self._soa

    def as_point_cloud(self, time_scale_us: float = 1.0) -> np.ndarray:
        """View the stream as an ``(N, 3)`` float point cloud ``(x, y, t/scale)``.

        This is the representation event-graph construction starts from
        (Section IV of the paper): two spatial dimensions plus one scaled
        temporal dimension.  Assembled from the cached
        structure-of-arrays columns (:meth:`soa`); values are identical
        to reading the structured fields directly.

        Args:
            time_scale_us: microseconds mapped to one spatial-unit of the
                temporal axis.  Larger values compress time.
        """
        return self.soa().point_cloud(time_scale_us)


def concatenate(streams: Iterable[EventStream]) -> EventStream:
    """Concatenate time-ordered streams that share one resolution.

    The streams must already be mutually ordered (each stream's first
    timestamp at or after the previous stream's last); use
    :meth:`EventStream.shift_time` first when stitching recordings.

    Each input stream was validated at construction, so only the
    cross-stream boundary timestamps are checked here — the merged
    array is not re-validated.
    """
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one stream to concatenate")
    res = streams[0].resolution
    last_t: int | None = None
    for s in streams:
        if s.resolution != res:
            raise ValueError(f"mixed resolutions: {s.resolution} vs {res}")
        if len(s) == 0:
            continue
        if last_t is not None and int(s.t[0]) < last_t:
            raise ValueError(
                "streams are not mutually time-ordered: "
                f"boundary {s.t[0]} < {last_t}"
            )
        last_t = int(s.t[-1])
    arr = np.concatenate([s.raw for s in streams])
    return EventStream(arr, res, check=False)
