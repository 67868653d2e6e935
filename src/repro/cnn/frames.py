"""Event → dense-frame representations (Section III-B).

"2D CNNs take as input stacked 2D matrices … therefore a pre-processing
step is required to convert the stream of events into a so-called
dense-frame."  This module implements the aggregation family the paper
surveys:

* **event-count histograms** (refs [53], [54]) — per-pixel counts over a
  temporal window, either signed into one channel or split into
  ON/OFF channels (the Fig. 2 centre panel);
* **time surfaces** (Sironi et al. 2018, ref [56]) — pixel intensity
  encodes the time since the pixel last fired, with exponential or
  linear decay;
* **count + time-surface stacks** (ref [57], EV-FlowNet style);
* **voxel grids** (Gehrig et al. 2019, ref [54]) — bilinear temporal
  binning into B time slices;
* **TORE-lite volumes** (Baldwin et al. 2022, ref [77]) — per pixel and
  polarity, the K most recent event ages.

All functions return ``(C, H, W)`` float arrays ready for the CNN input,
and each has a ``channels`` helper so models can be sized automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..events.stream import EventStream

__all__ = [
    "count_frame",
    "two_channel_frame",
    "time_surface",
    "count_and_surface",
    "voxel_grid",
    "tore_volume",
    "FrameRepresentation",
    "REPRESENTATIONS",
]


def count_frame(stream: EventStream, signed: bool = True) -> np.ndarray:
    """Single-channel event-count frame ``(1, H, W)``.

    Args:
        stream: events in the aggregation window.
        signed: subtract OFF counts from ON counts (True) or count all
            events regardless of polarity (False).
    """
    h, w = stream.resolution.height, stream.resolution.width
    out = np.zeros((1, h, w), dtype=np.float64)
    if len(stream) == 0:
        return out
    weights = stream.p.astype(np.float64) if signed else None
    flat = np.bincount(stream.pixel_index(), weights=weights, minlength=h * w)
    out[0] = flat.reshape(h, w)
    return out


def two_channel_frame(stream: EventStream) -> np.ndarray:
    """ON/OFF two-channel count frame ``(2, H, W)`` — the Fig. 2 encoding."""
    h, w = stream.resolution.height, stream.resolution.width
    out = np.zeros((2, h, w), dtype=np.float64)
    if len(stream) == 0:
        return out
    pix = stream.pixel_index()
    on = stream.p == 1
    out[0] = np.bincount(pix[on], minlength=h * w).reshape(h, w)
    out[1] = np.bincount(pix[~on], minlength=h * w).reshape(h, w)
    return out


def time_surface(
    stream: EventStream,
    tau_us: float = 30_000.0,
    t_ref: int | None = None,
    decay: str = "exp",
) -> np.ndarray:
    """Two-channel time surface ``(2, H, W)``.

    Each pixel stores a decayed function of the time since its most
    recent event of each polarity, referenced to ``t_ref`` (default: the
    last event's timestamp).

    Args:
        stream: events in the window.
        tau_us: decay constant (exp) or linear window length.
        t_ref: reference "now" timestamp.
        decay: "exp" for ``exp(-(t_ref - t)/tau)`` or "linear" for
            ``max(0, 1 - (t_ref - t)/tau)``.
    """
    if tau_us <= 0:
        raise ValueError("tau_us must be positive")
    if decay not in ("exp", "linear"):
        raise ValueError(f"decay must be 'exp' or 'linear', got {decay!r}")
    h, w = stream.resolution.height, stream.resolution.width
    out = np.zeros((2, h, w), dtype=np.float64)
    if len(stream) == 0:
        return out
    if t_ref is None:
        t_ref = int(stream.t[-1])
    # Events are time-sorted, so later writes overwrite earlier ones:
    # each pixel ends holding its most recent event time per polarity.
    last = np.full((2, h, w), -np.inf)
    chan = (stream.p < 0).astype(np.int64)
    last[chan, stream.y, stream.x] = stream.t
    age = t_ref - last
    if decay == "exp":
        out = np.where(np.isfinite(age), np.exp(-np.maximum(age, 0.0) / tau_us), 0.0)
    else:
        out = np.where(
            np.isfinite(age), np.maximum(0.0, 1.0 - np.maximum(age, 0.0) / tau_us), 0.0
        )
    return out


def count_and_surface(stream: EventStream, tau_us: float = 30_000.0) -> np.ndarray:
    """Joint counts + time-surface representation ``(4, H, W)`` (ref [57])."""
    return np.concatenate([two_channel_frame(stream), time_surface(stream, tau_us)])


def voxel_grid(stream: EventStream, num_bins: int = 5) -> np.ndarray:
    """Bilinearly-interpolated voxel grid ``(num_bins, H, W)`` (ref [54]).

    Each event deposits its signed polarity into the two temporally
    adjacent bins with linear weights, preserving sub-bin timing.
    """
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    h, w = stream.resolution.height, stream.resolution.width
    out = np.zeros((num_bins, h, w), dtype=np.float64)
    n = len(stream)
    if n == 0:
        return out
    t = stream.t.astype(np.float64)
    t0, t1 = t[0], t[-1]
    span = max(t1 - t0, 1.0)
    # Continuous bin coordinate in [0, num_bins - 1].
    tb = (t - t0) / span * (num_bins - 1) if num_bins > 1 else np.zeros(n)
    lo = np.floor(tb).astype(np.int64)
    hi = np.minimum(lo + 1, num_bins - 1)
    w_hi = tb - lo
    w_lo = 1.0 - w_hi
    pol = stream.p.astype(np.float64)
    np.add.at(out, (lo, stream.y, stream.x), pol * w_lo)
    np.add.at(out, (hi, stream.y, stream.x), pol * w_hi)
    return out


def tore_volume(stream: EventStream, k: int = 3, tau_us: float = 50_000.0) -> np.ndarray:
    """Time-Ordered-Recent-Event volume ``(2k, H, W)`` (TORE-lite, ref [77]).

    For each pixel and polarity, the ages of the K most recent events are
    stored (newest first), log-compressed to the unit range.  This keeps
    more temporal structure than a single time surface.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if tau_us <= 0:
        raise ValueError("tau_us must be positive")
    h, w = stream.resolution.height, stream.resolution.width
    n = len(stream)
    out = np.zeros((2 * k, h, w), dtype=np.float64)
    if n == 0:
        return out
    t_ref = int(stream.t[-1])
    # Ring buffers of the last K event times per pixel/polarity.
    buf = np.full((2, h, w, k), -np.inf)
    chan_all = (stream.p < 0).astype(np.int64)
    for i in range(n):
        c, y, x = chan_all[i], int(stream.y[i]), int(stream.x[i])
        buf[c, y, x, 1:] = buf[c, y, x, :-1]
        buf[c, y, x, 0] = stream.t[i]
    age = np.maximum(t_ref - buf, 0.0)
    vals = np.where(np.isfinite(age), 1.0 / (1.0 + np.log1p(age / tau_us * np.e)), 0.0)
    # (2, H, W, K) -> (2K, H, W): polarity-major channel layout.
    out = vals.transpose(0, 3, 1, 2).reshape(2 * k, h, w)
    return out


@dataclass(frozen=True)
class FrameRepresentation:
    """A named event → frame mapping with a fixed channel count.

    Attributes:
        name: representation identifier.
        channels: output channel count.
        fn: mapping from a stream to a ``(channels, H, W)`` array.
        preserves_timing: whether sub-window event timing survives into
            the representation (True for surfaces/voxels, False for raw
            counts) — the property Section III-B's critique turns on.
    """

    name: str
    channels: int
    fn: Callable[[EventStream], np.ndarray] = field(repr=False)
    preserves_timing: bool

    def __call__(self, stream: EventStream) -> np.ndarray:
        frame = self.fn(stream)
        if frame.shape[0] != self.channels:
            raise RuntimeError(
                f"{self.name} produced {frame.shape[0]} channels, declared {self.channels}"
            )
        return frame


#: The representation zoo used by the comparison experiments.
REPRESENTATIONS: dict[str, FrameRepresentation] = {
    "count": FrameRepresentation("count", 1, lambda s: count_frame(s), False),
    "two_channel": FrameRepresentation("two_channel", 2, two_channel_frame, False),
    "time_surface": FrameRepresentation("time_surface", 2, lambda s: time_surface(s), True),
    "count_surface": FrameRepresentation(
        "count_surface", 4, lambda s: count_and_surface(s), True
    ),
    "voxel": FrameRepresentation("voxel", 5, lambda s: voxel_grid(s, 5), True),
    "tore": FrameRepresentation("tore", 6, lambda s: tore_volume(s, 3), True),
}
