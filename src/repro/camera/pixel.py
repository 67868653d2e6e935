"""The DVS pixel front-end model.

A dynamic-vision-sensor pixel (Lichtsteiner et al. 2008, ref [6] of the
paper) continuously monitors the natural log of its photocurrent.  When
the log luminance rises by more than the ON contrast threshold above the
pixel's stored reference level, the pixel emits an ON event and resets
its reference; a fall of more than the OFF threshold emits an OFF event.
After any event the pixel is blind for a refractory period.

This module implements that mechanism for a whole array at once, with

* per-pixel threshold mismatch (fixed-pattern noise),
* linear sub-interval timestamp interpolation between video samples
  (ESIM-style), giving event timestamps far finer than the stimulus
  sampling period, and
* a per-pixel refractory period.

One array kernel simulates a ``(T, H, W)`` block of log-luminance
samples.  Only the sequential part (photoreceptor low-pass, threshold
crossing counts and reference update) steps frame by frame, as a few
whole-array operations; the events of the whole block are then
extracted, timestamped and time-sorted in one vectorised pass.
:meth:`PixelArray.step` is that kernel on a one-frame block, so there is
a single event-generation path.  Its per-frame predecessor is kept as
the reference oracle in ``tests/test_camera_oracle.py``, which checks
byte-identical output.

The model is deliberately agnostic of where the log-luminance samples
come from; :mod:`repro.camera.sensor` feeds it from a
:class:`~repro.camera.video.Stimulus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..events.ops import _grouped_refractory_keep
from ..events.stream import EventStream, Resolution

__all__ = ["PixelParams", "PixelArray"]


@dataclass(frozen=True)
class PixelParams:
    """Electrical parameters of the DVS pixel.

    Attributes:
        threshold_on: nominal ON contrast threshold (log-luminance units).
        threshold_off: nominal OFF contrast threshold (positive number;
            the pixel fires OFF when log luminance *falls* by this much).
        threshold_mismatch_sigma: relative standard deviation of the
            per-pixel threshold spread (fixed-pattern noise); 0 disables.
        refractory_us: per-pixel dead time after an event: an event is
            kept only if it comes more than this after the pixel's last
            kept one.
        photoreceptor_cutoff_hz: first-order low-pass bandwidth of the
            photoreceptor front-end.  Real DVS photoreceptors are
            bandwidth-limited (bias-dependent, ~100 Hz – 10 kHz); fast
            transients are attenuated before the change detector sees
            them.  0 disables the filter (ideal front-end).
    """

    threshold_on: float = 0.2
    threshold_off: float = 0.2
    threshold_mismatch_sigma: float = 0.0
    refractory_us: int = 0
    photoreceptor_cutoff_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold_on <= 0 or self.threshold_off <= 0:
            raise ValueError("contrast thresholds must be positive")
        if self.threshold_mismatch_sigma < 0:
            raise ValueError("threshold_mismatch_sigma must be non-negative")
        if self.refractory_us < 0:
            raise ValueError("refractory_us must be non-negative")
        if self.photoreceptor_cutoff_hz < 0:
            raise ValueError("photoreceptor_cutoff_hz must be non-negative")


class PixelArray:
    """Stateful array of DVS pixels.

    Feed successive log-luminance samples with :meth:`step`; each call
    returns the events generated between the previous sample and this one.
    State (reference levels, refractory deadlines) persists across calls
    so a long recording can be simulated frame by frame, or block by
    block through the camera.

    Args:
        resolution: array size.
        params: pixel electrical parameters.
        rng: generator used to draw the per-pixel threshold mismatch.
    """

    def __init__(
        self,
        resolution: Resolution,
        params: PixelParams = PixelParams(),
        rng: np.random.Generator | None = None,
    ) -> None:
        self.resolution = resolution
        self.params = params
        shape = (resolution.height, resolution.width)
        if params.threshold_mismatch_sigma > 0:
            if rng is None:
                rng = np.random.default_rng(0)
            spread_on = rng.normal(1.0, params.threshold_mismatch_sigma, shape)
            spread_off = rng.normal(1.0, params.threshold_mismatch_sigma, shape)
            # Clip so no pixel gets a vanishing or negative threshold.
            theta_on = params.threshold_on * np.clip(spread_on, 0.1, None)
            theta_off = params.threshold_off * np.clip(spread_off, 0.1, None)
        else:
            theta_on = np.full(shape, params.threshold_on)
            theta_off = np.full(shape, params.threshold_off)
        # ON and OFF thresholds stacked along the polarity axis of the
        # kernel's (T, 2, H, W) crossing counts.
        self._thetas = np.stack((theta_on, theta_off))
        self._ref: np.ndarray | None = None  # stored log-luminance reference
        self._lp: np.ndarray | None = None  # photoreceptor low-pass state
        self._refractory_until = np.full(shape, np.iinfo(np.int64).min, dtype=np.int64)
        self._last_t: int | None = None

    @property
    def threshold_on_map(self) -> np.ndarray:
        """Per-pixel effective ON thresholds (read-only view)."""
        return self._thetas[0]

    @property
    def threshold_off_map(self) -> np.ndarray:
        """Per-pixel effective OFF thresholds (read-only view)."""
        return self._thetas[1]

    def reset(self) -> None:
        """Forget all pixel state; the next sample re-initialises references."""
        self._ref = None
        self._lp = None
        self._refractory_until.fill(np.iinfo(np.int64).min)
        self._last_t = None

    def step(self, log_frame: np.ndarray, t_us: int) -> EventStream:
        """Advance the array to the sample ``log_frame`` taken at ``t_us``.

        The first call initialises the per-pixel references and produces
        no events.  Subsequent calls compare the new sample against each
        pixel's reference, emit one event per full threshold crossing
        (multiple events per pixel per step when the change spans several
        thresholds), linearly interpolating each event's timestamp inside
        the ``(previous_t, t_us]`` interval.

        Args:
            log_frame: ``(H, W)`` array of log luminance at ``t_us``.
            t_us: sample time; must strictly increase call over call.

        Returns:
            Events generated in the interval, time-sorted.

        Raises:
            ValueError: on a wrong shape, a non-increasing time or a
                non-finite sample; the array is left unchanged.
        """
        block = np.array(log_frame, dtype=np.float64)[np.newaxis]
        return self._simulate(block, np.array([int(t_us)], dtype=np.int64))

    def _simulate(self, log_frames: np.ndarray, ts: np.ndarray) -> EventStream:
        """Advance the array over a ``(T, H, W)`` block of log-luminance
        samples taken at the strictly increasing int64 times ``ts``.

        Equivalent to :meth:`step` on each frame in turn, with the
        per-frame outputs concatenated.  Every input is checked before
        any state changes.  A float64 block is used as scratch space and
        overwritten.
        """
        expected = (self.resolution.height, self.resolution.width)
        if log_frames.shape[1:] != expected:
            raise ValueError(f"log_frame shape {log_frames.shape[1:]} != {expected}")
        if self._ref is not None and ts[0] <= self._last_t:
            raise ValueError(f"time must strictly increase ({ts[0]} <= {self._last_t})")
        back = np.flatnonzero(np.diff(ts) <= 0)
        if back.size:
            i = int(back[0])
            raise ValueError(f"time must strictly increase ({ts[i + 1]} <= {ts[i]})")
        frames = np.asarray(log_frames, dtype=np.float64)
        bad = ~np.isfinite(frames)
        if bad.any():
            i, y, x = np.argwhere(bad)[0]
            raise ValueError(
                f"non-finite log luminance {frames[i, y, x]} at pixel "
                f"(x={x}, y={y}), t={ts[i]} us"
            )

        if self._ref is None:
            # The first sample initialises the references; no events.
            if self.params.photoreceptor_cutoff_hz > 0:
                self._lp = frames[0].copy()
            self._ref = frames[0].copy()
            self._last_t = int(ts[0])
            frames, ts = frames[1:], ts[1:]
            if not ts.size:
                return EventStream.empty(self.resolution)

        t_prev = np.concatenate(([self._last_t], ts[:-1]))
        dts = ts - t_prev
        delta, counts = self._integrate(frames, dts)
        self._last_t = int(ts[-1])
        return self._extract(delta, counts, t_prev, dts)

    def _integrate(
        self, frames: np.ndarray, dts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sequential part: run each frame through the photoreceptor
        low-pass, count its ON/OFF threshold crossings against the
        reference, and move the reference by the crossings.

        Returns the ``(T, H, W)`` log-luminance change against the
        reference, written over ``frames``, and the ``(T, 2, H, W)``
        ON/OFF crossing counts.
        """
        ref = self._ref
        lp = self._lp
        cutoff = self.params.photoreceptor_cutoff_hz
        if cutoff > 0:
            tau_us = 1e6 / (2.0 * np.pi * cutoff)
        # ON crossings are floor(delta / theta_on), OFF crossings
        # floor(-delta / theta_off) = floor(delta / -theta_off): one
        # division by the signed thresholds gives both.
        signed = self._thetas * np.array([1.0, -1.0])[:, None, None]
        work = np.empty_like(signed)
        counts = np.empty((frames.shape[0],) + signed.shape, dtype=np.int64)
        for i, frame in enumerate(frames):
            if cutoff > 0:
                beta = 1.0 - np.exp(-float(dts[i]) / tau_us)
                lp = lp + beta * (frame - lp)
                frame = lp
            d = np.subtract(frame, ref, out=frames[i])
            np.floor(np.divide(d, signed, out=work), out=work)
            c = counts[i]
            c[...] = work
            np.maximum(c, 0, out=c)
            # A pixel crosses ON or OFF, never both: the reference moves
            # by the integer number of thresholds crossed.
            np.multiply(c, signed, out=work)
            ref += work[0]
            ref += work[1]
        self._lp = lp
        return frames, counts

    def _extract(
        self, delta: np.ndarray, counts: np.ndarray, t_prev: np.ndarray, dts: np.ndarray
    ) -> EventStream:
        """Turn a block's crossing counts into its time-sorted events.

        ``flatnonzero`` over the ``(T, 2, H, W)`` counts yields, in C
        order, frame, then ON before OFF, then (y, x): each frame's
        events in the order a per-frame step lists them.  Frame ``i``'s events lie in
        ``(t_prev[i], t_prev[i] + dts[i]]``, so one stable sort of the
        block equals a stable sort per frame.
        """
        firing = np.flatnonzero(counts)
        if not firing.size:
            return EventStream.empty(self.resolution)
        n = counts.reshape(-1)[firing]
        f, pol, y, x = np.unravel_index(np.repeat(firing, n), counts.shape)
        # k-th crossing (1-based) of each firing pixel in each frame.
        ends = np.cumsum(n)
        k = np.arange(1, int(ends[-1]) + 1) - np.repeat(ends - n, n)
        # Fraction of the sampling interval at which crossing k occurs,
        # assuming linear log-luminance change across the interval.
        frac = (k * self._thetas[pol, y, x]) / np.abs(delta[f, y, x])
        frac = np.clip(frac, 0.0, 1.0)
        t = t_prev[f] + np.maximum(1, np.round(frac * dts[f])).astype(np.int64)
        order = np.argsort(t, kind="stable")
        t, x, y, pol = t[order], x[order], y[order], pol[order]
        p = (1 - 2 * pol).astype(np.int8)  # ON (index 0) -> +1, OFF -> -1
        if self.params.refractory_us > 0:
            keep = self._apply_refractory(t, x, y)
            t, x, y, p = t[keep], x[keep], y[keep], p[keep]
        return EventStream.from_arrays(t, x, y, p, self.resolution)

    def _apply_refractory(
        self, t: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Keep-mask of the per-pixel refractory period.

        An event is kept iff it comes more than ``refractory_us`` after
        its pixel's last kept one — the rule of
        :func:`~repro.events.ops.refractory_filter`.  Every pixel still
        blind at the block's first event enters the grouped selection
        as a kept event at its last kept time, ahead of the block, so
        the deadlines in ``_refractory_until`` carry across calls.
        """
        refr = self.params.refractory_us
        until = self._refractory_until.reshape(-1)  # a view: (y, x) -> y * W + x
        pix = y * self.resolution.width + x
        blind = np.flatnonzero(until >= t[0])
        last = until[blind] - refr  # each at or before t[0]
        order = np.argsort(last, kind="stable")
        keep = _grouped_refractory_keep(
            np.concatenate((blind[order], pix)), np.concatenate((last[order], t)), refr
        )
        if keep is None:
            # (H * W) x (block time span + 2 * refractory_us) reaches 2**62.
            raise OverflowError("refractory period or block time span too long")
        keep = keep[blind.size :]
        np.maximum.at(until, pix[keep], t[keep] + refr)
        return keep
