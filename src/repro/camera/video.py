"""Synthetic stimulus videos that drive the event-camera simulator.

The paper's substrate is a physical event camera looking at moving
scenes.  We substitute deterministic, analytically-defined luminance
stimuli: a :class:`Stimulus` maps a time in microseconds to a 2-D
luminance frame (arbitrary linear units, strictly positive).  The DVS
pixel model (:mod:`repro.camera.pixel`) then converts brightness changes
into events, exactly as a sensor would.

All stimuli are pure functions of time (no hidden state), so any frame
can be sampled at any instant — which is what lets the simulator use
adaptive sub-microsecond timestamp interpolation.  The simulator samples
a whole block of times at once through :meth:`Stimulus.frames`;
:class:`MovingBar` and :class:`RotatingBar`, which synthesise the
gesture datasets, compute that stack by broadcasting over time.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..events.stream import Resolution

__all__ = [
    "Stimulus",
    "MovingBar",
    "MovingBox",
    "MovingDisk",
    "ExpandingDisk",
    "DriftingGrating",
    "RotatingBar",
    "TexturePan",
    "CompositeStimulus",
]

#: Luminance of the dark background (must stay positive for the log front-end).
BACKGROUND = 0.2
#: Luminance of bright foreground features.
FOREGROUND = 1.0
#: Anti-aliasing softness (pixels) for hard-edged shapes.
EDGE_SOFTNESS = 0.75


def _soft_step(d: np.ndarray, softness: float = EDGE_SOFTNESS) -> np.ndarray:
    """Smooth 0→1 transition of signed distance ``d`` over ``softness`` pixels.

    Soft edges make threshold crossings happen at slightly different times
    in adjacent pixels, which is what produces the realistic staggered
    event timing of a physical sensor.  Computed in place: overwrites and
    returns ``d``.
    """
    d /= 2.0 * softness
    d += 0.5
    return np.clip(d, 0.0, 1.0, out=d)


class Stimulus(abc.ABC):
    """A time-parameterised luminance video.

    Attributes:
        resolution: frame size in pixels.
    """

    def __init__(self, resolution: Resolution) -> None:
        self.resolution = resolution
        ys, xs = np.mgrid[0 : resolution.height, 0 : resolution.width]
        self._xs = xs.astype(np.float64)
        self._ys = ys.astype(np.float64)

    @abc.abstractmethod
    def frame(self, t_us: float) -> np.ndarray:
        """Luminance frame at time ``t_us`` (microseconds), shape ``(H, W)``, > 0."""

    def frames(self, ts_us: Sequence[float] | np.ndarray) -> np.ndarray:
        """Luminance frames at each time of ``ts_us``, shape ``(T, H, W)``.

        The simulator reads a stimulus only through this method.  The
        default stacks :meth:`frame`; a subclass may override it with a
        vectorised version, which must be byte-equal to that stack.
        """
        ts = np.asarray(ts_us, dtype=np.float64).tolist()
        return np.stack([self.frame(t) for t in ts])

    def log_frame(self, t_us: float) -> np.ndarray:
        """Natural-log luminance at ``t_us`` — the quantity DVS pixels sense."""
        return np.log(self.frames([t_us])[0])

    def _blend(self, mask: np.ndarray) -> np.ndarray:
        """Blend foreground over background by a [0, 1] coverage mask.

        Computed in place: overwrites and returns ``mask``.
        """
        mask *= FOREGROUND - BACKGROUND
        mask += BACKGROUND
        return mask


@dataclass
class _LinearMotion:
    """Straight-line motion state shared by the moving-shape stimuli."""

    x0: float
    y0: float
    vx_px_per_s: float
    vy_px_per_s: float

    def position(self, t_us: float) -> tuple[float, float]:
        t_s = t_us * 1e-6
        return self.x0 + self.vx_px_per_s * t_s, self.y0 + self.vy_px_per_s * t_s


class MovingBar(Stimulus):
    """A vertical bright bar translating horizontally at constant speed.

    The canonical DVS test stimulus: it produces a clean ON edge at the
    leading side and an OFF edge at the trailing side.

    Args:
        resolution: frame size.
        speed_px_per_s: horizontal speed (may be negative).
        bar_width: bar thickness in pixels.
        x0: bar-centre x position at t = 0.
    """

    def __init__(
        self,
        resolution: Resolution,
        speed_px_per_s: float = 1000.0,
        bar_width: float = 4.0,
        x0: float = 0.0,
    ) -> None:
        super().__init__(resolution)
        if bar_width <= 0:
            raise ValueError("bar_width must be positive")
        self.speed = speed_px_per_s
        self.bar_width = bar_width
        self.x0 = x0

    def frame(self, t_us: float) -> np.ndarray:
        return self.frames([t_us])[0]

    def frames(self, ts_us: Sequence[float] | np.ndarray) -> np.ndarray:
        t_us = np.asarray(ts_us, dtype=np.float64)[:, None, None]
        cx = self.x0 + self.speed * t_us * 1e-6
        d = self.bar_width / 2.0 - np.abs(self._xs - cx)
        return self._blend(_soft_step(d))


class MovingBox(Stimulus):
    """A bright axis-aligned square translating along a straight line."""

    def __init__(
        self,
        resolution: Resolution,
        side: float = 8.0,
        x0: float = 0.0,
        y0: float = 0.0,
        vx_px_per_s: float = 800.0,
        vy_px_per_s: float = 0.0,
    ) -> None:
        super().__init__(resolution)
        if side <= 0:
            raise ValueError("side must be positive")
        self.side = side
        self.motion = _LinearMotion(x0, y0, vx_px_per_s, vy_px_per_s)

    def frame(self, t_us: float) -> np.ndarray:
        cx, cy = self.motion.position(t_us)
        half = self.side / 2.0
        d = np.minimum(half - np.abs(self._xs - cx), half - np.abs(self._ys - cy))
        return self._blend(_soft_step(d))


class MovingDisk(Stimulus):
    """A bright disk translating along a straight line."""

    def __init__(
        self,
        resolution: Resolution,
        radius: float = 5.0,
        x0: float = 0.0,
        y0: float = 0.0,
        vx_px_per_s: float = 800.0,
        vy_px_per_s: float = 0.0,
    ) -> None:
        super().__init__(resolution)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = radius
        self.motion = _LinearMotion(x0, y0, vx_px_per_s, vy_px_per_s)

    def frame(self, t_us: float) -> np.ndarray:
        cx, cy = self.motion.position(t_us)
        r = np.hypot(self._xs - cx, self._ys - cy)
        return self._blend(_soft_step(self.radius - r))


class ExpandingDisk(Stimulus):
    """A disk whose radius grows (looming) or shrinks (receding) linearly.

    Looming stimuli are the classic collision-avoidance test case for
    neuromorphic vision: approach produces a characteristic expanding
    ring of ON events whose rate accelerates with time-to-contact.

    Args:
        resolution: frame size.
        cx, cy: disk centre (defaults to the frame centre).
        r0: radius at t = 0.
        growth_px_per_s: radial growth rate (negative = receding).
        r_min: radius floor for receding stimuli.
    """

    def __init__(
        self,
        resolution: Resolution,
        cx: float | None = None,
        cy: float | None = None,
        r0: float = 2.0,
        growth_px_per_s: float = 100.0,
        r_min: float = 0.5,
    ) -> None:
        super().__init__(resolution)
        if r0 <= 0 or r_min <= 0:
            raise ValueError("radii must be positive")
        self.cx = (resolution.width - 1) / 2.0 if cx is None else cx
        self.cy = (resolution.height - 1) / 2.0 if cy is None else cy
        self.r0 = r0
        self.growth = growth_px_per_s
        self.r_min = r_min

    def radius_at(self, t_us: float) -> float:
        """Disk radius at time ``t_us``."""
        return max(self.r_min, self.r0 + self.growth * t_us * 1e-6)

    def frame(self, t_us: float) -> np.ndarray:
        r = np.hypot(self._xs - self.cx, self._ys - self.cy)
        return self._blend(_soft_step(self.radius_at(t_us) - r))


class DriftingGrating(Stimulus):
    """A sinusoidal luminance grating drifting at constant temporal frequency.

    Produces spatially dense, temporally smooth activity — the high-rate
    regime used for readout-saturation experiments.

    Args:
        resolution: frame size.
        spatial_period_px: wavelength of the grating in pixels.
        temporal_freq_hz: cycles per second the pattern drifts.
        orientation_deg: grating orientation (0 = vertical stripes).
        contrast: Michelson contrast in (0, 1].
    """

    def __init__(
        self,
        resolution: Resolution,
        spatial_period_px: float = 8.0,
        temporal_freq_hz: float = 50.0,
        orientation_deg: float = 0.0,
        contrast: float = 0.8,
    ) -> None:
        super().__init__(resolution)
        if spatial_period_px <= 0:
            raise ValueError("spatial_period_px must be positive")
        if not 0.0 < contrast <= 1.0:
            raise ValueError("contrast must be in (0, 1]")
        self.spatial_period = spatial_period_px
        self.temporal_freq = temporal_freq_hz
        self.contrast = contrast
        theta = math.radians(orientation_deg)
        self._proj = self._xs * math.cos(theta) + self._ys * math.sin(theta)

    def frame(self, t_us: float) -> np.ndarray:
        phase = 2.0 * math.pi * (
            self._proj / self.spatial_period - self.temporal_freq * t_us * 1e-6
        )
        mean = (FOREGROUND + BACKGROUND) / 2.0
        amp = self.contrast * (FOREGROUND - BACKGROUND) / 2.0
        return mean + amp * np.sin(phase)


class RotatingBar(Stimulus):
    """A bright bar rotating about the frame centre at constant angular speed.

    Used for gesture-like datasets: direction of rotation is a natural
    binary class that requires temporal information to resolve.
    """

    def __init__(
        self,
        resolution: Resolution,
        angular_speed_rad_per_s: float = 2.0 * math.pi,
        bar_half_length: float | None = None,
        bar_half_width: float = 1.5,
        phase0_rad: float = 0.0,
    ) -> None:
        super().__init__(resolution)
        self.omega = angular_speed_rad_per_s
        self.half_len = (
            bar_half_length
            if bar_half_length is not None
            else 0.4 * min(resolution.width, resolution.height)
        )
        self.half_width = bar_half_width
        self.phase0 = phase0_rad
        self._cx = (resolution.width - 1) / 2.0
        self._cy = (resolution.height - 1) / 2.0

    def frame(self, t_us: float) -> np.ndarray:
        return self.frames([t_us])[0]

    def frames(self, ts_us: Sequence[float] | np.ndarray) -> np.ndarray:
        # math.cos/sin per angle: np.cos over an array need not round
        # like libm, and frames must match frame-by-frame synthesis.
        ts = np.asarray(ts_us, dtype=np.float64).tolist()
        angles = [self.phase0 + self.omega * t * 1e-6 for t in ts]
        c = np.array([math.cos(a) for a in angles])[:, None, None]
        s = np.array([math.sin(a) for a in angles])[:, None, None]
        # Coordinates in the bar's rotating frame, computed in place.
        dx = self._xs - self._cx
        dy = self._ys - self._cy
        along = dx * c
        along += dy * s
        across = dy * c
        across -= dx * s
        np.subtract(self.half_len, np.abs(along, out=along), out=along)
        np.subtract(self.half_width, np.abs(across, out=across), out=across)
        return self._blend(_soft_step(np.minimum(along, across, out=along)))


class TexturePan(Stimulus):
    """A fixed random texture panned across the field of view (egomotion model).

    Every pixel sees luminance change during panning, so the event rate
    scales with the full pixel count — the regime Section II's
    high-resolution discussion (Gehrig & Scaramuzza 2022) is about.

    Args:
        resolution: frame size.
        vx_px_per_s, vy_px_per_s: pan velocity.
        texture_scale_px: correlation length of the texture in pixels.
        seed: texture RNG seed.
    """

    def __init__(
        self,
        resolution: Resolution,
        vx_px_per_s: float = 500.0,
        vy_px_per_s: float = 0.0,
        texture_scale_px: float = 4.0,
        seed: int = 0,
    ) -> None:
        super().__init__(resolution)
        if texture_scale_px <= 0:
            raise ValueError("texture_scale_px must be positive")
        self.vx = vx_px_per_s
        self.vy = vy_px_per_s
        rng = np.random.default_rng(seed)
        # Smooth periodic texture from a few random Fourier components, so
        # panning wraps seamlessly and frames stay pure functions of t.
        self._components = []
        for _ in range(8):
            fx = rng.integers(1, max(2, int(resolution.width / texture_scale_px)))
            fy = rng.integers(1, max(2, int(resolution.height / texture_scale_px)))
            phase = rng.uniform(0, 2 * math.pi)
            amp = rng.uniform(0.5, 1.0)
            self._components.append((int(fx), int(fy), float(phase), float(amp)))
        self._norm = sum(a for *_rest, a in self._components)

    def frame(self, t_us: float) -> np.ndarray:
        t_s = t_us * 1e-6
        u = (self._xs + self.vx * t_s) / self.resolution.width
        v = (self._ys + self.vy * t_s) / self.resolution.height
        acc = np.zeros_like(u)
        for fx, fy, phase, amp in self._components:
            acc += amp * np.sin(2 * math.pi * (fx * u + fy * v) + phase)
        mask = 0.5 + 0.5 * acc / self._norm
        return self._blend(mask)


@dataclass
class CompositeStimulus(Stimulus):
    """Pixel-wise maximum of several stimuli sharing one resolution."""

    parts: list[Stimulus] = field(default_factory=list)

    def __init__(self, parts: list[Stimulus]) -> None:
        if not parts:
            raise ValueError("need at least one stimulus")
        res = parts[0].resolution
        for p in parts[1:]:
            if p.resolution != res:
                raise ValueError("all stimuli must share one resolution")
        super().__init__(res)
        self.parts = list(parts)

    def frame(self, t_us: float) -> np.ndarray:
        out = self.parts[0].frame(t_us)
        for p in self.parts[1:]:
            np.maximum(out, p.frame(t_us), out=out)
        return out
