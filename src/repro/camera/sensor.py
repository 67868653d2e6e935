"""The end-to-end event-camera simulator.

Chains a :class:`~repro.camera.video.Stimulus` through the DVS pixel
array, noise injection and the throughput-limited readout, producing the
:class:`~repro.events.stream.EventStream` that every downstream paradigm
consumes.  This is the substitute for the physical sensors surveyed in
Section II of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..events.stream import EventStream, Resolution, concatenate
from .noise import NoiseParams, add_noise
from .pixel import PixelArray, PixelParams
from .readout import ReadoutParams, ReadoutResult, simulate_readout
from .video import Stimulus

__all__ = ["CameraConfig", "EventCamera", "RecordingStats"]

#: Bytes of float64 log luminance that :meth:`EventCamera.record` hands
#: the pixel array at once: a block holds ``BLOCK_BYTES // (8 * H * W)``
#: frames, so the simulator's working set is a fixed multiple of this
#: whatever the recording's duration.
BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class CameraConfig:
    """Full sensor configuration.

    Attributes:
        pixel: DVS pixel electrical parameters.
        noise: background-activity / hot-pixel noise; None disables noise.
        readout: readout throughput model; None gives an ideal readout.
        sample_period_us: stimulus sampling period.  Event timestamps are
            interpolated inside each period, so this bounds model fidelity
            (how linear the log-luminance is across one period), not
            timestamp granularity.
        seed: RNG seed for mismatch and noise draws.
    """

    pixel: PixelParams = field(default_factory=PixelParams)
    noise: NoiseParams | None = None
    readout: ReadoutParams | None = None
    sample_period_us: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_period_us <= 0:
            raise ValueError("sample_period_us must be positive")


@dataclass(frozen=True)
class RecordingStats:
    """Bookkeeping from one simulated recording.

    Attributes:
        num_signal_events: events generated by the pixel array.
        num_noise_events: noise events injected.
        num_dropped: events lost in the readout.
        readout_mean_latency_us: mean readout queueing latency (0 when
            the readout model is disabled).
    """

    num_signal_events: int
    num_noise_events: int
    num_dropped: int
    readout_mean_latency_us: float


class EventCamera:
    """Simulated event camera.

    Args:
        resolution: pixel array size.
        config: camera configuration.

    Example:
        >>> from repro.camera import EventCamera, CameraConfig, MovingBar
        >>> from repro.events import Resolution
        >>> res = Resolution(32, 32)
        >>> cam = EventCamera(res, CameraConfig())
        >>> events, stats = cam.record(MovingBar(res, speed_px_per_s=2000), 50_000)
        >>> len(events) > 0
        True
    """

    def __init__(self, resolution: Resolution, config: CameraConfig = CameraConfig()) -> None:
        self.resolution = resolution
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._pixels = PixelArray(resolution, config.pixel, rng=self._rng)

    def record(
        self, stimulus: Stimulus, duration_us: int, t_start: int = 0
    ) -> tuple[EventStream, RecordingStats]:
        """Record ``stimulus`` for ``duration_us`` microseconds.

        The pixel array is reset at the start of each recording (the
        first sample initialises references and emits nothing).  Samples
        are taken every ``sample_period_us`` from ``t_start`` through
        ``t_start + duration_us`` and simulated in blocks of
        :data:`BLOCK_BYTES`.

        Args:
            stimulus: the scene; must match the camera resolution.
            duration_us: recording length.
            t_start: timestamp of the first sample.

        Returns:
            The recorded event stream and recording statistics.

        Raises:
            ValueError: on a resolution mismatch, a non-positive duration,
                or a stimulus frame that is not positive and finite.
        """
        if stimulus.resolution != self.resolution:
            raise ValueError(
                f"stimulus resolution {stimulus.resolution} != camera {self.resolution}"
            )
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")

        self._pixels.reset()
        period = self.config.sample_period_us
        block_us = max(1, BLOCK_BYTES // (8 * self.resolution.num_pixels)) * period
        chunks: list[EventStream] = []
        end = t_start + duration_us
        for t0 in range(t_start, end + 1, block_us):
            ts = np.arange(t0, min(t0 + block_us, end + 1), period, dtype=np.int64)
            # Non-positive luminance is reported by the pixel array's
            # non-finite check, naming the pixel and time.
            with np.errstate(divide="ignore", invalid="ignore"):
                log_frames = np.log(stimulus.frames(ts))
            chunk = self._pixels._simulate(log_frames, ts)
            if len(chunk):
                chunks.append(chunk)

        signal = (
            concatenate(chunks) if chunks else EventStream.empty(self.resolution)
        )
        num_signal = len(signal)

        num_noise = 0
        if self.config.noise is not None:
            noisy = add_noise(signal, self.config.noise, self._rng, duration_us=duration_us)
            num_noise = len(noisy) - num_signal
            signal = noisy

        num_dropped = 0
        latency = 0.0
        if self.config.readout is not None:
            result: ReadoutResult = simulate_readout(signal, self.config.readout)
            signal = result.stream
            num_dropped = result.num_dropped
            latency = result.mean_latency_us

        stats = RecordingStats(
            num_signal_events=num_signal,
            num_noise_events=num_noise,
            num_dropped=num_dropped,
            readout_mean_latency_us=latency,
        )
        return signal, stats
