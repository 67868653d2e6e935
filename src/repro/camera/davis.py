"""Dual active-and-event pixel sensor (DAVIS-class, Section II).

"The dual active and event pixel paradigm [13], [16] (i.e., allowing
events and image data to be recorded simultaneously) has recently
gained momentum again."

:class:`DualPixelCamera` wraps the DVS pixel array and additionally
samples conventional intensity frames (global shutter) at a fixed frame
rate from the same optical stimulus — the DAVIS operating mode.  The
synchronised output enables hybrid processing (e.g. frame-based
initialisation with event-based tracking) and provides ground-truth
imagery for the event stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..events.stream import EventStream, Resolution
from .sensor import CameraConfig, EventCamera, RecordingStats
from .video import Stimulus

__all__ = ["DualPixelRecording", "DualPixelCamera"]


@dataclass(frozen=True)
class DualPixelRecording:
    """Synchronised output of one dual-pixel recording.

    Attributes:
        events: the asynchronous event stream.
        frames: ``(N, H, W)`` intensity frames (linear luminance).
        frame_times_us: timestamp of each frame's exposure.
        stats: event-channel recording statistics.
    """

    events: EventStream
    frames: np.ndarray
    frame_times_us: np.ndarray
    stats: RecordingStats

    @property
    def num_frames(self) -> int:
        """Number of intensity frames captured."""
        return self.frames.shape[0]

    def frame_nearest(self, t_us: int) -> np.ndarray:
        """The intensity frame whose exposure is closest to ``t_us``."""
        if self.num_frames == 0:
            raise ValueError("recording holds no frames")
        idx = int(np.argmin(np.abs(self.frame_times_us - t_us)))
        return self.frames[idx]

    def events_between_frames(self, index: int) -> EventStream:
        """Events between frame ``index`` and frame ``index + 1``."""
        if not 0 <= index < self.num_frames - 1:
            raise ValueError(f"frame interval {index} out of range")
        return self.events.time_window(
            int(self.frame_times_us[index]), int(self.frame_times_us[index + 1])
        )


class DualPixelCamera:
    """A DAVIS-style camera producing events and intensity frames together.

    Args:
        resolution: pixel array size.
        config: event-channel configuration.
        frame_period_us: intensity frame interval (global shutter).
    """

    def __init__(
        self,
        resolution: Resolution,
        config: CameraConfig = CameraConfig(),
        frame_period_us: int = 10_000,
    ) -> None:
        if frame_period_us <= 0:
            raise ValueError("frame_period_us must be positive")
        self.resolution = resolution
        self.frame_period_us = frame_period_us
        self._event_camera = EventCamera(resolution, config)

    def record(self, stimulus: Stimulus, duration_us: int) -> DualPixelRecording:
        """Record both modalities from the same stimulus.

        Args:
            stimulus: the scene (must match the camera resolution).
            duration_us: recording length.
        """
        if stimulus.resolution != self.resolution:
            raise ValueError(
                f"stimulus resolution {stimulus.resolution} != camera {self.resolution}"
            )
        events, stats = self._event_camera.record(stimulus, duration_us)
        frame_times = np.arange(0, duration_us + 1, self.frame_period_us, dtype=np.int64)
        frames = stimulus.frames(frame_times)
        return DualPixelRecording(events, frames, frame_times, stats)
