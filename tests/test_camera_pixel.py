"""Tests for the DVS pixel model and end-to-end camera."""

import numpy as np
import pytest

from repro.camera import (
    CameraConfig,
    EventCamera,
    MovingBar,
    NoiseParams,
    PixelArray,
    PixelParams,
    ReadoutParams,
    TexturePan,
)
from repro.events import EventStream, Resolution

# A NumPy cast or invalid-value warning in the simulator is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RES = Resolution(16, 12)


def uniform_log(value, res=RES):
    return np.full((res.height, res.width), value, dtype=np.float64)


class TestPixelArray:
    def test_first_step_emits_nothing(self):
        arr = PixelArray(RES)
        ev = arr.step(uniform_log(0.0), 0)
        assert len(ev) == 0

    def test_on_event_on_rise(self):
        arr = PixelArray(RES, PixelParams(threshold_on=0.2, threshold_off=0.2))
        arr.step(uniform_log(0.0), 0)
        ev = arr.step(uniform_log(0.25), 1000)
        assert len(ev) == RES.num_pixels
        assert np.all(ev.p == 1)

    def test_off_event_on_fall(self):
        arr = PixelArray(RES, PixelParams(threshold_on=0.2, threshold_off=0.2))
        arr.step(uniform_log(1.0), 0)
        ev = arr.step(uniform_log(0.75), 1000)
        assert np.all(ev.p == -1)

    def test_subthreshold_silent(self):
        arr = PixelArray(RES, PixelParams(threshold_on=0.2, threshold_off=0.2))
        arr.step(uniform_log(0.0), 0)
        ev = arr.step(uniform_log(0.1), 1000)
        assert len(ev) == 0

    def test_multiple_crossings_multiple_events(self):
        arr = PixelArray(Resolution(1, 1), PixelParams(threshold_on=0.2, threshold_off=0.2))
        arr.step(np.zeros((1, 1)), 0)
        ev = arr.step(np.full((1, 1), 0.65), 1000)
        assert len(ev) == 3  # 0.65 / 0.2 = 3 full crossings
        assert np.all(np.diff(ev.t) >= 0)

    def test_timestamp_interpolation(self):
        arr = PixelArray(Resolution(1, 1), PixelParams(threshold_on=0.2, threshold_off=0.2))
        arr.step(np.zeros((1, 1)), 0)
        ev = arr.step(np.full((1, 1), 0.4), 1000)
        # Crossings at 0.2 and 0.4 of linear ramp => t = 500, 1000.
        assert ev.t.tolist() == [500, 1000]

    def test_reference_memory(self):
        arr = PixelArray(Resolution(1, 1), PixelParams(threshold_on=0.2, threshold_off=0.2))
        arr.step(np.zeros((1, 1)), 0)
        arr.step(np.full((1, 1), 0.25), 1000)  # one ON, reference -> 0.2
        # Rising to 0.35 is only +0.15 above the new reference: silent.
        ev = arr.step(np.full((1, 1), 0.35), 2000)
        assert len(ev) == 0
        # But reaching 0.45 crosses again.
        ev = arr.step(np.full((1, 1), 0.45), 3000)
        assert len(ev) == 1

    def test_refractory_suppresses(self):
        params = PixelParams(threshold_on=0.1, threshold_off=0.1, refractory_us=10_000)
        arr = PixelArray(Resolution(1, 1), params)
        arr.step(np.zeros((1, 1)), 0)
        ev = arr.step(np.full((1, 1), 0.55), 1000)  # 5 crossings within 1 ms
        assert len(ev) == 1  # refractory blocks the rest

    def test_threshold_mismatch_spread(self):
        params = PixelParams(threshold_mismatch_sigma=0.3)
        arr = PixelArray(RES, params, rng=np.random.default_rng(1))
        assert arr.threshold_on_map.std() > 0
        assert np.all(arr.threshold_on_map > 0)

    def test_mismatch_changes_counts(self):
        clean = PixelArray(RES, PixelParams())
        noisy = PixelArray(
            RES, PixelParams(threshold_mismatch_sigma=0.5), rng=np.random.default_rng(7)
        )
        clean.step(uniform_log(0.0), 0)
        noisy.step(uniform_log(0.0), 0)
        ev_clean = clean.step(uniform_log(0.3), 1000)
        ev_noisy = noisy.step(uniform_log(0.3), 1000)
        assert len(ev_noisy) != len(ev_clean)

    def test_time_must_increase(self):
        arr = PixelArray(RES)
        arr.step(uniform_log(0.0), 0)
        with pytest.raises(ValueError, match="increase"):
            arr.step(uniform_log(0.1), 0)

    def test_shape_validation(self):
        arr = PixelArray(RES)
        with pytest.raises(ValueError, match="shape"):
            arr.step(np.zeros((3, 3)), 0)

    def test_reset(self):
        arr = PixelArray(Resolution(1, 1))
        arr.step(np.zeros((1, 1)), 0)
        arr.reset()
        ev = arr.step(np.full((1, 1), 10.0), 1000)  # first step after reset
        assert len(ev) == 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PixelParams(threshold_on=0)
        with pytest.raises(ValueError):
            PixelParams(threshold_mismatch_sigma=-1)
        with pytest.raises(ValueError):
            PixelParams(refractory_us=-5)


class TestEventCamera:
    def test_moving_bar_produces_on_and_off(self):
        cam = EventCamera(RES, CameraConfig(sample_period_us=500))
        bar = MovingBar(RES, speed_px_per_s=2000, bar_width=3, x0=0)
        events, stats = cam.record(bar, 100_000)
        assert len(events) > 50
        on, off = events.polarity_counts()
        assert on > 0 and off > 0
        assert stats.num_signal_events == len(events)

    def test_static_scene_is_silent(self):
        cam = EventCamera(RES, CameraConfig())
        bar = MovingBar(RES, speed_px_per_s=0.0, bar_width=3, x0=8)
        events, _ = cam.record(bar, 50_000)
        assert len(events) == 0

    def test_noise_adds_events(self):
        noise = NoiseParams(ba_rate_hz=100.0)
        cam = EventCamera(RES, CameraConfig(noise=noise, seed=3))
        bar = MovingBar(RES, speed_px_per_s=0.0, x0=8)  # static: only noise
        events, stats = cam.record(bar, 100_000)
        assert stats.num_noise_events == len(events)
        assert len(events) > 0

    def test_readout_can_drop(self):
        # Tiny throughput forces drops on a dense stimulus.
        cfg = CameraConfig(
            readout=ReadoutParams(throughput_eps=1e3, fifo_depth=4),
            sample_period_us=500,
        )
        cam = EventCamera(RES, cfg)
        pan = TexturePan(RES, vx_px_per_s=2000)
        _, stats = cam.record(pan, 100_000)
        assert stats.num_dropped > 0

    def test_resolution_mismatch(self):
        cam = EventCamera(RES)
        with pytest.raises(ValueError, match="resolution"):
            cam.record(MovingBar(Resolution(8, 8)), 1000)

    def test_duration_validation(self):
        cam = EventCamera(RES)
        with pytest.raises(ValueError):
            cam.record(MovingBar(RES), 0)

    def test_deterministic_given_seed(self):
        bar = MovingBar(RES, speed_px_per_s=1500, x0=0)
        e1, _ = EventCamera(RES, CameraConfig(seed=5)).record(bar, 50_000)
        e2, _ = EventCamera(RES, CameraConfig(seed=5)).record(bar, 50_000)
        assert e1 == e2

    def test_events_sorted_and_in_bounds(self):
        cam = EventCamera(RES, CameraConfig(sample_period_us=250))
        pan = TexturePan(RES, vx_px_per_s=1000)
        events, _ = cam.record(pan, 50_000)
        assert np.all(np.diff(events.t) >= 0)
        assert events.x.max() < RES.width
        assert events.y.max() < RES.height

    def test_faster_motion_more_events(self):
        slow = MovingBar(RES, speed_px_per_s=200, x0=0)
        fast = MovingBar(RES, speed_px_per_s=2000, x0=0)
        cam = EventCamera(RES, CameraConfig(sample_period_us=250))
        n_slow = len(cam.record(slow, 50_000)[0])
        n_fast = len(cam.record(fast, 50_000)[0])
        assert n_fast > n_slow


class TestPhotoreceptorBandwidth:
    def _count_events(self, cutoff_hz, speed=2000.0):
        params = PixelParams(photoreceptor_cutoff_hz=cutoff_hz)
        cam = EventCamera(RES, CameraConfig(pixel=params, sample_period_us=250))
        bar = MovingBar(RES, speed_px_per_s=speed, bar_width=3.0, x0=0.0)
        events, _ = cam.record(bar, 40_000)
        return len(events)

    def test_high_cutoff_matches_ideal(self):
        ideal = self._count_events(0.0)
        wideband = self._count_events(100_000.0)
        assert abs(wideband - ideal) < 0.1 * ideal

    def test_low_cutoff_attenuates_fast_stimuli(self):
        # A 50 Hz front-end cannot follow a bar crossing a pixel in ~1 ms.
        ideal = self._count_events(0.0, speed=3000.0)
        slow_frontend = self._count_events(50.0, speed=3000.0)
        assert slow_frontend < 0.7 * ideal

    def test_bandwidth_hurts_fast_more_than_slow(self):
        loss_fast = 1 - self._count_events(100.0, speed=3000.0) / max(
            self._count_events(0.0, speed=3000.0), 1
        )
        loss_slow = 1 - self._count_events(100.0, speed=300.0) / max(
            self._count_events(0.0, speed=300.0), 1
        )
        assert loss_fast > loss_slow

    def test_validation(self):
        with pytest.raises(ValueError):
            PixelParams(photoreceptor_cutoff_hz=-1.0)
