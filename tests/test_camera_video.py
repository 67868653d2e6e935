"""Tests for repro.camera.video stimuli."""

import numpy as np
import pytest

from repro.camera import (
    CompositeStimulus,
    DriftingGrating,
    MovingBar,
    MovingBox,
    MovingDisk,
    RotatingBar,
    TexturePan,
)
from repro.camera.video import BACKGROUND, FOREGROUND
from repro.events import Resolution

# A NumPy cast or invalid-value warning in the simulator is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RES = Resolution(32, 24)

ALL_STIMULI = [
    MovingBar(RES, speed_px_per_s=1000, bar_width=3, x0=5),
    MovingBox(RES, side=6, x0=8, y0=8, vx_px_per_s=500),
    MovingDisk(RES, radius=4, x0=10, y0=10, vx_px_per_s=500),
    DriftingGrating(RES, spatial_period_px=8, temporal_freq_hz=20),
    RotatingBar(RES),
    TexturePan(RES, vx_px_per_s=300, seed=3),
]


@pytest.mark.parametrize("stim", ALL_STIMULI, ids=lambda s: type(s).__name__)
class TestStimulusContract:
    def test_frame_shape(self, stim):
        f = stim.frame(0.0)
        assert f.shape == (RES.height, RES.width)

    def test_frame_positive(self, stim):
        for t in (0.0, 12_345.0, 500_000.0):
            assert np.all(stim.frame(t) > 0)

    def test_frame_bounded(self, stim):
        f = stim.frame(10_000.0)
        assert f.min() >= BACKGROUND - 1e-9
        assert f.max() <= FOREGROUND + 1e-9

    def test_deterministic(self, stim):
        assert np.array_equal(stim.frame(777.0), stim.frame(777.0))

    def test_log_frame_consistent(self, stim):
        assert np.allclose(stim.log_frame(100.0), np.log(stim.frame(100.0)))

    def test_motion_changes_frame(self, stim):
        # 23.7 ms is not a multiple of any stimulus period used here.
        f0 = stim.frame(0.0)
        f1 = stim.frame(23_700.0)
        assert not np.allclose(f0, f1)


class TestSpecificStimuli:
    def test_moving_bar_position(self):
        bar = MovingBar(RES, speed_px_per_s=1000, bar_width=2, x0=0)
        # After 10_000 us at 1000 px/s the bar centre is at x = 10.
        f = bar.frame(10_000)
        bright_cols = np.nonzero(f.max(axis=0) > 0.9)[0]
        assert 10 in bright_cols

    def test_bar_invalid_width(self):
        with pytest.raises(ValueError):
            MovingBar(RES, bar_width=0)

    def test_box_moves_diagonally(self):
        box = MovingBox(RES, side=4, x0=4, y0=4, vx_px_per_s=1000, vy_px_per_s=1000)
        f = box.frame(8_000)  # centre should be near (12, 12)
        yy, xx = np.unravel_index(np.argmax(f), f.shape)
        assert abs(xx - 12) <= 2 and abs(yy - 12) <= 2

    def test_disk_radius_scaling(self):
        small = MovingDisk(RES, radius=2, x0=16, y0=12, vx_px_per_s=0)
        big = MovingDisk(RES, radius=6, x0=16, y0=12, vx_px_per_s=0)
        assert big.frame(0).sum() > small.frame(0).sum()

    def test_grating_period(self):
        g = DriftingGrating(RES, spatial_period_px=8, temporal_freq_hz=0)
        f = g.frame(0)
        # One row should repeat with period 8 pixels.
        row = f[0]
        assert np.allclose(row[:8], row[8:16], atol=1e-6)

    def test_grating_validation(self):
        with pytest.raises(ValueError):
            DriftingGrating(RES, spatial_period_px=0)
        with pytest.raises(ValueError):
            DriftingGrating(RES, contrast=0)

    def test_rotating_bar_period(self):
        rb = RotatingBar(RES, angular_speed_rad_per_s=2 * np.pi)  # 1 rev/s
        assert np.allclose(rb.frame(0), rb.frame(1_000_000), atol=1e-6)

    def test_rotation_direction_matters(self):
        cw = RotatingBar(RES, angular_speed_rad_per_s=2 * np.pi)
        ccw = RotatingBar(RES, angular_speed_rad_per_s=-2 * np.pi)
        assert not np.allclose(cw.frame(100_000), ccw.frame(100_000))

    def test_texture_pan_seed(self):
        a = TexturePan(RES, seed=1)
        b = TexturePan(RES, seed=1)
        c = TexturePan(RES, seed=2)
        assert np.array_equal(a.frame(0), b.frame(0))
        assert not np.array_equal(a.frame(0), c.frame(0))

    def test_texture_validation(self):
        with pytest.raises(ValueError):
            TexturePan(RES, texture_scale_px=0)

    def test_composite_max(self):
        bar = MovingBar(RES, x0=5)
        disk = MovingDisk(RES, x0=20, y0=12, vx_px_per_s=0)
        comp = CompositeStimulus([bar, disk])
        f = comp.frame(0)
        assert np.allclose(f, np.maximum(bar.frame(0), disk.frame(0)))

    def test_composite_validation(self):
        with pytest.raises(ValueError):
            CompositeStimulus([])
        with pytest.raises(ValueError):
            CompositeStimulus([MovingBar(RES), MovingBar(Resolution(8, 8))])
