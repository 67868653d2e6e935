"""Tests for noise injection, readout and mitigation strategies."""

import numpy as np
import pytest

from repro.camera import (
    Fovea,
    NoiseParams,
    ReadoutParams,
    add_noise,
    background_activity,
    centre_surround_suppression,
    foveate,
    hot_pixel_events,
    rate_limiter,
    simulate_readout,
)
from repro.events import EventStream, Resolution

# A NumPy cast or invalid-value warning in the simulator is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RES = Resolution(32, 32)


def make_stream(n=100, width=32, height=32, max_dt=100, seed=0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(1, max_dt, n))
    return EventStream.from_arrays(
        t,
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
        Resolution(width, height),
    )


class TestNoise:
    def test_ba_rate_scaling(self):
        rng = np.random.default_rng(0)
        p = NoiseParams(ba_rate_hz=10.0)
        ev = background_activity(RES, 1_000_000, p, rng)
        expected = 10.0 * RES.num_pixels  # 1 second
        assert 0.8 * expected < len(ev) < 1.2 * expected

    def test_ba_polarity_bias(self):
        rng = np.random.default_rng(0)
        p = NoiseParams(ba_rate_hz=50.0, ba_on_fraction=0.9)
        ev = background_activity(RES, 1_000_000, p, rng)
        on, off = ev.polarity_counts()
        assert on > 5 * off

    def test_ba_zero_rate(self):
        rng = np.random.default_rng(0)
        ev = background_activity(RES, 100_000, NoiseParams(ba_rate_hz=0.0), rng)
        assert len(ev) == 0

    def test_hot_pixels_concentrated(self):
        rng = np.random.default_rng(1)
        p = NoiseParams(hot_pixel_fraction=0.01, hot_pixel_rate_hz=1000.0)
        ev = hot_pixel_events(RES, 1_000_000, p, rng)
        assert len(ev) > 0
        # All events come from ~1% of pixels.
        unique_pixels = np.unique(ev.pixel_index()).size
        assert unique_pixels <= int(0.01 * RES.num_pixels) + 1

    def test_hot_pixel_rate(self):
        rng = np.random.default_rng(1)
        p = NoiseParams(hot_pixel_fraction=0.01, hot_pixel_rate_hz=500.0)
        ev = hot_pixel_events(RES, 1_000_000, p, rng)
        num_hot = int(round(0.01 * RES.num_pixels))
        assert len(ev) == pytest.approx(num_hot * 500, rel=0.1)

    def test_add_noise_merges_sorted(self):
        s = make_stream(200)
        rng = np.random.default_rng(0)
        noisy = add_noise(s, NoiseParams(ba_rate_hz=20.0), rng)
        assert len(noisy) >= len(s)
        assert np.all(np.diff(noisy.t) >= 0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(ba_rate_hz=-1)
        with pytest.raises(ValueError):
            NoiseParams(ba_on_fraction=2)
        with pytest.raises(ValueError):
            NoiseParams(hot_pixel_fraction=-0.5)


class TestReadout:
    def test_high_capacity_passthrough(self):
        s = make_stream(100)
        r = simulate_readout(s, ReadoutParams(throughput_eps=1e9))
        assert r.num_dropped == 0
        assert len(r.stream) == 100
        assert r.mean_latency_us < 1.0

    def test_saturation_drops(self):
        # 1000 events in ~1 ms with 1 kEPS capacity and a tiny FIFO.
        s = make_stream(1000, max_dt=2)
        r = simulate_readout(s, ReadoutParams(throughput_eps=1e3, fifo_depth=8))
        assert r.num_dropped > 0
        assert r.drop_fraction > 0.5

    def test_queueing_latency_grows(self):
        s = make_stream(500, max_dt=2)
        fast = simulate_readout(s, ReadoutParams(throughput_eps=1e9, fifo_depth=10_000))
        slow = simulate_readout(s, ReadoutParams(throughput_eps=1e6, fifo_depth=10_000))
        assert slow.mean_latency_us > fast.mean_latency_us

    def test_output_sorted(self):
        s = make_stream(300, max_dt=5)
        r = simulate_readout(s, ReadoutParams(throughput_eps=1e5, fifo_depth=64))
        assert np.all(np.diff(r.stream.t) >= 0)

    def test_empty(self):
        r = simulate_readout(EventStream.empty(RES), ReadoutParams())
        assert len(r.stream) == 0
        assert r.drop_fraction == 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ReadoutParams(throughput_eps=0)
        with pytest.raises(ValueError):
            ReadoutParams(fifo_depth=0)


class TestRateLimiter:
    def test_limits_bursts(self):
        s = make_stream(2000, max_dt=2)  # very high rate
        limited = rate_limiter(s, max_rate_eps=100_000, window_us=1000)
        # Budget: 100 events per 1 ms window.
        from repro.events import rate_profile

        prof = rate_profile(limited, bin_us=1000)
        assert prof.counts.max() <= 110  # window misalignment tolerance

    def test_no_op_below_limit(self):
        s = make_stream(50, max_dt=10_000)
        assert rate_limiter(s, max_rate_eps=1e9) == s

    def test_validation(self):
        s = make_stream(10)
        with pytest.raises(ValueError):
            rate_limiter(s, 0)
        with pytest.raises(ValueError):
            rate_limiter(s, 100, window_us=0)


class TestMitigation:
    def test_foveate_preserves_fovea(self):
        s = make_stream(500, seed=2)
        fov = Fovea(cx=16, cy=16, radius=100, peripheral_factor=4)  # everything foveal
        assert foveate(s, fov) == s

    def test_foveate_reduces_periphery(self):
        s = make_stream(3000, max_dt=3, seed=2)
        fov = Fovea(cx=16, cy=16, radius=4, peripheral_factor=8)
        out = foveate(s, fov)
        assert len(out) < len(s)
        assert out.resolution == s.resolution

    def test_foveate_snaps_peripheral_coordinates(self):
        res = Resolution(16, 16)
        s = EventStream.from_arrays([0], [15], [15], [1], res)
        out = foveate(s, Fovea(cx=0, cy=0, radius=1, peripheral_factor=4))
        # 15 // 4 * 4 + 2 = 14
        assert out.x.tolist() == [14]
        assert out.y.tolist() == [14]

    def test_fovea_validation(self):
        with pytest.raises(ValueError):
            Fovea(0, 0, -1)
        with pytest.raises(ValueError):
            Fovea(0, 0, 1, peripheral_factor=0)

    def test_centre_surround_passes_isolated_edge(self):
        res = Resolution(16, 16)
        # A lone edge: few active neighbours => passes.
        s = EventStream.from_arrays(
            [0, 10, 20], [5, 5, 5], [5, 6, 7], [1, 1, 1], res
        )
        out = centre_surround_suppression(s, surround_radius=2, window_us=1000)
        assert len(out) == 3

    def test_centre_surround_suppresses_full_field(self):
        res = Resolution(8, 8)
        # Every pixel fires in a tight window: late events see a fully
        # active surround and are suppressed.
        n = res.num_pixels
        t = np.arange(n, dtype=np.int64)
        x = np.tile(np.arange(8), 8)
        y = np.repeat(np.arange(8), 8)
        s = EventStream.from_arrays(t, x, y, np.ones(n, dtype=np.int8), res)
        out = centre_surround_suppression(
            s, surround_radius=2, window_us=10_000, activity_threshold=0.5
        )
        assert len(out) < n

    def test_centre_surround_validation(self):
        s = make_stream(10)
        with pytest.raises(ValueError):
            centre_surround_suppression(s, surround_radius=0)
        with pytest.raises(ValueError):
            centre_surround_suppression(s, window_us=0)
        with pytest.raises(ValueError):
            centre_surround_suppression(s, activity_threshold=0)


class TestParamEdgeCases:
    """Edge-case hardening: severity knobs, saturation, degenerate inputs."""

    def test_noise_params_reject_non_finite(self):
        for kwargs in (
            {"ba_rate_hz": float("nan")},
            {"ba_rate_hz": float("inf")},
            {"ba_on_fraction": float("nan")},
            {"hot_pixel_fraction": float("inf")},
            {"hot_pixel_rate_hz": float("nan")},
        ):
            with pytest.raises(ValueError, match="finite"):
                NoiseParams(**kwargs)

    def test_readout_params_reject_non_finite(self):
        with pytest.raises(ValueError):
            ReadoutParams(throughput_eps=float("nan"))
        with pytest.raises(ValueError):
            ReadoutParams(throughput_eps=float("inf"))

    def test_noise_scaled_zero_disables(self):
        p = NoiseParams(ba_rate_hz=2.0, hot_pixel_fraction=0.1).scaled(0.0)
        assert p.ba_rate_hz == 0.0
        assert p.hot_pixel_fraction == 0.0
        s = background_activity(RES, 100_000, p, np.random.default_rng(0))
        assert len(s) == 0

    def test_noise_scaled_caps_hot_fraction(self):
        p = NoiseParams(hot_pixel_fraction=0.4).scaled(10.0)
        assert p.hot_pixel_fraction == 1.0
        assert p.ba_on_fraction == NoiseParams().ba_on_fraction

    def test_noise_scaled_validation(self):
        with pytest.raises(ValueError, match="factor"):
            NoiseParams().scaled(-1.0)
        with pytest.raises(ValueError, match="factor"):
            NoiseParams().scaled(float("nan"))

    def test_readout_derate_validation(self):
        with pytest.raises(ValueError, match="factor"):
            ReadoutParams().derate(0.5)
        with pytest.raises(ValueError, match="factor"):
            ReadoutParams().derate(float("inf"))

    def test_readout_derate_pushes_towards_saturation(self):
        s = make_stream(n=2000, max_dt=5)
        params = ReadoutParams(throughput_eps=1e6, fifo_depth=16)
        clean = simulate_readout(s, params)
        stressed = simulate_readout(s, params.derate(50.0))
        assert stressed.num_dropped > clean.num_dropped
        assert stressed.mean_latency_us >= clean.mean_latency_us

    def test_full_saturation_bus_keeps_fifo_worth(self):
        # A bus far below the input rate drops almost everything but must
        # never produce an invalid stream or negative latency.
        s = make_stream(n=5000, max_dt=2)
        result = simulate_readout(s, ReadoutParams(throughput_eps=100.0, fifo_depth=8))
        assert result.num_dropped > 0.9 * len(s)
        assert len(result.stream) + result.num_dropped == len(s)
        assert result.stream.validate() == []
        assert result.max_latency_us >= 0
        assert 0.0 < result.drop_fraction < 1.0

    def test_rate_limiter_zero_and_negative_rate_rejected(self):
        s = make_stream()
        for rate in (0.0, -10.0):
            with pytest.raises(ValueError, match="max_rate_eps"):
                rate_limiter(s, rate)
        with pytest.raises(ValueError, match="window_us"):
            rate_limiter(s, 1e6, window_us=0)

    def test_rate_limiter_empty_stream(self):
        empty = EventStream.empty(RES)
        out = rate_limiter(empty, 1e3)
        assert len(out) == 0
        assert out.resolution == RES

    def test_rate_limiter_tiny_budget_keeps_one_per_window(self):
        # Budget rounds up to one event per window, never to zero.
        s = make_stream(n=1000, max_dt=3)
        out = rate_limiter(s, 1e-6, window_us=1000)
        t0 = int(s.t[0])
        windows = np.unique((s.t - t0) // 1000)
        assert len(out) == windows.size
        assert out.validate() == []

    def test_simulate_readout_empty_stream(self):
        result = simulate_readout(EventStream.empty(RES), ReadoutParams())
        assert len(result.stream) == 0
        assert result.num_dropped == 0
        assert result.drop_fraction == 0.0
