"""The camera simulator against its per-frame reference oracle.

``PixelArray`` simulates a ``(T, H, W)`` block of log-luminance frames in
one array kernel, and ``EventCamera.record`` feeds it blocks of
``sensor.BLOCK_BYTES``.  The per-frame ``step`` the kernel replaced is
kept here, verbatim, as the oracle: every dataset generator, stimulus
and camera configuration must produce byte-identical events through
both.  Vectorised ``Stimulus.frames`` overrides are held to a stack of
``frame(t)``, and ``MovingBar``/``RotatingBar`` to their former scalar
formulas.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.camera import (
    CameraConfig,
    CompositeStimulus,
    DriftingGrating,
    EventCamera,
    ExpandingDisk,
    MovingBar,
    MovingBox,
    MovingDisk,
    NoiseParams,
    PixelArray,
    PixelParams,
    ReadoutParams,
    RotatingBar,
    Stimulus,
    TexturePan,
    add_noise,
    simulate_readout,
)
from repro.camera import sensor
from repro.camera.video import BACKGROUND, EDGE_SOFTNESS, FOREGROUND
from repro.datasets.detection import make_detection_dataset
from repro.datasets.digits import SaccadeDigit, make_digits_dataset
from repro.datasets.gestures import make_gestures_dataset
from repro.datasets.shapes import make_shapes_dataset
from repro.events import EventStream, Resolution, concatenate

# A NumPy cast or invalid-value warning in the simulator is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RES = Resolution(20, 14)
SEEDS = (0, 1, 2)


# ----------------------------------------------------------------------
# The oracle: per-frame step and record as they were before the kernel.
# ----------------------------------------------------------------------
def _oracle_photoreceptor(px: PixelArray, log_frame: np.ndarray, dt_us: float) -> np.ndarray:
    if px.params.photoreceptor_cutoff_hz <= 0:
        return log_frame.astype(np.float64)
    if px._lp is None:
        px._lp = log_frame.astype(np.float64).copy()
        return px._lp
    tau_us = 1e6 / (2.0 * np.pi * px.params.photoreceptor_cutoff_hz)
    beta = 1.0 - np.exp(-dt_us / tau_us)
    px._lp = px._lp + beta * (log_frame - px._lp)
    return px._lp


def oracle_step(px: PixelArray, log_frame: np.ndarray, t_us: int) -> EventStream:
    """``PixelArray.step`` as a per-frame loop over ON and OFF."""
    t_us = int(t_us)
    if px._ref is None:
        filtered0 = _oracle_photoreceptor(px, log_frame, dt_us=1.0)
        px._ref = np.array(filtered0, dtype=np.float64, copy=True)
        px._last_t = t_us
        return EventStream.empty(px.resolution)
    assert t_us > px._last_t
    t_prev = px._last_t
    dt = t_us - t_prev
    filtered = _oracle_photoreceptor(px, log_frame, dt_us=float(dt))
    delta = filtered - px._ref

    ts_list, xs_list, ys_list, ps_list = [], [], [], []
    for polarity, theta in ((1, px.threshold_on_map), (-1, px.threshold_off_map)):
        signed = delta if polarity == 1 else -delta
        n_cross = np.floor(signed / theta).astype(np.int64)
        n_cross = np.maximum(n_cross, 0)
        if not n_cross.any():
            continue
        ys, xs = np.nonzero(n_cross)
        counts = n_cross[ys, xs]
        total = int(counts.sum())
        ev_y = np.repeat(ys, counts)
        ev_x = np.repeat(xs, counts)
        k = np.concatenate([np.arange(1, c + 1) for c in counts]) if total else np.empty(0)
        frac = (k * theta[ev_y, ev_x]) / np.abs(delta[ev_y, ev_x])
        frac = np.clip(frac, 0.0, 1.0)
        ev_t = t_prev + np.maximum(1, np.round(frac * dt)).astype(np.int64)
        ts_list.append(ev_t)
        xs_list.append(ev_x.astype(np.int32))
        ys_list.append(ev_y.astype(np.int32))
        ps_list.append(np.full(total, polarity, dtype=np.int8))
        px._ref[ys, xs] += polarity * counts * theta[ys, xs]

    px._last_t = t_us
    if not ts_list:
        return EventStream.empty(px.resolution)
    t_all = np.concatenate(ts_list)
    x_all = np.concatenate(xs_list)
    y_all = np.concatenate(ys_list)
    p_all = np.concatenate(ps_list)
    order = np.argsort(t_all, kind="stable")
    t_all, x_all, y_all, p_all = t_all[order], x_all[order], y_all[order], p_all[order]
    if px.params.refractory_us > 0:
        keep = px._apply_refractory(t_all, x_all, y_all)
        t_all, x_all, y_all, p_all = t_all[keep], x_all[keep], y_all[keep], p_all[keep]
    return EventStream.from_arrays(t_all, x_all, y_all, p_all, px.resolution)


def oracle_record(self: EventCamera, stimulus: Stimulus, duration_us: int, t_start: int = 0):
    """``EventCamera.record`` stepping the oracle one ``frame(t)`` at a time."""
    self._pixels.reset()
    period = self.config.sample_period_us
    chunks = []
    t = t_start
    end = t_start + duration_us
    while t <= end:
        chunk = oracle_step(self._pixels, np.log(stimulus.frame(float(t))), t)
        if len(chunk):
            chunks.append(chunk)
        t += period
    signal = concatenate(chunks) if chunks else EventStream.empty(self.resolution)
    num_signal = len(signal)
    num_noise = 0
    if self.config.noise is not None:
        noisy = add_noise(signal, self.config.noise, self._rng, duration_us=duration_us)
        num_noise = len(noisy) - num_signal
        signal = noisy
    num_dropped = 0
    latency = 0.0
    if self.config.readout is not None:
        result = simulate_readout(signal, self.config.readout)
        signal = result.stream
        num_dropped = result.num_dropped
        latency = result.mean_latency_us
    stats = sensor.RecordingStats(num_signal, num_noise, num_dropped, latency)
    return signal, stats


def _blend_soft_step(d: np.ndarray) -> np.ndarray:
    mask = np.clip(0.5 + d / (2.0 * EDGE_SOFTNESS), 0.0, 1.0)
    return BACKGROUND + (FOREGROUND - BACKGROUND) * mask


def _moving_bar_frame(stim: MovingBar, t_us: float) -> np.ndarray:
    cx = stim.x0 + stim.speed * t_us * 1e-6
    d = stim.bar_width / 2.0 - np.abs(stim._xs - cx)
    return _blend_soft_step(d)


def _rotating_bar_frame(stim: RotatingBar, t_us: float) -> np.ndarray:
    angle = stim.phase0 + stim.omega * t_us * 1e-6
    c, s = math.cos(angle), math.sin(angle)
    dx = stim._xs - stim._cx
    dy = stim._ys - stim._cy
    along = dx * c + dy * s
    across = -dx * s + dy * c
    d = np.minimum(stim.half_len - np.abs(along), stim.half_width - np.abs(across))
    return _blend_soft_step(d)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def all_stimuli(res: Resolution, seed: int) -> list[Stimulus]:
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    return [
        MovingBar(res, speed_px_per_s=u(-900, 900), bar_width=u(2, 5), x0=u(0, res.width)),
        MovingBox(res, side=u(4, 8), x0=u(0, 10), y0=u(0, 10), vx_px_per_s=u(-600, 600),
                  vy_px_per_s=u(-600, 600)),
        MovingDisk(res, radius=u(2, 5), x0=u(0, 10), y0=u(0, 10), vx_px_per_s=u(-600, 600)),
        ExpandingDisk(res, r0=u(1, 3), growth_px_per_s=u(-50, 150)),
        DriftingGrating(res, spatial_period_px=u(4, 9), temporal_freq_hz=u(5, 60),
                        orientation_deg=u(0, 180)),
        RotatingBar(res, angular_speed_rad_per_s=u(-40, 40), phase0_rad=u(0, 6)),
        TexturePan(res, vx_px_per_s=u(-400, 400), vy_px_per_s=u(-400, 400), seed=seed),
        CompositeStimulus([MovingBar(res, speed_px_per_s=u(200, 900)),
                           MovingDisk(res, radius=u(2, 4), vx_px_per_s=u(-500, 500))]),
        SaccadeDigit(res, digit=seed % 10, scale=2, saccade_period_us=30_000),
    ]


CONFIGS = {
    "ideal": dict(),
    "mismatch": dict(pixel=PixelParams(threshold_mismatch_sigma=0.15)),
    "photoreceptor": dict(pixel=PixelParams(photoreceptor_cutoff_hz=150.0)),
    "refractory": dict(pixel=PixelParams(threshold_on=0.1, threshold_off=0.15, refractory_us=400)),
    "noise": dict(noise=NoiseParams(ba_rate_hz=5.0, hot_pixel_fraction=0.02)),
    "readout": dict(readout=ReadoutParams(throughput_eps=2e5, fifo_depth=32)),
    "all": dict(
        pixel=PixelParams(threshold_mismatch_sigma=0.1, refractory_us=250,
                          photoreceptor_cutoff_hz=400.0),
        noise=NoiseParams(ba_rate_hz=2.0),
        readout=ReadoutParams(throughput_eps=5e5, fifo_depth=64),
        sample_period_us=700,
    ),
}


def both(res, config, stimulus, duration_us, t_start=0):
    """Events and stats of the kernel and the oracle on twin cameras."""
    new = EventCamera(res, config).record(stimulus, duration_us, t_start=t_start)
    old = oracle_record(EventCamera(res, config), stimulus, duration_us, t_start=t_start)
    return new, old


def assert_same(new, old):
    (ev_new, stats_new), (ev_old, stats_old) = new, old
    assert ev_new.raw.tobytes() == ev_old.raw.tobytes()
    assert stats_new == stats_old


# ----------------------------------------------------------------------
# Stimulus.frames
# ----------------------------------------------------------------------
class TestStimulusFrames:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_frames_equal_stacked_frame(self, seed):
        ts = np.sort(np.random.default_rng(seed).uniform(0, 2e6, 37))
        ts[:5] = [0.0, 1000.0, 2000.0, 999_999.0, 1e6 + 0.5]
        for stim in all_stimuli(RES, seed):
            stack = np.stack([stim.frame(float(t)) for t in ts])
            got = stim.frames(ts)
            assert got.shape == (ts.size, RES.height, RES.width), type(stim).__name__
            assert got.tobytes() == stack.tobytes(), type(stim).__name__

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vectorised_stimuli_match_scalar_formulas(self, seed):
        ts = np.arange(-7, 300) * 1000.0 + seed
        for stim in all_stimuli(RES, seed):
            if isinstance(stim, MovingBar):
                scalar = _moving_bar_frame
            elif isinstance(stim, RotatingBar):
                scalar = _rotating_bar_frame
            else:
                continue
            stack = np.stack([scalar(stim, float(t)) for t in ts])
            assert stim.frames(ts).tobytes() == stack.tobytes()

    def test_integer_times_and_log_frame(self):
        for stim in all_stimuli(RES, 0):
            ts = np.arange(0, 10_001, 1000, dtype=np.int64)
            assert stim.frames(ts).tobytes() == stim.frames(ts.astype(float)).tobytes()
            assert stim.log_frame(3000.0).tobytes() == np.log(stim.frame(3000.0)).tobytes()


# ----------------------------------------------------------------------
# Kernel == oracle
# ----------------------------------------------------------------------
class TestKernelOracle:
    @pytest.mark.parametrize("config", list(CONFIGS), ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_stimulus_and_config(self, config, seed):
        cfg = CameraConfig(seed=seed, **CONFIGS[config])
        for stim in all_stimuli(RES, seed):
            assert_same(*both(RES, cfg, stim, 30_000))

    @pytest.mark.parametrize("frames", [1, 2, 3, 8, 9, 16, 17, 31])
    def test_recordings_around_the_block_size(self, monkeypatch, frames):
        # Blocks of 8 frames: shorter than, equal to and longer than one.
        monkeypatch.setattr(sensor, "BLOCK_BYTES", 8 * 8 * RES.num_pixels)
        for seed in SEEDS:
            cfg = CameraConfig(seed=seed, **CONFIGS["all"])
            for stim in all_stimuli(RES, seed):
                duration = max(1, (frames - 1) * cfg.sample_period_us)
                assert_same(*both(RES, cfg, stim, duration))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nonzero_start(self, monkeypatch, seed):
        monkeypatch.setattr(sensor, "BLOCK_BYTES", 5 * 8 * RES.num_pixels)
        cfg = CameraConfig(seed=seed, **CONFIGS["refractory"])
        for stim in all_stimuli(RES, seed):
            assert_same(*both(RES, cfg, stim, 40_000, t_start=123_457 * (seed + 1)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_step_by_step_equals_record(self, seed):
        cfg = CameraConfig(seed=seed, **CONFIGS["all"])
        cfg = CameraConfig(pixel=cfg.pixel, sample_period_us=cfg.sample_period_us, seed=seed)
        for stim in all_stimuli(RES, seed):
            recorded, _ = EventCamera(RES, cfg).record(stim, 50_000, t_start=300)
            px = PixelArray(RES, cfg.pixel, rng=np.random.default_rng(seed))
            ts = range(300, 50_301, cfg.sample_period_us)
            stepped = concatenate([px.step(stim.log_frame(float(t)), t) for t in ts])
            assert stepped.raw.tobytes() == recorded.raw.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_step_matches_oracle_on_random_frames(self, seed):
        rng = np.random.default_rng(seed)
        params = PixelParams(
            threshold_on=0.15, threshold_off=0.25, threshold_mismatch_sigma=0.2,
            refractory_us=30, photoreceptor_cutoff_hz=2000.0,
        )
        new = PixelArray(RES, params, rng=np.random.default_rng(seed))
        old = PixelArray(RES, params, rng=np.random.default_rng(seed))
        t = 0
        for _ in range(40):
            frame = rng.normal(0.0, 1.5, (RES.height, RES.width))
            t += int(rng.integers(1, 500))
            assert new.step(frame, t).raw.tobytes() == oracle_step(old, frame, t).raw.tobytes()
        assert new._ref.tobytes() == old._ref.tobytes()
        assert new._refractory_until.tobytes() == old._refractory_until.tobytes()

    def test_step_leaves_its_input_alone(self):
        arr = PixelArray(RES)
        frame = np.zeros((RES.height, RES.width))
        arr.step(frame, 0)
        arr.step(frame + 1.0, 1000)
        assert not frame.any()


# ----------------------------------------------------------------------
# Every dataset generator
# ----------------------------------------------------------------------
GENERATORS = {
    "gestures": lambda seed: make_gestures_dataset(
        num_per_class=1, resolution=Resolution(24, 24), duration_us=60_000,
        revs_range=(4.0, 8.0), seed=seed,
    ),
    "shapes": lambda seed: make_shapes_dataset(
        num_per_class=1, resolution=Resolution(20, 20), duration_us=40_000,
        noise=NoiseParams(), seed=seed,
    ),
    "digits": lambda seed: make_digits_dataset(
        num_per_class=1, digits=(0, 7), resolution=Resolution(24, 24),
        duration_us=45_000, seed=seed,
    ),
    "detection": lambda seed: make_detection_dataset(
        num_samples=3, resolution=Resolution(24, 24), duration_us=30_000, seed=seed,
    ),
}


class TestDatasetOracle:
    @pytest.mark.parametrize("name", list(GENERATORS), ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generator_matches_oracle(self, monkeypatch, name, seed):
        new = [s.stream.raw.tobytes() for s in GENERATORS[name](seed)]
        monkeypatch.setattr(EventCamera, "record", oracle_record)
        old = [s.stream.raw.tobytes() for s in GENERATORS[name](seed)]
        assert new == old
        assert any(len(b) for b in new)


# ----------------------------------------------------------------------
# Non-finite samples are rejected before any state changes
# ----------------------------------------------------------------------
def _state(arr: PixelArray):
    return (
        None if arr._ref is None else arr._ref.tobytes(),
        None if arr._lp is None else arr._lp.tobytes(),
        arr._refractory_until.tobytes(),
        arr._last_t,
    )


class TestNonFinite:
    PARAMS = PixelParams(refractory_us=10, photoreceptor_cutoff_hz=500.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_step_rejects_and_leaves_state(self, bad):
        arr, twin = PixelArray(RES, self.PARAMS), PixelArray(RES, self.PARAMS)
        for a in (arr, twin):
            a.step(np.zeros((RES.height, RES.width)), 0)
            a.step(np.full((RES.height, RES.width), 0.5), 1000)
        frame = np.full((RES.height, RES.width), 1.0)
        frame[5, 3] = bad
        frame[6, 1] = bad
        with pytest.raises(ValueError, match=r"non-finite .*\(x=3, y=5\), t=2000"):
            arr.step(frame, 2000)
        assert _state(arr) == _state(twin)
        good = np.full((RES.height, RES.width), 1.0)
        assert arr.step(good, 2000).raw.tobytes() == twin.step(good, 2000).raw.tobytes()

    def test_first_frame_rejected(self):
        arr = PixelArray(RES)
        frame = np.zeros((RES.height, RES.width))
        frame[0, 7] = np.nan
        with pytest.raises(ValueError, match=r"\(x=7, y=0\), t=0"):
            arr.step(frame, 0)
        assert arr._ref is None and arr._last_t is None

    def test_block_rejected_as_a_whole(self):
        arr, twin = PixelArray(RES, self.PARAMS), PixelArray(RES, self.PARAMS)
        for a in (arr, twin):
            a.step(np.zeros((RES.height, RES.width)), 0)
        block = np.stack([np.full((RES.height, RES.width), v) for v in (0.3, 0.6, 0.9)])
        block[2, 4, 4] = np.inf
        with pytest.raises(ValueError, match=r"\(x=4, y=4\), t=3000"):
            arr._simulate(block, np.array([1000, 2000, 3000], dtype=np.int64))
        assert _state(arr) == _state(twin)

    @pytest.mark.parametrize("luminance", [0.0, np.nan, np.inf], ids=str)
    def test_record_rejects_bad_luminance(self, luminance):
        class Glitch(Stimulus):
            def frame(self, t_us):
                out = MovingBar(RES, speed_px_per_s=400.0).frame(t_us)
                if t_us >= 17_000:
                    out[2, 9] = luminance
                return out

        cfg = CameraConfig(seed=4, noise=NoiseParams(ba_rate_hz=5.0))
        cam = EventCamera(RES, cfg)
        with pytest.raises(ValueError, match=r"\(x=9, y=2\), t=17000"):
            cam.record(Glitch(RES), 30_000)
        # The failed call consumed nothing the next recording depends on.
        stim = MovingBar(RES, speed_px_per_s=400.0)
        after, _ = cam.record(stim, 30_000)
        fresh, _ = EventCamera(RES, cfg).record(stim, 30_000)
        assert after.raw.tobytes() == fresh.raw.tobytes()


# ----------------------------------------------------------------------
# Resource bound: working memory does not grow with duration
# ----------------------------------------------------------------------
class TestRecordMemory:
    #: Peak bytes allowed per BLOCK_BYTES of working set.  A block holds
    #: its log frames (overwritten with their change against the
    #: reference, 1x) and ON/OFF int64 crossing counts (2x), plus the
    #: stimulus's synthesis temporaries and the block's events (measured
    #: at up to 4.5x on a 24x24 rotating bar).
    BLOCKS = 6

    def test_peak_is_block_working_set_plus_output(self):
        res = Resolution(24, 24)
        frames_per_block = sensor.BLOCK_BYTES // (8 * res.num_pixels)
        duration = 10 * frames_per_block * 1000
        cam = EventCamera(res, CameraConfig())
        tracemalloc.start()
        try:
            events, _ = cam.record(RotatingBar(res, angular_speed_rad_per_s=40.0), duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = events.raw.nbytes
        # The per-block chunks and their concatenation coexist once.
        bound = self.BLOCKS * sensor.BLOCK_BYTES + 2 * output
        assert output > sensor.BLOCK_BYTES  # the output, not the block, dominates
        assert peak <= bound, (peak, bound)
