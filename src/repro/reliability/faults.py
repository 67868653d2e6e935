"""Composable, seeded fault models for event streams.

Event-camera systems fail in characteristic ways at every stage of the
sensor→processor path: pixels die or latch (array defects), the arbiter
and link drop events uniformly or in bursts (congestion, brown-outs),
timestamps pick up jitter or arrive out of order (clock domain crossings),
polarities flip (comparator noise), and AER bus words take bit flips
(marginal links).  Each :class:`FaultModel` here reproduces one of those
processes as a pure, seeded transformation of an
:class:`~repro.events.stream.EventStream`, so robustness experiments
(:mod:`repro.reliability.sweep`) can dial severity and stay exactly
reproducible.

Fault models *may* emit invalid streams — that is the point of
:class:`OutOfOrderCorruption` — so downstream consumers must validate
(see :meth:`repro.events.stream.EventStream.validate` and the quarantine
logic in :mod:`repro.reliability.runner`) rather than assume cleanliness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..camera.noise import NoiseParams, hot_pixel_events
from ..events.aer import AERCodec, AERDecodeStats
from ..events.ops import drop_events, jitter_time
from ..events.stream import EventStream

__all__ = [
    "FaultModel",
    "FaultChain",
    "DeadPixels",
    "StuckPixels",
    "HotPixels",
    "UniformDrop",
    "BurstyDrop",
    "TimestampJitter",
    "OutOfOrderCorruption",
    "PolarityFlip",
    "AERBitFlips",
    "apply_fault",
]


class FaultModel(abc.ABC):
    """One seeded corruption process over an event stream.

    Subclasses implement :meth:`apply`; all randomness must come from
    the passed generator so a fault configuration plus a seed fully
    determines the corrupted stream.
    """

    @abc.abstractmethod
    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        """Return the corrupted stream (never mutates the input)."""

    def __call__(self, stream: EventStream, seed: int = 0) -> EventStream:
        """Apply with a fresh generator derived from ``seed``."""
        return self.apply(stream, np.random.default_rng(seed))

    def then(self, other: "FaultModel") -> "FaultChain":
        """Compose: this fault, then ``other``."""
        mine = self.models if isinstance(self, FaultChain) else [self]
        theirs = other.models if isinstance(other, FaultChain) else [other]
        return FaultChain([*mine, *theirs])


@dataclass
class FaultChain(FaultModel):
    """Apply several fault models in sequence (sensor → link order).

    Attributes:
        models: the faults, applied first to last with the same
            generator, so the chain is as deterministic as its parts.
    """

    models: list[FaultModel] = field(default_factory=list)

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        for model in self.models:
            stream = model.apply(stream, rng)
        return stream


def _choose_pixels(
    resolution, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Flat indices of a random pixel subset of the given fraction."""
    num = int(round(fraction * resolution.num_pixels))
    if num == 0:
        return np.empty(0, dtype=np.int64)
    return np.asarray(
        rng.choice(resolution.num_pixels, size=num, replace=False), dtype=np.int64
    )


@dataclass
class DeadPixels(FaultModel):
    """A random fraction of pixels never fires (open-circuit defects).

    Attributes:
        fraction: fraction of the array that is dead, in [0, 1].
    """

    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        dead = _choose_pixels(stream.resolution, self.fraction, rng)
        if dead.size == 0 or len(stream) == 0:
            return stream
        mask = np.zeros(stream.resolution.num_pixels, dtype=bool)
        mask[dead] = True
        return stream[~mask[stream.pixel_index()]]


@dataclass
class StuckPixels(FaultModel):
    """A random fraction of pixels reports a latched polarity.

    Models a stuck comparator output: the pixel still responds to
    contrast, but every event it emits carries the same polarity.

    Attributes:
        fraction: fraction of the array that is stuck, in [0, 1].
        polarity: the latched value, +1 or -1.
    """

    fraction: float
    polarity: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.polarity not in (1, -1):
            raise ValueError("polarity must be +1 or -1")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        stuck = _choose_pixels(stream.resolution, self.fraction, rng)
        if stuck.size == 0 or len(stream) == 0:
            return stream
        mask = np.zeros(stream.resolution.num_pixels, dtype=bool)
        mask[stuck] = True
        hit = mask[stream.pixel_index()]
        raw = stream.raw.copy()
        raw["p"][hit] = self.polarity
        return EventStream(raw, stream.resolution, check=False)


@dataclass
class HotPixels(FaultModel):
    """A random fraction of pixels fires quasi-periodically at high rate.

    Reuses the sensor noise model
    (:func:`repro.camera.noise.hot_pixel_events`) so the injected
    population statistics match the camera simulator's.

    Attributes:
        fraction: fraction of hot pixels, in [0, 1].
        rate_hz: firing rate of each hot pixel.
    """

    fraction: float
    rate_hz: float = 500.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.rate_hz < 0:
            raise ValueError("rate_hz must be non-negative")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        duration = max(stream.duration, 1)
        params = NoiseParams(
            ba_rate_hz=0.0,
            hot_pixel_fraction=self.fraction,
            hot_pixel_rate_hz=self.rate_hz,
        )
        t0 = int(stream.t[0]) if len(stream) else 0
        hot = hot_pixel_events(stream.resolution, duration, params, rng, t_start=t0)
        if len(hot) == 0:
            return stream
        merged = np.concatenate([stream.raw, hot.raw])
        merged = merged[np.argsort(merged["t"], kind="stable")]
        return EventStream(merged, stream.resolution, check=False)


@dataclass
class UniformDrop(FaultModel):
    """Drop each event independently with probability ``probability``.

    Attributes:
        probability: per-event drop probability, in [0, 1].
    """

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        return drop_events(stream, self.probability, rng)


@dataclass
class BurstyDrop(FaultModel):
    """Drop whole time windows of events (link brown-outs, FIFO resets).

    Time is partitioned into ``burst_us`` windows and each window is
    dropped in full with probability ``probability``, so the expected
    drop fraction matches :class:`UniformDrop` at equal probability but
    the losses are temporally correlated — the regime per-event
    asynchronous processors are most sensitive to.

    Attributes:
        probability: per-window drop probability, in [0, 1].
        burst_us: window length in microseconds.
    """

    probability: float
    burst_us: int = 5000

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.burst_us <= 0:
            raise ValueError("burst_us must be positive")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        if len(stream) == 0 or self.probability == 0.0:
            return stream
        bins = (stream.t - int(stream.t[0])) // self.burst_us
        num_bins = int(bins[-1]) + 1
        dropped_bin = rng.random(num_bins) < self.probability
        return stream[~dropped_bin[bins]]


@dataclass
class TimestampJitter(FaultModel):
    """Gaussian timestamp noise with re-sorting (valid but blurred time).

    Attributes:
        sigma_us: jitter standard deviation in microseconds.
    """

    sigma_us: float

    def __post_init__(self) -> None:
        if self.sigma_us < 0:
            raise ValueError("sigma_us must be non-negative")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        return jitter_time(stream, self.sigma_us, rng)


@dataclass
class OutOfOrderCorruption(FaultModel):
    """Displace a fraction of timestamps WITHOUT re-sorting.

    This produces a stream that violates the monotonic-time invariant —
    exactly what a host sees when packets reorder across a link.  The
    result is intentionally invalid; it exists to exercise per-recording
    validation and quarantine, not to be consumed by a pipeline.

    Attributes:
        fraction: fraction of events whose timestamp is displaced.
        shift_us: magnitude of the (backward) displacement.
    """

    fraction: float = 0.05
    shift_us: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.shift_us <= 0:
            raise ValueError("shift_us must be positive")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        n = len(stream)
        num = int(round(self.fraction * n))
        if num == 0:
            return stream
        victims = rng.choice(n, size=num, replace=False)
        raw = stream.raw.copy()
        raw["t"][victims] -= self.shift_us
        return EventStream(raw, stream.resolution, check=False)


@dataclass
class PolarityFlip(FaultModel):
    """Flip the polarity of each event independently (comparator noise).

    Attributes:
        probability: per-event flip probability, in [0, 1].
    """

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        if len(stream) == 0 or self.probability == 0.0:
            return stream
        flip = rng.random(len(stream)) < self.probability
        raw = stream.raw.copy()
        raw["p"][flip] = -raw["p"][flip]
        return EventStream(raw, stream.resolution, check=False)


@dataclass
class AERBitFlips(FaultModel):
    """Random bit flips on the AER bus words (marginal link model).

    The stream is pushed through :meth:`repro.events.aer.AERCodec.encode`,
    each payload bit of each word is flipped independently with
    ``bit_flip_probability``, and the result is decoded with
    :meth:`~repro.events.aer.AERCodec.decode_with_stats` — so corrupted
    words that decode to impossible coordinates are *quarantined by the
    decoder* (counted in :attr:`last_decode_stats`) instead of surfacing
    as an invalid stream.  Surviving events may still carry wrong
    addresses, polarities or times: that is the realistic failure mode.

    Attributes:
        bit_flip_probability: per-bit flip probability on the link.
        timestamp_bits: codec delta-field width.
        last_decode_stats: decoder statistics of the most recent
            :meth:`apply` (None before first use).
    """

    bit_flip_probability: float
    timestamp_bits: int = 15
    last_decode_stats: AERDecodeStats | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_flip_probability <= 1.0:
            raise ValueError("bit_flip_probability must be in [0, 1]")

    def apply(self, stream: EventStream, rng: np.random.Generator) -> EventStream:
        codec = AERCodec(stream.resolution, timestamp_bits=self.timestamp_bits)
        if len(stream) == 0:
            self.last_decode_stats = AERDecodeStats(0, 0, 0, 0, 0)
            return stream
        t_origin = int(stream.t[0])
        words = codec.encode(stream)
        if self.bit_flip_probability > 0.0:
            flips = rng.random((words.size, codec.word_bits)) < self.bit_flip_probability
            flip_mask = np.zeros(words.size, dtype=np.uint64)
            for bit in range(codec.word_bits):
                flip_mask |= flips[:, bit].astype(np.uint64) << np.uint64(bit)
            words = words ^ flip_mask
        decoded, stats = codec.decode_with_stats(words, t_origin=t_origin)
        self.last_decode_stats = stats
        return decoded


def apply_fault(
    fault: FaultModel | None, stream: EventStream, seed: int
) -> EventStream:
    """Apply an optional fault with a deterministic per-call generator.

    Args:
        fault: the fault model, or None for the identity.
        stream: input events.
        seed: generator seed (combine the sweep seed and recording index
            upstream so every recording gets an independent substream).
    """
    if fault is None:
        return stream
    return fault.apply(stream, np.random.default_rng(seed))
