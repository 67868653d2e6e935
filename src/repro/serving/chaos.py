"""Chaos injection and synthetic tenant workloads for the serving fleet.

A "million-user day" replay is only trustworthy if faults are injected
the way production faults arrive: scoped to one tenant, scheduled in
time, and drawn from the failure taxonomy the reliability layer already
models.  This module supplies both halves:

* **workloads** — :func:`make_tenant_windows` synthesises one tenant's
  day as pre-split event windows with a diurnal load curve, entirely
  from the tenant's own seed;
* **faults** — a seeded :class:`ChaosSchedule` of per-tenant
  :class:`ChaosEvent`\\ s in five kinds:

  ============  =========================================================
  ``flood``     the tenant's event rate multiplies by ``magnitude``
                (applied at stream synthesis — an input fault);
  ``skew``      a far-future timestamp corrupts one event per affected
                window (``magnitude`` hours, the
                :class:`~repro.reliability.faults.ClockSkew` regime) —
                the executor quarantines such windows as failed ingest;
  ``poison``    the tenant's primary model emits NaN (trips breakers
                via :func:`~repro.streaming.breaker.is_bad_output`);
  ``stall``     the tenant's primary model raises (a hung/crashed
                stage);
  ``corrupt``   the primary model's *session state* is corrupted
                through its own checkpoint round trip, reusing
                :class:`~repro.reliability.faults.NaNFeatureInjection`
                via :func:`~repro.reliability.faults.apply_session_fault`
                — and healed by restoring the pre-fault checkpoint when
                the event ends (the last-good-restore recovery path).
  ============  =========================================================

Stage-level faults are delivered by :class:`ChaosPredictor`, which maps
each model call back to a window index — from the stream's own
timestamps when serving one tenant (exact), or by call position with a
stride when a shared executor interleaves many tenants (approximate
under shedding, and documented as such: attribution drift is itself a
symptom of the no-isolation architecture).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from ..events import EventStream, Resolution
from ..nn.serialization import read_checkpoint
from ..parallel import derive_seed
from ..reliability.faults import NaNFeatureInjection, apply_session_fault

__all__ = [
    "CHAOS_KINDS",
    "ChaosEvent",
    "ChaosSchedule",
    "TenantModel",
    "MODEL_SNAPSHOT_FORMAT",
    "CallFault",
    "ChaosPredictor",
    "make_tenant_windows",
]

#: The supported fault kinds, in documentation order.
CHAOS_KINDS = ("flood", "skew", "poison", "stall", "corrupt")

#: Kinds applied to the event stream at synthesis time.
STREAM_KINDS = ("flood", "skew")

#: Kinds applied to the tenant's primary model at call time.
STAGE_KINDS = ("poison", "stall", "corrupt")

#: Checkpoint format tag of :class:`TenantModel` snapshots.
MODEL_SNAPSHOT_FORMAT = "serving-model/v1"

#: Microseconds per hour of clock skew (``skew`` magnitude unit).
_SKEW_US_PER_HOUR = 3_600_000_000


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault against one tenant.

    Attributes:
        tenant_id: the targeted tenant.
        kind: one of :data:`CHAOS_KINDS`.
        start_window: first affected window index (inclusive).
        stop_window: first unaffected window index (exclusive).
        magnitude: kind-specific severity — event-rate multiplier for
            ``flood``, hours of skew for ``skew``; ignored by the
            binary kinds.
    """

    tenant_id: str
    kind: str
    start_window: int
    stop_window: int
    magnitude: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"kind must be one of {CHAOS_KINDS}, got {self.kind!r}")
        if self.start_window < 0 or self.stop_window <= self.start_window:
            raise ValueError("need 0 <= start_window < stop_window")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")

    def windows(self, num_windows: int) -> int:
        """How many of the run's windows this event touches."""
        return max(0, min(self.stop_window, num_windows) - self.start_window)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "tenant_id": self.tenant_id,
            "kind": self.kind,
            "start_window": self.start_window,
            "stop_window": self.stop_window,
            "magnitude": self.magnitude,
        }


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic set of scheduled tenant faults.

    Attributes:
        events: the scheduled faults, in schedule order.
        seed: seed recorded for provenance (randomised schedules) and
            used to derive per-injection corruption seeds.
    """

    events: tuple[ChaosEvent, ...] = ()
    seed: int = 0

    def for_tenant(self, tenant_id: str) -> tuple[ChaosEvent, ...]:
        """The faults targeting one tenant, in schedule order."""
        return tuple(e for e in self.events if e.tenant_id == tenant_id)

    @property
    def targeted_tenants(self) -> tuple[str, ...]:
        """Unique targeted tenant ids, in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.tenant_id, None)
        return tuple(seen)

    def kind_windows(self, tenant_id: str, num_windows: int) -> dict[str, int]:
        """kind → windows of ``tenant_id`` touched within the run."""
        counts: dict[str, int] = {}
        for event in self.for_tenant(tenant_id):
            touched = event.windows(num_windows)
            if touched:
                counts[event.kind] = counts.get(event.kind, 0) + touched
        return counts

    @classmethod
    def random(
        cls,
        tenant_ids: Sequence[str],
        num_windows: int,
        *,
        kinds: Sequence[str] = CHAOS_KINDS,
        num_events: int = 4,
        seed: int = 0,
    ) -> "ChaosSchedule":
        """A seeded random schedule over the given tenants.

        Kinds rotate round-robin (every schedule exercises the
        taxonomy); targets and windows are drawn from a generator
        seeded only by ``seed``, so the schedule is a pure function of
        its arguments.
        """
        if not tenant_ids:
            raise ValueError("tenant_ids must be non-empty")
        if num_windows < 2:
            raise ValueError("num_windows must be >= 2")
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
        span_lo = max(1, num_windows // 10)
        span_hi = max(span_lo + 1, num_windows // 4)
        events = []
        for i in range(num_events):
            kind = kinds[i % len(kinds)]
            tenant = tenant_ids[int(rng.integers(len(tenant_ids)))]
            start = int(rng.integers(0, num_windows - span_lo))
            span = int(rng.integers(span_lo, span_hi + 1))
            magnitude = {"flood": 6.0, "skew": 2.0}.get(kind, 4.0)
            events.append(
                ChaosEvent(tenant, kind, start, min(start + span, num_windows), magnitude)
            )
        return cls(events=tuple(events), seed=seed)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}


class TenantModel:
    """A deterministic stateful stand-in classifier for one paradigm.

    The serving fleet needs thousands of cheap per-tenant "models" whose
    behaviour is a pure function of their seed, yet which carry real
    *session state* so the reliability layer's session faults
    (:class:`~repro.reliability.faults.SessionFault`) apply to them
    unchanged.  The model therefore keeps a small feature bank shaped
    like an engine checkpoint (``x2`` rows + a ``running_max`` readout,
    the keys the session faults mutate) and exposes the same
    ``snapshot()``/``restore()`` contract as the real sessions —
    including rejection of unknown format tags and truncated payloads.

    A healthy model maps a window to a class from the event count and
    its readout; a model whose state holds non-finite values emits NaN,
    which the executor's breakers treat as failure
    (:func:`~repro.streaming.breaker.is_bad_output`) — exactly how a
    corrupted real session degrades.

    Args:
        paradigm: paradigm name (folded into the seed, so the same
            tenant's SNN and GNN models differ).
        num_classes: size of the label space.
        state_rows / state_dim: feature-bank shape.
        seed: seeds the initial state.
    """

    def __init__(
        self,
        paradigm: str,
        *,
        num_classes: int = 4,
        state_rows: int = 16,
        state_dim: int = 8,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if state_rows < 1 or state_dim < 1:
            raise ValueError("state shape must be positive")
        self.paradigm = paradigm
        self.num_classes = num_classes
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [zlib.crc32(paradigm.encode("utf-8")), seed & 0xFFFFFFFF]
            )
        )
        self._x2 = rng.standard_normal((state_rows, state_dim))
        self._running_max = np.max(np.abs(self._x2), axis=0)
        self._last_t_us = 0
        self.calls = 0

    # ------------------------------------------------------------------
    # Session checkpoint contract (shared with the real engines)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Engine-schema checkpoint of the model's session state."""
        return {
            "format": MODEL_SNAPSHOT_FORMAT,
            "bounded": False,
            "capacity": int(self._x2.shape[0]),
            "count": int(self._x2.shape[0]),
            "live_start": 0,
            "last_t_us": int(self._last_t_us),
            "x2": self._x2.copy(),
            "running_max": self._running_max.copy(),
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore from a checkpoint, rejecting malformed payloads."""
        fields = read_checkpoint(
            state,
            MODEL_SNAPSHOT_FORMAT,
            {
                "x2": lambda v: np.asarray(v, dtype=np.float64),
                "running_max": lambda v: np.asarray(v, dtype=np.float64),
                "last_t_us": int,
            },
        )
        x2, running_max = fields["x2"], fields["running_max"]
        if x2.ndim != 2 or running_max.shape != (x2.shape[1],):
            raise ValueError(
                f"malformed {MODEL_SNAPSHOT_FORMAT!r} checkpoint: state "
                f"shapes {x2.shape} / {running_max.shape} are inconsistent"
            )
        self._x2 = x2.copy()
        self._running_max = running_max.copy()
        self._last_t_us = fields["last_t_us"]

    # ------------------------------------------------------------------
    def __call__(self, stream: EventStream) -> int | float:
        """Classify one window (NaN when the session state is corrupt)."""
        self.calls += 1
        if len(stream):
            self._last_t_us = int(stream.t[-1])
        if not (
            np.isfinite(self._running_max).all() and np.isfinite(self._x2).all()
        ):
            return float("nan")
        signature = int(round(float(np.abs(self._running_max).sum()) * 8.0))
        return int((len(stream) + signature) % self.num_classes)


@dataclass(frozen=True)
class CallFault:
    """One stage-level fault interval in window/call index space.

    Attributes:
        kind: one of :data:`STAGE_KINDS`.
        start / stop: affected index interval ``[start, stop)``.
        every / offset: stride filter for interleaved (shared-executor)
            streams — an index ``i`` is targeted when additionally
            ``(i - offset) % every == 0``.  The default stride of 1
            targets every index in the interval.
    """

    kind: str
    start: int
    stop: int
    every: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"kind must be one of {STAGE_KINDS}, got {self.kind!r}")
        if self.start < 0 or self.stop <= self.start:
            raise ValueError("need 0 <= start < stop")
        if self.every < 1:
            raise ValueError("every must be >= 1")

    def active(self, index: int) -> bool:
        """Whether ``index`` falls inside the fault interval."""
        return self.start <= index < self.stop

    def targets(self, index: int) -> bool:
        """Whether ``index`` is targeted (interval and stride)."""
        return self.active(index) and (index - self.offset) % self.every == 0


class ChaosPredictor:
    """Wraps a tenant's primary model, injecting scheduled stage faults.

    For each call the wrapper derives a fault index — the stream's own
    window index (``t[0] // window_us``) when ``window_us`` is given,
    or the call position otherwise — and consults its
    :class:`CallFault` list:

    * ``stall`` raises, ``poison`` returns NaN: both register as stage
      failures with the executor's guard/breakers.
    * ``corrupt`` checkpoints the model once on entry, injects
      :class:`~repro.reliability.faults.NaNFeatureInjection` through
      :func:`~repro.reliability.faults.apply_session_fault` (the same
      snapshot → corrupt → restore round trip the robustness harness
      uses), and restores the pre-fault checkpoint on the first call
      past the interval — modelling operator-driven recovery from the
      last good checkpoint.

    Timestamp indexing is exact even when the breaker refuses calls
    (window indices advance with the stream, not with the call count),
    which is what lets a tripped primary recover on schedule: the first
    half-open probe after the fault interval finds a healed model.

    Args:
        model: the wrapped :class:`TenantModel`.
        faults: stage-fault intervals.
        window_us: window length for timestamp indexing; ``None``
            switches to call-position indexing (shared executors).
        seed: derives per-injection corruption seeds.
    """

    def __init__(
        self,
        model: TenantModel,
        faults: Iterable[CallFault] = (),
        *,
        window_us: int | None = None,
        seed: int = 0,
    ) -> None:
        if window_us is not None and window_us <= 0:
            raise ValueError("window_us must be positive")
        self.model = model
        self.faults = tuple(faults)
        self.window_us = window_us
        self.seed = seed
        self.calls = 0
        self.injections = 0
        self.heals = 0
        self._clean: dict[str, Any] | None = None
        self._applied: set[int] = set()

    def _index(self, stream: EventStream) -> int:
        if self.window_us is not None and len(stream):
            return int(stream.t[0]) // self.window_us
        return self.calls

    def __call__(self, stream: EventStream) -> int | float:
        index = self._index(stream)
        self.calls += 1
        corrupt_active = False
        for i, fault in enumerate(self.faults):
            if fault.kind == "corrupt":
                if fault.active(index):
                    corrupt_active = True
                    if i not in self._applied:
                        if self._clean is None:
                            self._clean = self.model.snapshot()
                        apply_session_fault(
                            NaNFeatureInjection(fraction=1.0),
                            self.model,
                            derive_seed(self.seed, i, fault.start),
                        )
                        self._applied.add(i)
                        self.injections += 1
            elif fault.targets(index):
                if fault.kind == "stall":
                    raise RuntimeError(
                        f"chaos: stalled stage at window {index}"
                    )
                return float("nan")
        if not corrupt_active and self._clean is not None:
            self.model.restore(self._clean)
            self._clean = None
            self._applied.clear()
            self.heals += 1
        return self.model(stream)


def make_tenant_windows(
    spec: Any,
    *,
    num_windows: int,
    window_us: int,
    resolution: Resolution,
    chaos_events: Sequence[ChaosEvent] = (),
    diurnal_amplitude: float = 0.4,
) -> list[EventStream]:
    """One tenant's synthetic day as pre-split event windows.

    The per-window event count follows a diurnal curve around the
    tenant's nominal rate — ``base * (1 + amplitude * sin(2π w / W))``
    — the compressed shape of a million-user day: ramp, peak, trough.
    Stream-level chaos is applied here, where the input is made:
    ``flood`` events multiply affected windows' counts; ``skew`` events
    push one timestamp per affected window ``magnitude`` hours into the
    future (the window stays internally ordered, but its span defeats
    rate profiling, so the executor quarantines it as failed ingest).

    Everything derives from ``spec.seed``, so a tenant's fault-free
    windows are bit-identical whether or not *other* tenants are being
    targeted — the ground truth the isolation acceptance check
    compares against.

    Args:
        spec: a :class:`~repro.serving.tenancy.TenantSpec` (anything
            with ``tenant_id``, ``events_per_window``, ``seed``).
        num_windows: number of windows to synthesise.
        window_us: window length in microseconds.
        resolution: sensor resolution of the synthetic events.
        chaos_events: the tenant's scheduled faults (non-stream kinds
            are ignored here).
        diurnal_amplitude: relative amplitude of the load curve.

    Returns:
        ``num_windows`` event windows, ready for
        :meth:`~repro.streaming.executor.StreamingExecutor.run`.
    """
    if num_windows < 1:
        raise ValueError("num_windows must be >= 1")
    if window_us <= 0:
        raise ValueError("window_us must be positive")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError("diurnal_amplitude must be in [0, 1)")
    floods = [e for e in chaos_events if e.kind == "flood"]
    skews = [e for e in chaos_events if e.kind == "skew"]
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed & 0xFFFFFFFF, num_windows])
    )
    windows: list[EventStream] = []
    for w in range(num_windows):
        phase = 2.0 * np.pi * w / num_windows
        count = max(
            1,
            int(
                round(
                    spec.events_per_window
                    * (1.0 + diurnal_amplitude * np.sin(phase))
                )
            ),
        )
        for flood in floods:
            if flood.start_window <= w < flood.stop_window:
                count = max(count, int(round(count * flood.magnitude)))
        # sort-ok: pure value sort of timestamps; equal stamps interchangeable
        t = w * window_us + np.sort(
            rng.integers(0, window_us, size=count, dtype=np.int64)
        )
        for skew in skews:
            if skew.start_window <= w < skew.stop_window:
                t[-1] += int(skew.magnitude * _SKEW_US_PER_HOUR)
        x = rng.integers(0, resolution.width, size=count, dtype=np.int32)
        y = rng.integers(0, resolution.height, size=count, dtype=np.int32)
        p = np.where(rng.random(count) < 0.5, -1, 1).astype(np.int8)
        windows.append(EventStream.from_arrays(t, x, y, p, resolution))
    return windows
