"""Per-event incremental serving sessions.

Section IV's perspective — "graph convolutions could be triggered upon
the generation of each event" — is what AEGNN and EvGNN realise in
hardware.  This module is the serving-side face of that idea: a
*session* protocol that feeds a pipeline one event at a time and keeps a
running decision, so a served window costs per-event incremental work
instead of a full graph rebuild plus batch forward pass.

:class:`GNNIncrementalSession`, opened by
:meth:`~repro.core.pipeline.GNNPipeline.open_session`, is that session
over :class:`~repro.gnn.AsyncEventGNN`.  Callers serving per event — the
e2ebench ``event_serve`` workload, the incremental robustness sweep —
drive it directly.  It adds the observability wiring —
per-event latency histogram, MACs/events counters, a
``session_state_bytes`` gauge and ``expired_nodes_total`` counter — and
two resilience mechanisms the engine alone cannot provide:

* a **divergence audit watchdog** (:class:`AuditPolicy`): on a seeded
  cadence the session shadow-recomputes the closing window's prediction
  through the batch path and raises :class:`SessionDivergenceError`
  when the incremental scores have drifted beyond tolerance.  This is
  the only detector for *silently masked* corruption — e.g. NaNs
  injected into the running readout are zero-masked by the head's
  pooling, producing finite-but-wrong scores no output check can see;
* **checkpoint/restore** (:meth:`~GNNIncrementalSession.snapshot` /
  :meth:`~GNNIncrementalSession.restore`), wrapping the engine's
  checkpoint with the session's window/audit bookkeeping so a faulted
  stream resumes from its last good state.

The load-bearing property, tested end to end: at any window boundary the
session's scores are **bit-equal** to the windowed
:meth:`~repro.core.pipeline.ParadigmPipeline.predict` over the same
events (the batch forward runs its matmuls under
:class:`~repro.nn.stable_matmul`; the per-event engine runs the same
einsum on plain arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.serialization import read_checkpoint
from ..observability import Instrumentation, exponential_buckets

__all__ = [
    "AuditPolicy",
    "SessionDivergenceError",
    "GNNIncrementalSession",
    "SESSION_SNAPSHOT_FORMAT",
]

#: Per-event latencies span sub-microsecond cache hits to pathological
#: milliseconds; decade buckets from 0.1 us cover the range.
EVENT_LATENCY_BUCKETS = exponential_buckets(0.1, 10.0, 10)

#: Audit drift spans exact-equivalence zeros (well under 1e-12) through
#: float noise up to order-one divergence after state corruption.
AUDIT_DRIFT_BUCKETS = exponential_buckets(1e-12, 10.0, 14)

#: Version tag of the session checkpoint schema (wraps the engine's
#: :data:`~repro.gnn.async_network.SNAPSHOT_FORMAT`).
SESSION_SNAPSHOT_FORMAT = "incremental-session/v1"


@dataclass(frozen=True)
class AuditPolicy:
    """When and how strictly to shadow-audit a serving session.

    One window in ``every`` is audited; which one is drawn once per
    session from ``seed``, so a fleet of sessions staggers its audit
    work deterministically instead of synchronising on window 0.

    Args:
        every: audit cadence in windows (1 = every window).
        tolerance: maximum allowed ``max |incremental - shadow|`` score
            drift.  0 demands bit-level agreement (the unbounded
            engine's guarantee); bounded sessions should set a drift
            bound measured against the exact engine on their stream
            (the frozen ``BENCH_async.json`` records hold one).
        seed: phase seed for the audit cadence.
        max_events: audited windows longer than this skip the shadow
            recompute (recorded as outcome="skipped") instead of paying
            an unbounded batch rebuild.
    """

    every: int = 16
    tolerance: float = 0.0
    seed: int = 0
    max_events: int = 100_000

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("every must be >= 1")
        # inf is allowed: audit-and-observe (drift recorded, never trips).
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be >= 0")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")


class SessionDivergenceError(RuntimeError):
    """The divergence audit watchdog tripped.

    Raised from :meth:`GNNIncrementalSession.reset` when the closing
    window's incremental scores drifted beyond the
    :class:`AuditPolicy` tolerance from the shadow (batch-path)
    recompute.  The session has already rotated to the next window, so
    a recovery path may restore a checkpoint and retry without
    re-tripping on the same buffer.

    Attributes:
        drift: measured ``max |incremental - shadow|`` (NaN when the
            comparison itself was poisoned).
        window_index: index of the audited window.
    """

    def __init__(self, message: str, *, drift: float, window_index: int) -> None:
        super().__init__(message)
        self.drift = drift
        self.window_index = window_index


class GNNIncrementalSession:
    """Per-event GNN serving over an :class:`~repro.gnn.AsyncEventGNN`.

    Protocol: feed events in timestamp order with :meth:`process_event`
    (or :meth:`predict_event` for an immediate decision), read the
    running decision with :meth:`predict` / :meth:`scores`, and call
    :meth:`reset` at window boundaries to start the next window from a
    clean slate.  Sessions are single-stream and stateful; open one per
    served stream, not one per window.

    Counter contract: :attr:`num_events` is *per-window* (it returns to
    zero on :meth:`reset`) while :attr:`macs_total` is *per-session*
    (it deliberately survives :meth:`reset` and :meth:`restore`).  The
    benchmark comparison against per-window recompute depends on this
    split; both halves are asserted in
    ``tests/test_incremental_serving.py``.

    Args:
        engine: the incremental inference engine, seeded with the
            fitted classifier.
        paradigm: label value for the emitted metrics.
        instrumentation: optional observability sink.  When attached,
            every event observes ``incremental_event_latency_us``
            (timed with the sink's clock, so virtual-time callers get
            deterministic snapshots), increments
            ``incremental_events_total`` / ``incremental_macs_total``
            / ``expired_nodes_total`` and refreshes the
            ``session_state_bytes`` gauge; audits feed the
            ``incremental_audit_drift`` histogram and the
            ``incremental_audits_total{outcome}`` counter.
        audit: optional :class:`AuditPolicy` enabling the divergence
            watchdog: on the seeded cadence, :meth:`reset` recomputes
            the closing window's scores through ``shadow`` and raises
            :class:`SessionDivergenceError` beyond tolerance.
        shadow: windowed reference scorer,
            ``EventStream -> np.ndarray``.  Defaults to rebuilding the
            event graph with the engine's construction parameters and
            running the model's batch forward (the exact-equivalence
            reference).  :meth:`~repro.core.pipeline.GNNPipeline.
            open_session` supplies its own config-faithful closure.
    """

    def __init__(
        self,
        engine,
        paradigm: str = "GNN",
        instrumentation: Instrumentation | None = None,
        audit: AuditPolicy | None = None,
        shadow=None,
    ) -> None:
        self._engine = engine
        self._macs_total = 0
        self._obs = instrumentation
        self._audit = audit
        self._shadow = shadow if shadow is not None else self._default_shadow
        self._window_index = 0
        self._buf: tuple[list, list, list, list] = ([], [], [], [])
        self._buf_overflow = False
        self._last_drift: float | None = None
        if audit is not None:
            rng = np.random.default_rng(np.random.SeedSequence([audit.seed]))
            self._audit_phase = int(rng.integers(audit.every))
        else:
            self._audit_phase = 0
        self._audit_this_window = self._should_audit(0)
        if instrumentation is not None:
            labels = {"paradigm": paradigm}
            reg = instrumentation.registry
            self._clock = instrumentation.tracer.clock
            self._latency = reg.histogram(
                "incremental_event_latency_us",
                buckets=EVENT_LATENCY_BUCKETS,
                labels=labels,
                help="per-event incremental inference latency (us)",
            )
            self._events_ctr = reg.counter(
                "incremental_events_total",
                labels=labels,
                help="events incorporated by incremental sessions",
            )
            self._macs_ctr = reg.counter(
                "incremental_macs_total",
                labels=labels,
                help="multiply-accumulates spent by incremental sessions",
            )
            self._state_gauge = reg.gauge(
                "session_state_bytes",
                labels=labels,
                help="bytes of live per-session state (SoA node store "
                "+ edge log + readout)",
            )
            self._expired_ctr = reg.counter(
                "expired_nodes_total",
                labels=labels,
                help="nodes evicted from bounded sessions (stale or "
                "over the live-node budget)",
            )
            self._drift_hist = reg.histogram(
                "incremental_audit_drift",
                buckets=AUDIT_DRIFT_BUCKETS,
                labels=labels,
                help="max-abs score drift measured by the divergence "
                "audit (incremental vs shadow recompute)",
            )
            self._audit_ctrs = {
                outcome: reg.counter(
                    "incremental_audits_total",
                    labels={**labels, "outcome": outcome},
                    help="divergence audits by outcome",
                )
                for outcome in ("ok", "tripped", "skipped")
            }
        else:
            self._clock = None
            self._latency = self._events_ctr = self._macs_ctr = None
            self._state_gauge = self._expired_ctr = self._drift_hist = None
            self._audit_ctrs = None

    @property
    def engine(self):
        """The underlying :class:`~repro.gnn.AsyncEventGNN`."""
        return self._engine

    @property
    def window_index(self) -> int:
        """Windows completed (== resets) since the session opened."""
        return self._window_index

    @property
    def last_audit_drift(self) -> float | None:
        """Drift measured by the most recent audit (None before one)."""
        return self._last_drift

    def process_event(self, x: int, y: int, t_us: int, polarity: int):
        """Incorporate one event; returns the engine's step report."""
        if self._clock is None:
            report = self._engine.process_event(x, y, t_us, polarity)
        else:
            t0 = self._clock()
            report = self._engine.process_event(x, y, t_us, polarity)
            self._latency.observe(float(self._clock()) - float(t0))
            self._events_ctr.inc()
            self._macs_ctr.inc(report.macs)
            if report.expired_nodes:
                self._expired_ctr.inc(report.expired_nodes)
            self._state_gauge.set(self._engine.state_bytes())
        self._macs_total += report.macs
        if self._audit_this_window:
            if len(self._buf[0]) < self._audit.max_events:
                self._buf[0].append(int(t_us))
                self._buf[1].append(int(x))
                self._buf[2].append(int(y))
                self._buf[3].append(int(polarity))
            else:
                self._buf_overflow = True
        return report

    def predict_event(self, x: int, y: int, t_us: int, polarity: int) -> int:
        """Incorporate one event and return the updated decision."""
        self.process_event(x, y, t_us, polarity)
        return self.predict()

    def process_stream(self, stream) -> list:
        """Incorporate every event of an :class:`~repro.events.EventStream`."""
        return [
            self.process_event(int(x), int(y), int(t), int(p))
            for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p)
        ]

    def scores(self) -> np.ndarray:
        """Current class scores (zeros before the first event)."""
        return self._engine.scores()

    def predict(self) -> int:
        """Current class decision."""
        return self._engine.predict()

    def reset(self) -> None:
        """Close the window (auditing it when due) and start the next.

        Model weights are untouched.  Zeroes :attr:`num_events` but
        **not** :attr:`macs_total` — see the counter contract.

        Raises:
            SessionDivergenceError: when the closing window was audited
                and drifted beyond tolerance.  The window has already
                rotated when this raises, so restore-and-retry recovery
                does not re-trip on the same buffer; the engine state is
                left as-is for forensics / checkpoint recovery.
        """
        self._close_window()
        self._engine.reset()

    # -- divergence audit watchdog ------------------------------------
    def _should_audit(self, window_index: int) -> bool:
        if self._audit is None:
            return False
        return window_index % self._audit.every == self._audit_phase

    def _close_window(self) -> None:
        audited = self._audit_this_window
        buf = self._buf
        overflow = self._buf_overflow
        # Rotate first so a trip (or a retried reset) never re-audits
        # the same buffer.
        self._window_index += 1
        self._buf = ([], [], [], [])
        self._buf_overflow = False
        self._audit_this_window = self._should_audit(self._window_index)
        if not audited or not buf[0]:
            return
        if overflow:
            self._record_audit("skipped", None)
            return
        inc = np.asarray(self._engine.scores(), dtype=np.float64)
        ref = np.asarray(self._shadow(self._buffer_stream(buf)), dtype=np.float64)
        if inc.shape != ref.shape:
            drift = float("inf")
        else:
            diff = np.abs(inc - ref)
            drift = float("nan") if np.any(np.isnan(diff)) else float(diff.max())
        self._last_drift = drift
        tripped = not (drift <= self._audit.tolerance)
        self._record_audit("tripped" if tripped else "ok", drift)
        if tripped:
            raise SessionDivergenceError(
                f"incremental scores drifted {drift!r} from the shadow "
                f"recompute at window {self._window_index - 1} "
                f"(tolerance {self._audit.tolerance!r})",
                drift=drift,
                window_index=self._window_index - 1,
            )

    def _record_audit(self, outcome: str, drift: float | None) -> None:
        if self._audit_ctrs is None:
            return
        self._audit_ctrs[outcome].inc()
        if drift is not None and np.isfinite(drift):
            self._drift_hist.observe(drift)

    def _buffer_stream(self, buf):
        from ..events import EventStream, Resolution

        t = np.asarray(buf[0], dtype=np.int64)
        x = np.asarray(buf[1], dtype=np.int64)
        y = np.asarray(buf[2], dtype=np.int64)
        p = np.asarray(buf[3], dtype=np.int64)
        resolution = self._engine.resolution
        if resolution is None:
            resolution = Resolution(int(x.max()) + 1, int(y.max()) + 1)
        return EventStream.from_arrays(t, x, y, p, resolution)

    def _default_shadow(self, stream) -> np.ndarray:
        """Batch-path reference: rebuild the window's graph with the
        engine's construction parameters and run the model forward."""
        from ..gnn.models import GraphBuildConfig, build_event_graph
        from ..nn import no_grad

        engine = self._engine
        config = GraphBuildConfig(
            radius=engine.radius,
            time_scale_us=engine.time_scale_us,
            max_events=max(1, len(stream)),
            max_degree=engine.max_degree,
            include_position=engine.include_position,
        )
        graph = build_event_graph(stream, config)
        with no_grad():
            return engine.model(graph).data[0]

    # -- checkpoint / restore -----------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint the session: engine state + window/audit cursor.

        Schema :data:`SESSION_SNAPSHOT_FORMAT`; the engine state nests
        under ``"engine"`` in its own
        :data:`~repro.gnn.async_network.SNAPSHOT_FORMAT` schema.
        """
        return {
            "format": SESSION_SNAPSHOT_FORMAT,
            "engine": self._engine.snapshot(),
            "window_index": self._window_index,
            "audit_this_window": self._audit_this_window,
            "audit_overflow": self._buf_overflow,
            "audit_buffer": tuple(list(part) for part in self._buf),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`.

        :attr:`macs_total` is deliberately **not** rolled back: it
        accounts work actually spent, and replayed events after a
        restore spend real work again.

        Raises:
            ValueError: when the checkpoint (or its nested engine
                checkpoint) is structurally incompatible.
        """
        fields = read_checkpoint(
            state,
            SESSION_SNAPSHOT_FORMAT,
            {
                "engine": lambda v: v,
                "window_index": int,
                "audit_this_window": bool,
                "audit_overflow": bool,
                "audit_buffer": lambda v: tuple(list(part) for part in v),
            },
        )
        parts = fields["audit_buffer"]
        if len(parts) != 4 or len({len(part) for part in parts}) != 1:
            raise ValueError(
                f"malformed {SESSION_SNAPSHOT_FORMAT!r} checkpoint: "
                "audit buffer must hold four equal-length columns"
            )
        self._engine.restore(fields["engine"])
        self._window_index = fields["window_index"]
        self._audit_this_window = fields["audit_this_window"]
        self._buf_overflow = fields["audit_overflow"]
        self._buf = parts

    @property
    def num_events(self) -> int:
        """Events incorporated since the last reset (zeroed by reset)."""
        return self._engine.num_events

    @property
    def macs_total(self) -> int:
        """Multiply-accumulates spent since the session opened.

        Unlike :attr:`num_events` this survives :meth:`reset` and
        :meth:`restore` — it is the session-lifetime work figure the
        benchmarks compare against per-window recompute.
        """
        return self._macs_total
