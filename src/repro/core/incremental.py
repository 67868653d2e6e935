"""Per-event incremental serving sessions.

Section IV's perspective — "graph convolutions could be triggered upon
the generation of each event" — is what AEGNN and EvGNN realise in
hardware.  This module is the serving-side face of that idea: a
*session* protocol that feeds a pipeline one event at a time and keeps a
running decision, so a served window costs per-event incremental work
instead of a full graph rebuild plus batch forward pass.

:class:`GNNIncrementalSession`, opened by
:meth:`~repro.core.pipeline.GNNPipeline.open_session`, is that session
over :class:`~repro.gnn.AsyncEventGNN`: the engine plus its
observability wiring — per-event latency histogram, MACs/events
counters, a ``session_state_bytes`` gauge and ``expired_nodes_total``
counter — and a session-lifetime MAC total.  Its checkpoint is the
engine's (:meth:`~GNNIncrementalSession.snapshot` /
:meth:`~GNNIncrementalSession.restore`, schema
:data:`~repro.gnn.async_network.SNAPSHOT_FORMAT`); the e2ebench
``event_serve`` workload re-serves from it.

The load-bearing property, tested end to end: at any window boundary the
session's scores are **bit-equal** to the windowed
:meth:`~repro.core.pipeline.ParadigmPipeline.predict` over the same
events (the batch forward runs its matmuls under
:class:`~repro.nn.stable_matmul`; the per-event engine runs the same
einsum on plain arrays).
"""

from __future__ import annotations

import numpy as np

from ..observability import Instrumentation, exponential_buckets

__all__ = ["GNNIncrementalSession"]

#: Per-event latencies span sub-microsecond cache hits to pathological
#: milliseconds; decade buckets from 0.1 us cover the range.
EVENT_LATENCY_BUCKETS = exponential_buckets(0.1, 10.0, 10)


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
            ``session_state_bytes`` gauge.
    """

    def __init__(
        self,
        engine,
        paradigm: str = "GNN",
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._engine = engine
        self._macs_total = 0
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
        else:
            self._clock = None
            self._latency = self._events_ctr = self._macs_ctr = None
            self._state_gauge = self._expired_ctr = None

    @property
    def engine(self):
        """The underlying :class:`~repro.gnn.AsyncEventGNN`."""
        return self._engine

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
        """Start the next window from a clean slate.

        Model weights are untouched.  Zeroes :attr:`num_events` but
        **not** :attr:`macs_total` — see the counter contract.
        """
        self._engine.reset()

    def snapshot(self) -> dict:
        """Checkpoint the session: the engine's
        :data:`~repro.gnn.async_network.SNAPSHOT_FORMAT` snapshot."""
        return self._engine.snapshot()

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`.

        :attr:`macs_total` is deliberately **not** rolled back: it
        accounts work actually spent, and replayed events after a
        restore spend real work again.

        Raises:
            ValueError: when the checkpoint is structurally
                incompatible with the engine.
        """
        self._engine.restore(state)

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
