"""Per-event incremental serving: the GNN session API."""

import numpy as np
import pytest

from repro.core import (
    CNNPipeline,
    GNNIncrementalSession,
    GNNPipeline,
    NotFittedError,
    ParadigmPipeline,
    SNNPipeline,
)
from repro.datasets import make_gestures_dataset
from repro.events.ops import split_by_time
from repro.gnn.models import build_event_graph
from repro.nn import no_grad
from repro.observability import Instrumentation, validate_snapshot
from repro.streaming import (
    ServiceModel,
    ShedPolicy,
    StreamingExecutor,
    make_bursty_stream,
    spatial_shed,
    subsample_events,
)

WINDOW_US = 10_000


@pytest.fixture(scope="module")
def dataset():
    return make_gestures_dataset(num_per_class=2, duration_us=50_000, seed=3)


@pytest.fixture(scope="module")
def gnn(dataset):
    pipe = GNNPipeline(epochs=2, seed=0)
    pipe.fit(dataset)
    return pipe


class TestSessionAPI:
    def test_default_is_unsupported(self):
        """Only the GNN paradigm offers a per-event session."""
        assert not hasattr(ParadigmPipeline, "open_session")
        for pipe in (SNNPipeline(), CNNPipeline()):
            assert not hasattr(pipe, "open_session")

    def test_gnn_advertises_fast_path(self, gnn):
        session = gnn.open_session()
        assert isinstance(session, GNNIncrementalSession)
        engine = session.engine
        assert engine.model is gnn.model
        assert engine.radius == gnn.config.radius
        assert engine.max_degree == gnn.config.max_degree
        assert engine.max_live_nodes is None  # exact (unbounded) by default

    def test_open_session_requires_fit(self):
        with pytest.raises(NotFittedError):
            GNNPipeline().open_session()

    def test_session_bit_equal_to_windowed_predict(self, gnn, dataset):
        """The tentpole invariant: same events, same bits, per window.

        Inputs are the recording's windows plus the windows load
        shedding produces from a bursty stream (subsampled and
        spatially pooled), so equality holds on transformed input too.
        """
        session = gnn.open_session()
        assert isinstance(session, GNNIncrementalSession)
        bursty = list(
            split_by_time(
                make_bursty_stream(
                    num_windows=25,
                    window_us=WINDOW_US,
                    base_events_per_window=40,
                    burst_factor=4.0,
                    burst_windows=(5, 15),
                    seed=7,
                ),
                WINDOW_US,
            )
        )
        windows = [
            *split_by_time(dataset.samples[0].stream, WINDOW_US),
            *(subsample_events(w, 0.5) for w in bursty),
            *(spatial_shed(w, 2, refractory_us=1000) for w in bursty),
        ]
        checked = 0
        for window in windows:
            if not 0 < len(window) <= gnn.config.max_events:
                continue
            checked += 1
            session.reset()
            session.process_stream(window)
            graph = build_event_graph(window, gnn.config)
            with no_grad():
                batch_scores = gnn.model(graph).data[0]
            assert np.array_equal(session.scores(), batch_scores)
            assert session.predict() == gnn.predict(window)
        assert checked > 50

    def test_predict_event_gives_running_decision(self, gnn, dataset):
        session = gnn.open_session()
        stream = dataset.samples[1].stream
        n = min(len(stream), 20)
        decisions = [
            session.predict_event(
                int(stream.x[i]), int(stream.y[i]), int(stream.t[i]), int(stream.p[i])
            )
            for i in range(n)
        ]
        assert session.num_events == n
        assert decisions[-1] == session.predict()

    def test_session_instrumentation(self, gnn, dataset):
        obs = Instrumentation()
        gnn.instrument(obs)
        try:
            session = gnn.open_session()
            stream = dataset.samples[0].stream[:30]
            reports = session.process_stream(stream)
        finally:
            gnn.instrument(None)
        reg = obs.registry
        labels = {"paradigm": "GNN"}
        assert reg.counter_value("incremental_events_total", labels) == 30
        macs = sum(r.macs for r in reports)
        assert reg.counter_value("incremental_macs_total", labels) == macs
        assert session.macs_total == macs
        snap = obs.snapshot()
        hist = [
            h
            for h in snap["metrics"]["histograms"]
            if h["name"] == "incremental_event_latency_us"
        ]
        assert hist and hist[0]["count"] == 30
        assert validate_snapshot(snap) == []

    def test_uninstrumented_session_still_counts_macs(self, gnn, dataset):
        session = gnn.open_session()
        reports = session.process_stream(dataset.samples[0].stream[:10])
        assert session.macs_total == sum(r.macs for r in reports)
        assert session.num_events == len(reports)
        # The documented counter contract: num_events is per-window
        # (cleared by reset), macs_total is per-session (it survives).
        session.reset()
        assert session.num_events == 0
        assert session.macs_total == sum(r.macs for r in reports)  # lifetime


class TestExecutorEventMode:
    """Per-event serving through the executor as a caller-built stage."""

    def test_equivalence_under_tiered_shedding(self, gnn):
        """Same decisions and same shed/expiry record as windowed serving.

        The event stage replays every served (possibly shed) window
        through one session, resetting at window boundaries; windows
        beyond the batch builder's ``max_events`` are recomputed
        windowed, since only within capacity are the two bit-equal.
        """
        session = gnn.open_session()
        replayed = []

        def serve_per_event(window):
            if not 0 < len(window) <= gnn.config.max_events:
                return gnn.predict(window)
            session.reset()
            session.process_stream(window)
            replayed.append(len(window))
            return session.predict()

        stream = make_bursty_stream(
            num_windows=25,
            window_us=WINDOW_US,
            base_events_per_window=40,
            burst_factor=4.0,
            burst_windows=(5, 15),
            seed=7,
        )
        kw = dict(
            window_us=WINDOW_US,
            service=ServiceModel(base_us=2000.0, per_event_us=150.0),
            queue_capacity=4,
            shed_policy=ShedPolicy(high_watermark=2, low_watermark=1),
        )
        r_win = StreamingExecutor(gnn, **kw).run(stream)
        r_evt = StreamingExecutor((gnn.name, serve_per_event), **kw).run(stream)
        assert r_win.ledger.total_events_shed > 0  # shedding really engaged
        assert len(r_win.tiers_engaged) >= 2
        assert r_evt.predictions == r_win.predictions
        assert r_evt.to_dict() == r_win.to_dict()
        assert replayed  # the per-event path really served windows
        assert r_evt.accounting_errors() == []
