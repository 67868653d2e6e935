"""Per-event incremental serving: session API + executor event mode."""

import numpy as np
import pytest

from repro.core import (
    CNNPipeline,
    GNNIncrementalSession,
    GNNPipeline,
    IncrementalSession,
    NotFittedError,
    SNNPipeline,
)
from repro.datasets import make_gestures_dataset
from repro.events.ops import split_by_time
from repro.gnn import GraphBuildConfig
from repro.gnn.models import build_event_graph
from repro.nn import no_grad
from repro.observability import Instrumentation, validate_snapshot
from repro.streaming import (
    BreakerPolicy,
    ServiceModel,
    ShedPolicy,
    StreamingExecutor,
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


def count_mod(stream):
    return int(len(stream) % 4)


def scrubbed(report):
    """Report dict without the event-mode-only fast-path tallies."""
    d = report.to_dict()
    for key in (
        "incremental_windows",
        "incremental_events",
        "incremental_macs",
        "incremental_fallbacks",
        "incremental_refusals",
        "incremental_restores",
    ):
        d.pop(key)
    return d


class TestSessionAPI:
    def test_default_is_unsupported(self):
        for pipe in (SNNPipeline(), CNNPipeline()):
            assert pipe.supports_incremental is False
            assert pipe.incremental_capacity is None
            with pytest.raises(NotImplementedError):
                pipe.open_session()

    def test_gnn_advertises_fast_path(self, gnn):
        assert gnn.supports_incremental is True
        assert gnn.incremental_capacity == gnn.config.max_events

    def test_open_session_requires_fit(self):
        with pytest.raises(NotFittedError):
            GNNPipeline().open_session()

    def test_session_bit_equal_to_windowed_predict(self, gnn, dataset):
        """The tentpole invariant: same events, same bits, per window."""
        session = gnn.open_session()
        assert isinstance(session, IncrementalSession)
        stream = dataset.samples[0].stream
        for window in split_by_time(stream, WINDOW_US):
            if not 0 < len(window) <= gnn.incremental_capacity:
                continue
            session.reset()
            session.process_stream(window)
            graph = build_event_graph(window, gnn.config)
            with no_grad():
                batch_scores = gnn.model(graph).data[0]
            assert np.array_equal(session.scores(), batch_scores)
            assert session.predict() == gnn.predict(window)

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
    def _run(self, pipe, stream, mode, **kw):
        defaults = dict(window_us=WINDOW_US, service=ServiceModel(100.0, 0.1))
        defaults.update(kw)
        ex = StreamingExecutor(pipe, serve_mode=mode, **defaults)
        return ex.run(stream), ex

    def test_rejects_bad_mode(self, gnn):
        with pytest.raises(ValueError):
            StreamingExecutor(gnn, window_us=WINDOW_US, serve_mode="stream")

    def test_event_mode_matches_window_mode(self, gnn, dataset):
        stream = dataset.samples[0].stream
        r_win, _ = self._run(gnn, stream, "window")
        r_evt, ex = self._run(gnn, stream, "event")
        assert r_evt.predictions == r_win.predictions
        assert scrubbed(r_evt) == scrubbed(r_win)
        assert r_evt.incremental_windows == r_evt.processed > 0
        assert r_evt.incremental_events == r_evt.processed_events
        assert r_evt.incremental_macs > 0
        assert r_evt.incremental_fallbacks == 0
        assert r_evt.accounting_errors() == []
        # Window mode reports no fast-path work at all.
        assert r_win.incremental_windows == r_win.incremental_macs == 0
        # The fast path traces under its own span name.
        import json

        blob = json.dumps(ex.snapshot())
        assert "call:GNN[incremental]" in blob

    def test_equivalence_under_tiered_shedding(self, gnn):
        """Same decisions and same shed/expiry record in both modes."""
        from repro.streaming import make_bursty_stream

        stream = make_bursty_stream(
            num_windows=25,
            window_us=WINDOW_US,
            base_events_per_window=40,
            burst_factor=4.0,
            burst_windows=(5, 15),
            seed=7,
        )
        kw = dict(
            service=ServiceModel(base_us=2000.0, per_event_us=150.0),
            queue_capacity=4,
            shed_policy=ShedPolicy(high_watermark=2, low_watermark=1),
        )
        r_win, _ = self._run(gnn, stream, "window", **kw)
        r_evt, _ = self._run(gnn, stream, "event", **kw)
        assert r_win.ledger.total_events_shed > 0  # shedding really engaged
        assert len(r_win.tiers_engaged) >= 2
        assert r_evt.predictions == r_win.predictions
        assert scrubbed(r_evt) == scrubbed(r_win)
        assert r_evt.incremental_windows > 0
        assert r_evt.accounting_errors() == []

    def test_oversize_windows_fall_back_to_windowed(self, dataset):
        """Windows beyond incremental_capacity are recomputed windowed."""
        small = GNNPipeline(
            config=GraphBuildConfig(
                radius=4.0, time_scale_us=5000.0, max_events=8, max_degree=10
            ),
            epochs=1,
            seed=0,
        )
        small.fit(dataset)
        stream = dataset.samples[0].stream  # windows far larger than 8
        r_win, _ = self._run(small, stream, "window")
        r_evt, ex = self._run(small, stream, "event")
        assert r_evt.predictions == r_win.predictions
        assert r_evt.incremental_windows == 0
        assert r_evt.processed > 0
        import json

        blob = json.dumps(ex.snapshot())
        assert "call:GNN[recompute]" in blob
        assert "call:GNN[incremental]" not in blob

    def test_fast_path_trip_recomputes_windowed(self, gnn, dataset):
        """A broken fast path falls back to windowed on the same stage."""

        class BrokenFastPath(GNNPipeline):
            def open_session(self):
                raise RuntimeError("fast path down")

        broken = BrokenFastPath(epochs=1, seed=0)
        broken.model = gnn.model  # reuse the fitted weights
        broken._resolution = gnn._resolution
        stream = dataset.samples[0].stream
        r_win, _ = self._run(gnn, stream, "window")
        r_evt, _ = self._run(broken, stream, "event")
        # Every attempt trips the fast path until its probation breaker
        # opens at the policy threshold; the open breaker then refuses
        # the remaining eligible windows.  Either way each window is
        # served by the GNN stage through windowed recompute.
        threshold = BreakerPolicy().failure_threshold
        assert r_evt.incremental_fallbacks == threshold
        assert r_evt.incremental_refusals == r_evt.processed - threshold
        assert r_evt.incremental_windows == 0
        assert r_evt.predictions == r_win.predictions
        assert r_evt.served_by == {"GNN": r_evt.processed}
        assert r_evt.accounting_errors() == []

    def test_breaker_forces_fallback_to_windowed_stage(self, gnn, dataset):
        """When the whole stage dies, the breaker routes to the fallback."""

        class DeadStage(GNNPipeline):
            def open_session(self):
                raise RuntimeError("down")

            def _predict(self, stream):
                raise RuntimeError("down")

        dead = DeadStage(epochs=1, seed=0)
        dead.model = gnn.model
        dead._resolution = gnn._resolution
        stream = dataset.samples[0].stream
        report, ex = self._run(
            dead,
            stream,
            "event",
            fallbacks=[("backup", count_mod)],
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_calls=50),
        )
        # The fast path trips until its probation breaker opens at the
        # shared threshold; by then the stage breaker (fed by the failing
        # windowed recomputes) is open too, so later windows never reach
        # the fast-path gate — no refusals are charged.
        assert report.incremental_fallbacks == 2
        assert report.incremental_refusals == 0
        assert report.served_by == {"backup": report.processed}
        assert report.processed == report.offered
        assert any(
            t.to_state.value == "open" for t in ex.breakers["GNN"].transitions
        )
        assert report.accounting_errors() == []
