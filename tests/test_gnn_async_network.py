"""Tests for the fully asynchronous event-graph inference engine."""

import numpy as np
import pytest

from repro.events import EventStream, Resolution
from repro.gnn import AsyncEventGNN, EventGNNClassifier
from repro.nn import SGD, Tensor, cross_entropy, no_grad
from repro.nn.layers import Sequential, Tanh

RES = Resolution(24, 24)


def make_stream(n=80, seed=0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(100, 1500, n))
    return EventStream.from_arrays(
        t,
        rng.integers(0, RES.width, n),
        rng.integers(0, RES.height, n),
        rng.choice([-1, 1], n),
        Resolution(RES.width, RES.height),
    )


def make_async(model=None, include_position=False, **kw):
    if model is None:
        model = EventGNNClassifier(
            3, hidden=8, in_features=4 if include_position else 2,
            rng=np.random.default_rng(1),
        )
    return AsyncEventGNN(
        model,
        radius=4.0,
        time_scale_us=2000.0,
        window_us=1_000_000,
        max_degree=8,
        resolution=RES if include_position else None,
        include_position=include_position,
    )


class TestAsyncEquivalence:
    @pytest.mark.parametrize("include_position", [False, True])
    def test_matches_batch_forward(self, include_position):
        """Per-event streaming scores are bit-equal to a batch pass.

        Exact equality (not allclose): both paths run their matmuls
        under ``stable_matmul``, so the per-event computation produces
        the same bits as the windowed forward over the final graph.
        """
        stream = make_stream(60, seed=2)
        engine = make_async(include_position=include_position)
        reports = engine.process_stream(stream)
        async_scores = reports[-1].scores

        # built_graph() carries whatever node features the engine used
        # (including positions when configured), so it feeds the batch
        # model directly.
        graph = engine.built_graph()
        with no_grad():
            batch_scores = engine.model(graph).data[0]
        assert np.array_equal(async_scores, batch_scores)

    @pytest.mark.parametrize("include_position", [False, True])
    def test_bit_equal_to_windowed_builder(self, include_position):
        """Scores are bit-equal to a forward over build_event_graph's graph.

        Unlike ``test_matches_batch_forward`` this goes through the
        *batch* graph construction pipeline (the one windowed
        ``GNNPipeline.predict`` uses), so it pins the full serving
        invariant: same edges, same features, same bits.  Each per-event
        decision must also cost fewer MACs than the rebuilt window's
        forward pass, the work the fast path exists to avoid.
        """
        from repro.gnn import GraphBuildConfig
        from repro.gnn.models import build_event_graph

        stream = make_stream(70, seed=9)
        engine = make_async(include_position=include_position)
        reports = engine.process_stream(stream)
        config = GraphBuildConfig(
            radius=4.0,
            time_scale_us=2000.0,
            max_events=10**9,
            max_degree=8,
            include_position=include_position,
        )
        graph = build_event_graph(stream, config)
        with no_grad():
            batch_scores = engine.model(graph).data[0]
        assert np.array_equal(reports[-1].scores, batch_scores)
        assert max(r.macs for r in reports) < engine.model.operation_count(graph)

    def test_node_features_match_batch(self):
        stream = make_stream(40, seed=3)
        engine = make_async()
        engine.process_stream(stream)
        graph = engine.built_graph()
        model = engine.model
        with no_grad():
            x = Tensor(graph.features)
            x = model.conv1(x, graph.edges, graph.positions).relu()
            x = model.conv2(x, graph.edges, graph.positions).relu()
        np.testing.assert_allclose(engine.node_features(), x.data, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 3, 7, 12])
    def test_macs_reconcile_with_operation_count(self, seed):
        """The per-event MACs sum to one batch forward over the built
        graph plus the head evaluations the batch does not repeat."""
        stream = make_stream(150, seed=seed)
        engine = make_async()
        reports = engine.process_stream(stream)
        model = engine.model
        graph = engine.built_graph()
        assert graph.num_edges > 0  # operation_count counts >= 1 edge
        head_macs = model.head.in_features * model.head.out_features
        assert sum(r.macs for r in reports) == (
            model.operation_count(graph) + (len(stream) - 1) * head_macs
        )

    def test_trained_after_open_then_reset(self):
        """New events use the model's current weights; a reset after
        training drops the features computed with the old ones."""
        stream = make_stream(50, seed=6)
        engine = make_async()
        engine.process_stream(stream)
        model = engine.model
        before = [p.data.copy() for p in model.parameters()]
        opt = SGD(model.parameters(), lr=0.5)
        opt.zero_grad()
        cross_entropy(model(engine.built_graph()), np.array([1])).backward()
        opt.step()
        assert any(
            not np.array_equal(b, p.data) for b, p in zip(before, model.parameters())
        )
        engine.reset()
        reports = engine.process_stream(stream)
        with no_grad():
            batch_scores = model(engine.built_graph()).data[0]
        assert np.array_equal(reports[-1].scores, batch_scores)

    def test_prediction_matches(self):
        stream = make_stream(50, seed=4)
        engine = make_async()
        engine.process_stream(stream)
        graph = engine.built_graph()
        with no_grad():
            batch_pred = int(engine.model(graph).data.argmax())
        assert engine.predict() == batch_pred


class TestAsyncMechanics:
    def test_empty_scores(self):
        engine = make_async()
        assert np.allclose(engine.scores(), 0.0)
        assert engine.num_events == 0

    def test_per_event_work_bounded(self):
        stream = make_stream(100, seed=5)
        engine = make_async()
        reports = engine.process_stream(stream)
        for r in reports:
            assert r.num_neighbours <= 8  # degree cap
            assert r.macs > 0
        # Work per event does not grow with the number of processed events.
        early = np.mean([r.macs for r in reports[5:20]])
        late = np.mean([r.macs for r in reports[-15:]])
        assert late < 5 * early

    def test_scores_evolve(self):
        stream = make_stream(60, seed=6)
        engine = make_async()
        reports = engine.process_stream(stream)
        first = reports[0].scores
        last = reports[-1].scores
        assert not np.allclose(first, last)

    def test_causal_graph_built(self):
        stream = make_stream(40, seed=7)
        engine = make_async()
        engine.process_stream(stream)
        assert engine.built_graph().is_causal()

    def test_polarity_validation(self):
        engine = make_async()
        with pytest.raises(ValueError):
            engine.process_event(0, 0, 0, 0)

    def test_requires_edgeconv(self):
        model = EventGNNClassifier(2, hidden=4, conv="spline")
        with pytest.raises(TypeError):
            AsyncEventGNN(model)

    @pytest.mark.parametrize("layer", ["conv1", "conv2"])
    @pytest.mark.parametrize("defect", ["mean", "tanh"])
    def test_requires_max_edgeconv(self, layer, defect):
        """Only max aggregation through a Linear, ReLU, Linear MLP is
        bit-equal to the batch forward: the batch mean rounds as
        ``sum * (1 / count)``, which a per-node mean does not."""
        model = EventGNNClassifier(3, hidden=8, rng=np.random.default_rng(1))
        conv = getattr(model, layer)
        if defect == "mean":
            conv.aggregation = "mean"
        else:
            first, _, last = conv.mlp.layers
            conv.mlp = Sequential(first, Tanh(), last)
        with pytest.raises(ValueError, match=layer):
            AsyncEventGNN(model)

    def test_position_requires_resolution(self):
        model = EventGNNClassifier(2, hidden=4, in_features=4)
        with pytest.raises(ValueError):
            AsyncEventGNN(model, include_position=True)

    def test_report_fields(self):
        engine = make_async()
        r = engine.process_event(5, 5, 100, 1)
        assert r.node_index == 0
        assert r.num_neighbours == 0
        assert r.scores.shape == (3,)

    @pytest.mark.parametrize(
        "include_position,width", [(False, 2), (True, 4)]
    )
    def test_empty_graph_feature_width(self, include_position, width):
        """Regression: the empty graph follows the configured layout.

        The width used to be hard-coded to 2, which broke downstream
        consumers of ``built_graph()`` before the first event whenever
        the engine ran with position features (width 4).
        """
        engine = make_async(include_position=include_position)
        graph = engine.built_graph()
        assert graph.features.shape == (0, width)
        assert graph.positions.shape == (0, 3)

    def test_out_of_order_timestamp_raises(self):
        """Regression: a timestamp before the last insertion must raise.

        Silent acceptance used to corrupt the causal-edge invariant the
        batch-equivalence guarantee rests on.
        """
        engine = make_async()
        engine.process_event(5, 5, 1000, 1)
        with pytest.raises(ValueError, match="out-of-order"):
            engine.process_event(6, 6, 500, 1)
        # Equal timestamps are legal (insertion order breaks the tie,
        # exactly as the batch builder's causal tie-break does).
        engine.process_event(6, 6, 1000, -1)
        assert engine.num_events == 2

    def test_one_head_eval_per_event(self):
        """Regression: the head runs once per event, matching the MACs.

        ``process_event`` used to charge head MACs into the report and
        then ``scores()`` re-ran the head to fill the report's scores —
        double the work, half of it unaccounted.
        """
        stream = make_stream(30, seed=8)
        engine = make_async()
        head = engine.model.head
        plan = engine._plan
        calls = {"n": 0}
        orig = plan.head

        def counting(x):
            calls["n"] += 1
            return orig(x)

        plan.head = counting
        reports = engine.process_stream(stream)
        assert calls["n"] == len(stream)
        # Reads between events are served from the cache, not the head.
        engine.scores()
        engine.predict()
        assert calls["n"] == len(stream)
        head_macs = head.in_features * head.out_features
        assert all(r.macs >= head_macs for r in reports)

    def test_warm_bounded_step_builds_no_tensor(self, monkeypatch):
        """A warmed-up bounded engine serves each event, its decision
        reads and its evictions without one autograd ``Tensor``."""
        model = EventGNNClassifier(3, hidden=8, rng=np.random.default_rng(1))
        engine = AsyncEventGNN(
            model, radius=4.0, time_scale_us=2000.0, window_us=1_000_000,
            max_degree=8, max_live_nodes=16,
        )
        stream = make_stream(120, seed=5)
        events = list(zip(stream.x, stream.y, stream.t, stream.p))
        for x, y, t, p in events[:60]:
            engine.process_event(int(x), int(y), int(t), int(p))
        built = {"n": 0}
        orig = Tensor.__init__

        def counting(self, *args, **kwargs):
            built["n"] += 1
            orig(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        reports = []
        for x, y, t, p in events[60:]:
            reports.append(engine.process_event(int(x), int(y), int(t), int(p)))
            engine.predict()
        engine.expire(int(stream.t[-1]) + 2_000_000)
        engine.scores()
        assert built["n"] == 0
        assert sum(r.num_neighbours for r in reports) > 0
        assert sum(r.expired_nodes for r in reports) > 0

    def test_reset_restores_fresh_state(self):
        stream = make_stream(40, seed=10)
        engine = make_async()
        first = engine.process_stream(stream)[-1].scores.copy()
        assert engine.num_events == len(stream)
        engine.reset()
        assert engine.num_events == 0
        assert np.allclose(engine.scores(), 0.0)
        assert engine.built_graph().num_edges == 0
        # Replaying the same stream reproduces the same bits.
        second = engine.process_stream(stream)[-1].scores
        assert np.array_equal(first, second)
        # And the reset clears the last-timestamp causality watermark.
        engine.reset()
        engine.process_event(1, 1, 5, 1)
