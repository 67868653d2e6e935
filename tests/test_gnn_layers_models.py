"""Tests for graph conv layers, pooling and the GNN classifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventStream, Resolution
from repro.gnn import (
    EdgeConv,
    EventGNNClassifier,
    EventGraph,
    GCNConv,
    GraphBuildConfig,
    SplineConvLite,
    build_event_graph,
    evaluate_gnn,
    fit_gnn,
    global_max_pool,
    global_mean_pool,
    scatter_max,
    scatter_mean,
    scatter_sum,
    voxel_pool_graph,
)
from repro.datasets import make_shapes_dataset, train_test_split
from repro.gnn import layers as gnn_layers
from repro.nn import Adam, Tensor, cross_entropy
from repro.nn.tensor import custom_gradient

from .test_nn_tensor import numerical_grad


def toy_graph(n=12, seed=0, radius=6.0):
    from repro.gnn import radius_graph

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, (n, 3))
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    edges = radius_graph(pts, radius, method="kdtree")
    feats = rng.standard_normal((n, 2))
    return EventGraph(pts, feats, edges, 1000.0)


def _scatter_max_reference(values, index, num_targets):
    """The per-row loop ``scatter_max`` replaced: its semantics oracle."""
    index = np.asarray(index, dtype=np.int64)
    out = np.full((num_targets,) + values.shape[1:], -np.inf)
    with np.errstate(invalid="ignore"):  # NaN rows; the cell becomes 0 below
        np.maximum.at(out, index, values.data)
    empty = ~np.isfinite(out)
    out[empty] = 0.0
    # Identify, per output cell, the (first) argmax row feeding it.
    winner = np.zeros_like(values.data, dtype=bool)
    taken = np.zeros_like(out, dtype=bool)
    for row in range(values.data.shape[0]):
        tgt = index[row]
        sel = (values.data[row] == out[tgt]) & ~taken[tgt]
        winner[row] = sel
        taken[tgt] |= sel

    def backward(g):
        return [g[index] * winner]

    return custom_gradient(out, [values], backward)


def _assert_scatter_max_matches_oracle(data, index, num_targets, seed=0):
    """Outputs and gradients under a random upstream are byte-equal."""
    results = []
    for fn in (scatter_max, _scatter_max_reference):
        v = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        out = fn(v, index, num_targets)
        g = np.random.default_rng(seed).standard_normal(out.shape)
        out.backward(g)
        results.append((out.data, v.grad))
    (out, grad), (ref_out, ref_grad) = results
    assert out.shape == ref_out.shape and out.dtype == ref_out.dtype
    assert out.tobytes() == ref_out.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


_NAN, _INF = float("nan"), float("inf")

#: (values, index, num_targets) cases the oracle gate must always cover.
_SCATTER_MAX_CASES = {
    "ties_first_row_wins": ([[2.0, 1.0], [2.0, 3.0], [2.0, 3.0]], [1, 1, 1], 2),
    "post_relu_zero_rows": ([[0.0, 0.0], [0.0, 0.5], [0.0, 0.0]], [0, 0, 2], 4),
    "neg_zero_then_zero": ([-0.0, 0.0, -0.0, 0.0], [0, 0, 1, 1], 2),
    "zero_then_neg_zero": ([0.0, -0.0, -1.0, -0.0], [0, 0, 1, 1], 2),
    # One segment of every length 1..40, so a vectorised reduction folds
    # some of them out of row order whatever the SIMD width.
    "signed_zero_segments": (
        np.where(np.random.default_rng(0).integers(0, 2, 820) == 1, -0.0, 0.0),
        np.repeat(np.arange(40), np.arange(1, 41)),
        40,
    ),
    "inf_and_nan_become_zero": (
        [[_INF, 1.0], [0.0, _NAN], [-0.0, 2.0], [-_INF, -_INF]], [0, 0, 0, 1], 2
    ),
    "empty_rows": (np.zeros((0, 3)), [], 3),
    "bins_past_every_index": ([[1.0], [3.0]], [0, 0], 5),
    "one_dim": ([1.0, 5.0, 5.0, -2.0], [1, 1, 1, 0], 2),
    "three_dim": (np.arange(24.0).reshape(4, 2, 3) % 5, [0, 1, 0, 1], 3),
}


_PALETTES = [
    [0.0, -0.0],
    [0.0, -0.0, 1.0, -1.0],
    [0.0, -0.0, 1.0, -1.0, 2.5, _INF, -_INF, _NAN],
]


@st.composite
def _scatter_max_inputs(draw):
    trailing = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rows = draw(st.integers(0, 20))
    bins = draw(st.integers(1, 5))
    index = draw(st.lists(st.integers(0, bins - 1), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        # Post-ReLU activations: continuous values clipped at zero.
        elements = st.floats(-2.0, 2.0).map(lambda x: max(x, 0.0))
    else:
        elements = st.sampled_from(draw(st.sampled_from(_PALETTES)))
    size = rows * math.prod(trailing)
    flat = draw(st.lists(elements, min_size=size, max_size=size))
    values = np.array(flat, dtype=np.float64).reshape((rows,) + trailing)
    num_targets = bins + draw(st.integers(0, 2))
    return values, np.array(index, dtype=np.int64), num_targets, draw(st.integers(0, 2**32 - 1))


class TestScatterMaxOracle:
    """``scatter_max`` against the per-row loop it replaced, byte for byte."""

    @pytest.mark.parametrize("case", sorted(_SCATTER_MAX_CASES))
    def test_named_cases(self, case):
        _assert_scatter_max_matches_oracle(*_SCATTER_MAX_CASES[case])

    @settings(max_examples=300, deadline=None)
    @given(_scatter_max_inputs())
    def test_random_cases(self, inputs):
        _assert_scatter_max_matches_oracle(*inputs)

    def test_non_finite_maximum_is_zero(self):
        v = Tensor(np.array([[_NAN], [_INF], [-_INF]]), requires_grad=True)
        out = scatter_max(v, np.array([0, 1, 2]), 3)
        assert out.data.ravel().tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(out.data).any()

    def test_fit_with_oracle_is_byte_equal(self, monkeypatch):
        ds = make_shapes_dataset(
            num_per_class=2, resolution=Resolution(16, 16), duration_us=20_000, seed=0
        )
        cfg = GraphBuildConfig(radius=4.0, time_scale_us=5000.0, max_events=60)
        graphs = [build_event_graph(s.stream, cfg) for s in ds]
        calls = []

        def oracle(values, index, num_targets):
            calls.append(values.shape)
            return _scatter_max_reference(values, index, num_targets)

        fitted = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(gnn_layers, "scatter_max", oracle)
            model = EventGNNClassifier(3, hidden=8, rng=np.random.default_rng(1))
            fit_gnn(model, ds, cfg, epochs=2, graphs=graphs)
            logits = np.concatenate([model(g).data for g in graphs])
            fitted.append(([p.data.tobytes() for p in model.parameters()], logits.tobytes()))
        assert calls, "the oracle run never reached scatter_max"
        assert fitted[0] == fitted[1]


class TestScatterOps:
    def test_scatter_sum_values(self):
        v = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
        out = scatter_sum(v, np.array([0, 0, 1]), 2)
        assert out.data.tolist() == [[3.0], [3.0]]
        out.sum().backward()
        np.testing.assert_allclose(v.grad, np.ones((3, 1)))

    def test_scatter_sum_gradcheck(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 3))
        idx = np.array([0, 1, 0, 2, 1])
        t = Tensor(arr.copy(), requires_grad=True)
        (scatter_sum(t, idx, 3) * Tensor(rng.standard_normal((3, 3)))).sum().backward()
        # numerical check
        w = rng.standard_normal((3, 3))

        def f(x):
            out = np.zeros((3, 3))
            np.add.at(out, idx, x)
            return (out * w).sum()

        t2 = Tensor(arr.copy(), requires_grad=True)
        (scatter_sum(t2, idx, 3) * Tensor(w)).sum().backward()
        num = numerical_grad(lambda x: f(x), arr.copy())
        np.testing.assert_allclose(t2.grad, num, atol=1e-6)

    def test_scatter_mean(self):
        v = Tensor(np.array([[2.0], [4.0], [5.0]]), requires_grad=True)
        out = scatter_mean(v, np.array([0, 0, 1]), 3)
        assert out.data[0, 0] == 3.0
        assert out.data[1, 0] == 5.0
        assert out.data[2, 0] == 0.0  # empty bin

    def test_scatter_max_values_and_grad(self):
        v = Tensor(np.array([[1.0], [5.0], [3.0]]), requires_grad=True)
        out = scatter_max(v, np.array([0, 0, 1]), 2)
        assert out.data.tolist() == [[5.0], [3.0]]
        out.sum().backward()
        assert v.grad.tolist() == [[0.0], [1.0], [1.0]]

    def test_scatter_max_empty_bin_zero(self):
        v = Tensor(np.array([[1.0]]))
        out = scatter_max(v, np.array([1]), 3)
        assert out.data[0, 0] == 0.0
        assert out.data[2, 0] == 0.0

    def test_scatter_max_tie_single_winner(self):
        v = Tensor(np.array([[1.0], [2.0], [2.0]]), requires_grad=True)
        out = scatter_max(v, np.array([0, 0, 0]), 1)
        out.sum().backward()
        # Exactly one winner gets the gradient: the first tied row.
        assert v.grad.ravel().tolist() == [0.0, 1.0, 0.0]

    def test_scatter_validation(self):
        v = Tensor(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            scatter_sum(v, np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            scatter_max(v, np.zeros(2, dtype=np.int64), 2)

    @pytest.mark.parametrize("scatter", [scatter_sum, scatter_mean, scatter_max])
    @pytest.mark.parametrize(
        "rows, index, match",
        [
            (2, [[0], [1]], "1-D"),
            (3, [0, 1], "one index per value row"),
            (2, [0, -1], "out of range"),
            (2, [0, 2], "out of range"),
            (2, [0.9, 1.9], "integer"),
            (2, [0.0, 1.0], "integer"),
        ],
        ids=[
            "two_dim",
            "length",
            "negative",
            "past_num_targets",
            "fractional",
            "integral_float",
        ],
    )
    def test_scatter_rejects_bad_index(self, scatter, rows, index, match):
        v = Tensor(np.arange(float(rows)).reshape(rows, 1))
        with pytest.raises(ValueError, match=match):
            scatter(v, np.array(index), 2)

    @pytest.mark.parametrize("scatter", [scatter_sum, scatter_mean, scatter_max])
    def test_scatter_accepts_empty_list_index(self, scatter):
        # ``np.asarray([])`` is float64; an empty index names no bin.
        out = scatter(Tensor(np.zeros((0, 2))), [], 3)
        assert out.data.tolist() == [[0.0, 0.0]] * 3


class TestGraphConvLayers:
    def test_gcn_shapes_and_grad(self):
        g = toy_graph()
        layer = GCNConv(2, 4, rng=np.random.default_rng(0))
        out = layer(Tensor(g.features), g.edges)
        assert out.shape == (12, 4)
        out.sum().backward()
        assert layer.linear.weight.grad is not None

    def test_gcn_isolated_node_keeps_self(self):
        # A graph with no edges: GCN reduces to a per-node linear map.
        g = EventGraph(np.zeros((3, 3)), np.eye(3, 2), np.zeros((0, 2)), 1.0)
        layer = GCNConv(2, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(g.features), g.edges)
        expected = layer.linear(Tensor(g.features))
        np.testing.assert_allclose(out.data, expected.data)

    @pytest.mark.parametrize("agg", ["max", "mean"])
    def test_edgeconv_shapes(self, agg):
        g = toy_graph()
        layer = EdgeConv(2, 5, aggregation=agg, rng=np.random.default_rng(0))
        out = layer(Tensor(g.features), g.edges, g.positions)
        assert out.shape == (12, 5)

    def test_edgeconv_no_edges(self):
        g = EventGraph(np.zeros((4, 3)), np.ones((4, 2)), np.zeros((0, 2)), 1.0)
        layer = EdgeConv(2, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(g.features), g.edges, g.positions)
        assert out.shape == (4, 3)

    def test_edgeconv_uses_positions(self):
        g = toy_graph(seed=1)
        layer = EdgeConv(2, 4, rng=np.random.default_rng(0))
        out1 = layer(Tensor(g.features), g.edges, g.positions)
        out2 = layer(Tensor(g.features), g.edges, g.positions * 2.0)
        assert not np.allclose(out1.data, out2.data)

    def test_edgeconv_validation(self):
        with pytest.raises(ValueError):
            EdgeConv(2, 3, aggregation="sum")

    def test_spline_shapes_and_grad(self):
        g = toy_graph()
        layer = SplineConvLite(2, 4, num_basis=4, rng=np.random.default_rng(0))
        out = layer(Tensor(g.features), g.edges, g.positions)
        assert out.shape == (12, 4)
        out.sum().backward()
        assert layer.weights.grad is not None

    def test_spline_basis_properties(self):
        layer = SplineConvLite(2, 3, num_basis=5, offset_scale=2.0)
        b = layer.basis(np.zeros((4, 3)))
        assert b.shape == (4, 5)
        assert np.all(b > 0) and np.all(b <= 1)

    def test_spline_timing_sensitivity(self):
        # Changing only the temporal offsets must change the output:
        # this is the "precise timing deep into the network" property.
        g = toy_graph(seed=2)
        layer = SplineConvLite(2, 4, rng=np.random.default_rng(0))
        out1 = layer(Tensor(g.features), g.edges, g.positions)
        shifted = g.positions.copy()
        shifted[:, 2] *= 3.0
        out2 = layer(Tensor(g.features), g.edges, shifted)
        assert not np.allclose(out1.data, out2.data)

    def test_spline_validation(self):
        with pytest.raises(ValueError):
            SplineConvLite(2, 3, num_basis=0)
        with pytest.raises(ValueError):
            SplineConvLite(2, 3, offset_scale=0)


class TestPooling:
    def test_global_pools(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 1.0]]), requires_grad=True)
        assert global_mean_pool(x).data.tolist() == [[2.0, 3.0]]
        assert global_max_pool(x).data.tolist() == [[3.0, 5.0]]
        with pytest.raises(ValueError):
            global_mean_pool(Tensor(np.zeros(3)))
        with pytest.raises(ValueError):
            global_max_pool(Tensor(np.zeros(3)))

    def test_voxel_pool_merges(self):
        pts = np.array([[0.1, 0.1, 0.0], [0.2, 0.3, 0.1], [5.0, 5.0, 5.0]])
        feats = np.array([[1.0], [3.0], [10.0]])
        g = EventGraph(pts, feats, np.array([[0, 2], [1, 2]]), 1.0)
        pooled, cluster = voxel_pool_graph(g, (1.0, 1.0, 1.0))
        assert pooled.num_nodes == 2
        assert cluster[0] == cluster[1]
        # Mean feature of the merged voxel.
        merged = pooled.features[cluster[0]]
        assert merged[0] == pytest.approx(2.0)
        # Parallel edges dedupe to one.
        assert pooled.num_edges == 1

    def test_voxel_pool_validation(self):
        g = toy_graph()
        with pytest.raises(ValueError):
            voxel_pool_graph(g, (0.0, 1.0, 1.0))


class TestClassifier:
    def test_forward_and_opcount(self):
        g = toy_graph()
        model = EventGNNClassifier(3, hidden=8, rng=np.random.default_rng(0))
        out = model(g)
        assert out.shape == (1, 3)
        assert model.operation_count(g) > 0

    def test_opcount_scales_with_edges(self):
        model = EventGNNClassifier(3, hidden=8)
        small = toy_graph(radius=2.0)
        big = toy_graph(radius=20.0)
        assert model.operation_count(big) > model.operation_count(small)

    def test_conv_variants(self):
        g = toy_graph()
        for conv in ("edge", "spline"):
            model = EventGNNClassifier(2, hidden=4, conv=conv)
            assert model(g).shape == (1, 2)
        with pytest.raises(ValueError):
            EventGNNClassifier(2, conv="bogus")

    def test_build_event_graph_subsamples(self):
        rng = np.random.default_rng(0)
        n = 1000
        t = np.cumsum(rng.integers(1, 100, n))
        s = EventStream.from_arrays(
            t, rng.integers(0, 16, n), rng.integers(0, 16, n), rng.choice([-1, 1], n),
            Resolution(16, 16),
        )
        cfg = GraphBuildConfig(max_events=100)
        g = build_event_graph(s, cfg)
        assert g.num_nodes <= 100
        assert g.is_causal()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraphBuildConfig(radius=0)
        with pytest.raises(ValueError):
            GraphBuildConfig(max_events=0)

    def test_learns_shapes_dataset(self):
        ds = make_shapes_dataset(
            num_per_class=6, resolution=Resolution(24, 24), duration_us=40_000, seed=0
        )
        train, test = train_test_split(ds, 0.3, np.random.default_rng(0))
        cfg = GraphBuildConfig(radius=4.0, time_scale_us=5000.0, max_events=120)
        model = EventGNNClassifier(3, hidden=12, rng=np.random.default_rng(1))
        result = fit_gnn(model, train, cfg, epochs=14, lr=5e-3)
        assert result.losses[-1] < result.losses[0]
        assert result.train_accuracy >= 0.7
        assert evaluate_gnn(model, test, cfg) >= 0.5
