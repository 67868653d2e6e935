"""The compact graph representation and the GraphRepresentation API.

Pins down the contracts the compact format is allowed to rely on:

* structural invariants (property-based): the in-degree cap is never
  exceeded, every edge points forward in time, and the quantization
  round-trip error is bounded by half a grid step;
* dense/compact equivalence: identical capped causal edge sets, bitwise
  identical positions/features/logits with quantization disabled,
  prediction agreement within tolerance at 8 bits, and at most one
  accuracy point lost to 8-bit serving of a trained model;
* the builder: per-event and batch insertion produce the same graph,
  and bounded mode holds flat state while matching the unbounded
  builder on the live window;
* the API redesign: the representation registry, the consolidated
  ``radius_graph`` entry point, and the config plumbing through
  ``GraphBuildConfig`` / ``GNNConfig``;
* the hw + Table-I wiring: :class:`GraphMemoryWorkload`,
  :meth:`GNNAccelerator.memory_report`, hierarchy multi-tenancy and
  :func:`attach_graph_memory`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventStream, Resolution
from repro.gnn import (
    CompactEventGraph,
    CompactGraphBuilder,
    CompactGraphRepresentation,
    DenseGraphRepresentation,
    EventGNNClassifier,
    EventGraph,
    GraphBuildConfig,
    GraphRepresentation,
    RADIUS_GRAPH_METHODS,
    REPRESENTATIONS,
    dequantize_unit,
    get_representation,
    quantize_offsets,
    quantize_unit,
    radius_graph,
    radius_graph_kdtree,
    radius_graph_naive,
    radius_graph_spatial_hash,
)
from repro.gnn.compact import NBR_EMPTY, NBR_OVERFLOW
from repro.gnn.models import build_event_graph
from repro.nn import no_grad


def make_stream(n, width=48, height=48, max_dt=30, seed=0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(1, max_dt, n))
    return EventStream.from_arrays(
        t,
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
        Resolution(width, height),
    )


def config(n=600, bits=8, representation="compact", **kw):
    return GraphBuildConfig(
        radius=4.0,
        time_scale_us=5000.0,
        max_events=n,
        max_degree=8,
        causal=True,
        representation=representation,
        quantization_bits=bits,
        **kw,
    )


# ----------------------------------------------------------------------
# Structural invariants (property-based)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    seed=st.integers(min_value=0, max_value=50),
    max_degree=st.integers(min_value=1, max_value=12),
)
def test_in_degree_cap_never_exceeded(n, seed, max_degree):
    stream = make_stream(n, seed=seed)
    cfg = GraphBuildConfig(
        radius=4.0,
        time_scale_us=5000.0,
        max_events=n,
        max_degree=max_degree,
        causal=True,
        representation="compact",
    )
    graph = build_event_graph(stream, cfg)
    assert graph.in_degrees().max(initial=0) <= max_degree


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    seed=st.integers(min_value=0, max_value=50),
)
def test_edges_respect_time_direction(n, seed):
    stream = make_stream(n, seed=seed)
    graph = build_event_graph(stream, config(n))
    assert graph.is_causal()
    e = graph.edges
    if e.size:
        # Stronger than is_causal: node ids are time-ordered, so every
        # compact edge must strictly increase in id.
        assert np.all(e[:, 0] < e[:, 1])


@settings(max_examples=50, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_quantize_unit_round_trip_bounded(bits, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, 64)
    err = np.abs(dequantize_unit(quantize_unit(values, bits), bits) - values)
    assert err.max() <= 0.5 / ((1 << bits) - 1) + 1e-12
    # Exact endpoints survive any width (polarity one-hots are lossless).
    ends = np.array([0.0, 1.0])
    assert np.array_equal(
        dequantize_unit(quantize_unit(ends, bits), bits), ends
    )


@settings(max_examples=50, deadline=None)
@given(
    bits=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
    radius=st.floats(min_value=0.5, max_value=16.0),
)
def test_quantize_offsets_round_trip_bounded(bits, seed, radius):
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-radius, radius, (32, 3))
    q, scale = quantize_offsets(offsets, radius, bits)
    err = np.abs(q.astype(np.float64) * scale - offsets)
    assert err.max() <= scale / 2 + 1e-12
    # The grid is symmetric: negation is exact on the grid.
    q_neg, _ = quantize_offsets(-offsets, radius, bits)
    assert np.array_equal(q_neg, -q)


# ----------------------------------------------------------------------
# Dense / compact equivalence
# ----------------------------------------------------------------------
def test_bit_identity_when_quantization_disabled():
    stream = make_stream(800, seed=3)
    dense = build_event_graph(stream, config(800, representation="dense"))
    compact = build_event_graph(stream, config(800, bits=0))
    assert np.array_equal(dense.edges, compact.edges)
    assert np.array_equal(dense.positions, compact.positions)
    assert np.array_equal(dense.features, compact.features)
    assert np.array_equal(dense.edge_attributes(), compact.edge_attributes())
    model = EventGNNClassifier(4, hidden=12, rng=np.random.default_rng(1))
    with no_grad():
        assert np.array_equal(model(dense).data, model(compact).data)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50))
def test_dense_vs_compact_prediction_agreement(seed):
    stream = make_stream(500, seed=seed)
    dense = build_event_graph(stream, config(500, representation="dense"))
    compact = build_event_graph(stream, config(500, bits=8))
    assert np.array_equal(dense.edges, compact.edges)
    model = EventGNNClassifier(4, hidden=12, rng=np.random.default_rng(0))
    with no_grad():
        a = model(dense).data
        b = model(compact).data
    # 8-bit quantization tolerance: logits within 5% of the dense
    # dynamic range.
    tol = 0.05 * max(np.abs(a).max(), 1e-6)
    assert np.abs(a - b).max() <= tol


def test_quantization_costs_at_most_one_accuracy_point():
    """Train in float on dense graphs, serve the same weights on 8-bit
    compact graphs of held-out recordings: accuracy moves by <= 1 point."""
    from repro.core import GNNPipeline
    from repro.datasets import make_gestures_dataset
    from repro.gnn.models import evaluate_gnn

    train = make_gestures_dataset(num_per_class=3, duration_us=100_000, seed=3)
    test = make_gestures_dataset(num_per_class=3, duration_us=100_000, seed=4)
    gnn = GNNPipeline(epochs=8, seed=0)
    gnn.fit(train)
    dense_acc = evaluate_gnn(gnn.model, test, gnn.config)
    compact_acc = evaluate_gnn(
        gnn.model,
        test,
        dataclasses.replace(
            gnn.config, representation="compact", quantization_bits=8
        ),
    )
    assert dense_acc > 1.0 / test.num_classes  # a trained model, not chance
    assert abs(dense_acc - compact_acc) * 100.0 <= 1.0


def test_include_position_features_match():
    stream = make_stream(300, seed=7)
    dense = build_event_graph(
        stream, config(300, representation="dense", include_position=True)
    )
    compact = build_event_graph(stream, config(300, bits=0, include_position=True))
    assert np.array_equal(dense.features, compact.features)
    assert dense.features.shape[1] == 4


def test_to_event_graph_round_trip():
    stream = make_stream(200, seed=2)
    compact = build_event_graph(stream, config(200, bits=0))
    dense = compact.to_event_graph()
    assert isinstance(dense, EventGraph)
    assert np.array_equal(dense.edges, compact.edges)
    assert np.array_equal(dense.positions, compact.positions)


def test_compact_is_smaller():
    stream = make_stream(2000, seed=0)
    dense = build_event_graph(stream, config(2000, representation="dense"))
    compact = build_event_graph(stream, config(2000))
    assert compact.nbytes() * 4 <= dense.nbytes()


def test_quantized_edge_attributes_require_quantization():
    stream = make_stream(100, seed=0)
    lossless = build_event_graph(stream, config(100, bits=0))
    with pytest.raises(ValueError, match="quantization is disabled"):
        lossless.quantized_edge_attributes()
    assert lossless.conv_rel_pos() is None
    quant = build_event_graph(stream, config(100, bits=8))
    q, scale = quant.quantized_edge_attributes()
    assert q.shape == (quant.num_edges, 3)
    rel = quant.conv_rel_pos()
    assert np.allclose(rel, q.astype(np.float64) * scale)


# ----------------------------------------------------------------------
# Builder: per-event vs batch, bounded mode
# ----------------------------------------------------------------------
def builder(**kw):
    return CompactGraphBuilder(
        radius=4.0, time_scale_us=5000.0, max_degree=8, **kw
    )


def test_per_event_matches_batch_builder():
    stream = make_stream(600, seed=5)
    soa = stream.soa()
    b1 = builder(quantization_bits=0)
    b1.extend(soa.x, soa.y, soa.t, soa.p)
    b2 = builder(quantization_bits=0)
    for i in range(len(stream)):
        b2.append(int(soa.x[i]), int(soa.y[i]), int(soa.t[i]), int(soa.p[i]))
    g1, g2 = b1.graph(), b2.graph()
    assert np.array_equal(g1.nbr, g2.nbr)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.positions, g2.positions)
    assert np.array_equal(g1.features, g2.features)


def test_builder_matches_batch_pipeline():
    stream = make_stream(600, seed=9)
    batch = build_event_graph(stream, config(600, bits=0))
    soa = stream.soa()
    b = builder(quantization_bits=0)
    b.extend(soa.x, soa.y, soa.t, soa.p)
    incremental = b.graph()
    assert np.array_equal(batch.edges, incremental.edges)
    assert np.array_equal(batch.positions, incremental.positions)


def test_bounded_builder_state_is_flat():
    stream = make_stream(20_000, seed=1)
    soa = stream.soa()
    b = builder(max_live_nodes=256)
    sizes = [b.state_bytes()]
    for i in range(len(stream)):
        b.append(int(soa.x[i]), int(soa.y[i]), int(soa.t[i]), int(soa.p[i]))
        sizes.append(b.state_bytes())
    # Every array is allocated at its final size up front: the state is
    # identical from before the first event to the last.
    assert len(set(sizes)) == 1
    assert b.num_live_nodes <= 256
    graph = b.graph()
    assert graph.num_nodes == b.num_live_nodes
    assert graph.is_causal()
    assert graph.in_degrees().max(initial=0) <= 8
    assert graph.ov_src.size == 0  # all live deltas fit uint16


def test_grow_builder_keeps_no_edge_log():
    # Edges go straight into the neighbour table, batched or per event:
    # the builder's state is its node store and nothing else.
    stream = make_stream(3_000, seed=2)
    soa = stream.soa()
    b = builder(quantization_bits=0)
    b.extend(soa.x[:2_000], soa.y[:2_000], soa.t[:2_000], soa.p[:2_000])
    assert b.state_bytes() == b._window.state_bytes()
    for i in range(2_000, 3_000):
        b.append(int(soa.x[i]), int(soa.y[i]), int(soa.t[i]), int(soa.p[i]))
    assert b.state_bytes() == b._window.state_bytes()
    assert b.graph().num_edges > 3_000
    assert b._inserter.edges().size == 0


def test_bounded_builder_matches_unbounded_on_live_window():
    stream = make_stream(1_500, seed=4)
    soa = stream.soa()
    bounded = builder(max_live_nodes=300, quantization_bits=0)
    unbounded = builder(quantization_bits=0)
    for i in range(len(stream)):
        args = (int(soa.x[i]), int(soa.y[i]), int(soa.t[i]), int(soa.p[i]))
        bounded.append(*args)
        unbounded.append(*args)
    gb = bounded.graph()
    gu = unbounded.graph()
    lo = bounded.live_start
    assert np.array_equal(gb.positions, gu.positions[lo:])
    # Every unbounded edge with both endpoints live is also selected by
    # the bounded builder (whose candidate set is a subset, so anything
    # the full nearest-first selection kept stays in its top-k).  The
    # bounded graph may hold MORE window edges: slots freed by evicted
    # candidates are filled with more recent ones.
    eu = gu.edges
    keep = (eu[:, 0] >= lo) & (eu[:, 1] >= lo)
    window_edges = {tuple(e) for e in eu[keep].tolist()}
    bounded_edges = {tuple(e) for e in (gb.edges + lo).tolist()}
    assert window_edges <= bounded_edges
    assert gb.in_degrees().max(initial=0) <= 8
    assert gb.is_causal()


def test_builder_rejects_bad_config():
    with pytest.raises(ValueError, match="max_live_nodes"):
        builder(max_live_nodes=NBR_OVERFLOW)
    with pytest.raises(ValueError, match="quantization_bits"):
        builder(quantization_bits=1)
    with pytest.raises(ValueError, match="resolution"):
        builder(include_position=True)


def test_from_columns_validation():
    with pytest.raises(ValueError, match="uint16"):
        CompactEventGraph.from_columns(
            np.array([70000]),
            np.array([0]),
            np.array([0]),
            np.array([1]),
            np.zeros((0, 2)),
            time_scale_us=1000.0,
            radius=3.0,
            max_degree=4,
        )
    with pytest.raises(ValueError, match="causal"):
        CompactEventGraph.from_columns(
            np.array([1, 2]),
            np.array([1, 2]),
            np.array([0, 10]),
            np.array([1, -1]),
            np.array([[1, 0]]),
            time_scale_us=1000.0,
            radius=3.0,
            max_degree=4,
        )


def test_is_causal_without_and_with_time_order():
    kw = dict(time_scale_us=1000.0, radius=3.0, max_degree=4)
    cols = (np.array([1, 2, 3]), np.array([1, 2, 3]))
    p = np.array([1, -1, 1])
    edges = np.array([[0, 2], [1, 2]])
    ordered = CompactEventGraph.from_columns(*cols, np.array([0, 10, 20]), p, edges, **kw)
    assert ordered.is_causal()
    # Node 1 is later than node 2: the table's lower-id source is not
    # enough, the edge is checked against the timestamps.
    unordered = CompactEventGraph.from_columns(*cols, np.array([0, 30, 20]), p, edges, **kw)
    assert not unordered.is_causal()
    assert unordered.to_event_graph().is_causal() is False


def test_overflow_deltas_round_trip():
    # Force a delta >= 0xFFFF through from_columns' packing.
    n = 70_000
    x = np.zeros(n, dtype=np.int64)
    y = np.zeros(n, dtype=np.int64)
    t = np.arange(n, dtype=np.int64)
    p = np.ones(n, dtype=np.int64)
    edges = np.array([[0, n - 1], [n - 2, n - 1]])
    g = CompactEventGraph.from_columns(
        x, y, t, p, edges,
        time_scale_us=1000.0, radius=3.0, max_degree=4, quantization_bits=8,
    )
    assert g.ov_src.size == 1
    assert np.array_equal(g.edges, edges)
    assert (g.nbr[n - 1] == NBR_OVERFLOW).sum() == 1
    assert g.num_edges == 2


# ----------------------------------------------------------------------
# Representation registry + config plumbing
# ----------------------------------------------------------------------
def test_representation_registry():
    assert set(REPRESENTATIONS) == {"dense", "compact"}
    assert isinstance(get_representation("dense"), DenseGraphRepresentation)
    assert isinstance(get_representation("compact"), CompactGraphRepresentation)
    for rep in REPRESENTATIONS.values():
        assert isinstance(rep, GraphRepresentation)
    with pytest.raises(ValueError, match="unknown graph representation"):
        get_representation("sparse")


def test_config_validation():
    with pytest.raises(ValueError, match="representation"):
        GraphBuildConfig(representation="ragged")
    with pytest.raises(ValueError, match="quantization_bits"):
        GraphBuildConfig(quantization_bits=1)
    with pytest.raises(ValueError, match="causal"):
        GraphBuildConfig(representation="compact", causal=False)


def test_gnn_config_threads_representation():
    from repro.core.presets import GNNConfig

    cfg = GNNConfig(representation="compact", quantization_bits=4)
    graph_cfg = cfg.graph_config()
    assert graph_cfg.representation == "compact"
    assert graph_cfg.quantization_bits == 4
    assert GNNConfig().graph_config().representation == "dense"


def test_graph_representation_tags():
    stream = make_stream(100, seed=0)
    assert build_event_graph(stream, config(100, representation="dense")).representation == "dense"
    assert build_event_graph(stream, config(100)).representation == "compact"


# ----------------------------------------------------------------------
# Consolidated radius_graph entry point
# ----------------------------------------------------------------------
def test_radius_graph_dispatcher_equivalence():
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 20, (300, 3))
    reference = radius_graph_naive(points, 3.0)
    assert np.array_equal(radius_graph(points, 3.0, method="naive"), reference)
    assert np.array_equal(radius_graph(points, 3.0, method="kdtree"), reference)
    assert np.array_equal(
        radius_graph(points, 3.0, method="spatial_hash"), reference
    )
    # Default method is the fast path.
    assert np.array_equal(radius_graph(points, 3.0), reference)
    assert set(RADIUS_GRAPH_METHODS) == {"naive", "kdtree", "spatial_hash"}


def test_radius_graph_unknown_method():
    with pytest.raises(ValueError, match="method"):
        radius_graph(np.zeros((4, 3)), 1.0, method="brute")


def test_deprecated_aliases_still_work():
    rng = np.random.default_rng(1)
    points = rng.uniform(0, 10, (100, 3))
    assert np.array_equal(
        radius_graph_kdtree(points, 2.0),
        radius_graph_spatial_hash(points, 2.0),
    )


# ----------------------------------------------------------------------
# Async engine export
# ----------------------------------------------------------------------
def test_async_engine_exports_compact_graph():
    from repro.gnn import AsyncEventGNN

    stream = make_stream(300, seed=6)
    model = EventGNNClassifier(4, hidden=12, rng=np.random.default_rng(0))
    engine = AsyncEventGNN(
        model,
        radius=4.0,
        time_scale_us=5000.0,
        window_us=1 << 62,
        max_degree=8,
    )
    for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p):
        engine.process_event(int(x), int(y), int(t), int(p))
    compact = engine.built_compact_graph(quantization_bits=0)
    batch = build_event_graph(stream, config(300, bits=0))
    assert np.array_equal(compact.edges, batch.edges)
    assert np.array_equal(compact.positions, batch.positions)
    assert np.array_equal(compact.features, batch.features)

    bounded = AsyncEventGNN(
        model,
        radius=4.0,
        time_scale_us=5000.0,
        window_us=1 << 62,
        max_degree=8,
        max_live_nodes=64,
    )
    with pytest.raises(RuntimeError, match="bounded"):
        bounded.built_compact_graph()


# ----------------------------------------------------------------------
# hw cost models + Table-I wiring
# ----------------------------------------------------------------------
def test_graph_memory_workload_from_graph():
    from repro.hw import GraphMemoryWorkload

    stream = make_stream(500, seed=0)
    dense = build_event_graph(stream, config(500, representation="dense"))
    compact = build_event_graph(stream, config(500))
    wd = GraphMemoryWorkload.from_graph(dense)
    wc = GraphMemoryWorkload.from_graph(compact)
    assert wd.representation == "dense" and wd.word_bits == 64
    assert wc.representation == "compact" and wc.word_bits == 8
    assert wc.max_degree == 8
    assert wd.bytes_per_event > 4 * wc.bytes_per_event
    with pytest.raises(ValueError, match="representation"):
        GraphMemoryWorkload("ragged", 10, 10, 100)


def test_memory_report_scores_compact_cheaper():
    from repro.hw import GNNAccelerator, GNNWorkload, GraphMemoryWorkload

    stream = make_stream(800, seed=0)
    dense = build_event_graph(stream, config(800, representation="dense"))
    compact = build_event_graph(stream, config(800))
    accel = GNNAccelerator(features_in_dram=False)
    workload = GNNWorkload(
        num_nodes=dense.num_nodes,
        num_edges=dense.num_edges,
        feature_dim=12,
    )
    rd = accel.memory_report(workload, GraphMemoryWorkload.from_graph(dense))
    rc = accel.memory_report(workload, GraphMemoryWorkload.from_graph(compact))
    assert rc["footprint_bytes"] * 4 <= rd["footprint_bytes"]
    assert rc["traffic_bytes_per_pass"] < rd["traffic_bytes_per_pass"]
    assert rc["streams_resident"] >= rd["streams_resident"]
    assert rc["energy_pj"] <= rd["energy_pj"]
    for key in ("level", "bytes_per_event", "traffic_bytes_per_event"):
        assert key in rd and key in rc


def test_streams_per_level():
    from repro.hw import default_hierarchy

    h = default_hierarchy()
    streams = h.streams_per_level(7000)
    assert streams["sram-8KB"] == 1
    assert streams["sram-1MB"] > streams["sram-8KB"]
    with pytest.raises(ValueError, match="positive"):
        h.streams_per_level(0)


def test_attach_graph_memory():
    from repro.core.comparison import ComparisonResult, attach_graph_memory
    from repro.core.metrics import PipelineMetrics
    from repro.core.ratings import Rating

    nan = float("nan")
    metrics = {
        "SNN": PipelineMetrics(paradigm="SNN"),
        "CNN": PipelineMetrics(paradigm="CNN"),
        "GNN": PipelineMetrics(
            paradigm="GNN", graph_memory_dense=120.0, graph_memory_compact=28.0
        ),
    }
    result = ComparisonResult(metrics=metrics)
    attach_graph_memory(result)
    assert [a.key for a in result.extra_axes] == [
        "graph_memory_dense",
        "graph_memory_compact",
    ]
    assert result.rating("graph_memory_dense", "SNN") is Rating.UNKNOWN
    assert result.rating("graph_memory_compact", "CNN") is Rating.UNKNOWN
    assert result.rating("graph_memory_compact", "GNN") is not Rating.UNKNOWN
    assert metrics["GNN"].graph_memory_dense == 120.0
    # Idempotent: re-attaching must not duplicate the axes.
    attach_graph_memory(
        result,
        dense={"SNN": nan, "CNN": nan, "GNN": 120.0},
        compact={"SNN": nan, "CNN": nan, "GNN": 28.0},
    )
    assert len(result.extra_axes) == 2
    with pytest.raises(ValueError, match="exactly"):
        attach_graph_memory(result, dense={"GNN": 1.0})


def test_dense_nbytes_accounting():
    stream = make_stream(100, seed=0)
    dense = build_event_graph(stream, config(100, representation="dense"))
    expected = (
        dense.positions.nbytes + dense.features.nbytes + dense.edges.nbytes
    )
    assert dense.nbytes() == expected
    assert dense.in_degrees().sum() == dense.num_edges
