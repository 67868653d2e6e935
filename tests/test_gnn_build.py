"""Tests for event-graph construction and incremental insertion."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.camera import CameraConfig, EventCamera, TexturePan
from repro.events import EventStream, Resolution, concatenate
from repro.gnn import (
    CompactGraphBuilder,
    EventGraph,
    GraphBuildConfig,
    HashInserter,
    KDTreeInserter,
    NaiveInserter,
    knn_graph,
    limit_in_degree,
    make_causal,
    RADIUS_GRAPH_METHODS,
    radius_graph,
)
from repro.gnn.models import build_event_graph


def _hash_inserter(**kwargs):
    return HashInserter(**{"radius": 1.0, **kwargs})


def _naive_inserter(**kwargs):
    return NaiveInserter(**{"radius": 1.0, **kwargs})


def random_points(n, seed=0, scale=20.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, scale, (n, 3))
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    return pts


def random_stream(n=60, seed=0, width=16, height=16):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(1, 2000, n))
    return EventStream.from_arrays(
        t,
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
        Resolution(width, height),
    )


class TestEventGraph:
    def test_from_stream(self):
        s = random_stream(30)
        edges = radius_graph(s.as_point_cloud(1000.0), 5.0, method="kdtree")
        g = EventGraph.from_stream(s, edges, 1000.0)
        assert g.num_nodes == 30
        assert g.features.shape == (30, 2)
        # Polarity one-hot sums to one per node.
        np.testing.assert_allclose(g.features.sum(axis=1), 1.0)

    def test_edge_attributes(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        g = EventGraph(pts, np.zeros((2, 1)), np.array([[0, 1]]), 1000.0)
        np.testing.assert_allclose(g.edge_attributes(), [[1.0, 2.0, 3.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            EventGraph(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((0, 2)), 1.0)
        with pytest.raises(ValueError):
            EventGraph(np.zeros((3, 3)), np.zeros((2, 1)), np.zeros((0, 2)), 1.0)
        with pytest.raises(ValueError):
            EventGraph(np.zeros((3, 3)), np.zeros((3, 1)), np.array([[0, 5]]), 1.0)

    def test_mean_degree(self):
        pts = random_points(10)
        edges = radius_graph(pts, 50.0, method="naive")  # complete graph
        g = EventGraph(pts, np.zeros((10, 1)), edges, 1.0)
        assert g.mean_degree == pytest.approx(9.0)

    def test_subgraph(self):
        pts = random_points(20, seed=1)
        edges = radius_graph(pts, 8.0, method="naive")
        g = EventGraph(pts, np.zeros((20, 1)), edges, 1.0)
        sub = g.subgraph(np.arange(10))
        assert sub.num_nodes == 10
        if sub.num_edges:
            assert sub.edges.max() < 10

    def test_is_causal(self):
        pts = random_points(15, seed=2)
        edges = radius_graph(pts, 10.0, method="naive")
        g_all = EventGraph(pts, np.zeros((15, 1)), edges, 1.0)
        g_causal = EventGraph(pts, np.zeros((15, 1)), make_causal(edges, pts), 1.0)
        assert g_causal.is_causal()
        if g_all.num_edges:
            assert not g_all.is_causal()


class TestRadiusGraphEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("radius", [2.0, 5.0, 12.0])
    def test_three_algorithms_agree(self, seed, radius):
        # The k-d tree, the default call and the naive oracle.
        pts = random_points(80, seed=seed)
        e_naive = radius_graph(pts, radius, method="naive")
        np.testing.assert_array_equal(e_naive, radius_graph(pts, radius, method="kdtree"))
        np.testing.assert_array_equal(e_naive, radius_graph(pts, radius))

    def test_empty_and_single(self):
        for method in RADIUS_GRAPH_METHODS:
            assert radius_graph(np.zeros((0, 3)), 1.0, method).shape == (0, 2)
            assert radius_graph(np.zeros((1, 3)), 1.0, method).shape == (0, 2)

    def test_symmetric(self):
        pts = random_points(40, seed=3)
        edges = radius_graph(pts, 6.0, method="kdtree")
        fwd = set(map(tuple, edges))
        assert all((b, a) in fwd for a, b in fwd)

    def test_validation(self):
        pts = random_points(5)
        for method in RADIUS_GRAPH_METHODS:
            for radius in (0.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="radius"):
                    radius_graph(pts, radius, method)
            with pytest.raises(ValueError):
                radius_graph(np.zeros((4, 2)), 1.0, method)

    @given(st.integers(2, 40), st.integers(0, 20), st.floats(0.5, 20.0))
    @settings(max_examples=25, deadline=None)
    def test_kdtree_equals_naive_property(self, n, seed, radius):
        # The k-d tree against the naive oracle.
        pts = random_points(n, seed=seed)
        np.testing.assert_array_equal(
            radius_graph(pts, radius, method="naive"), radius_graph(pts, radius, method="kdtree")
        )

    def test_cluster_with_distant_outlier(self):
        """A dense cluster plus one outlier six orders of magnitude away."""
        radius = 2.0
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.0, 4.0, (64, 3))
        pts[-1] = (2e6, 2e6, 2e6)

        edges = radius_graph(pts, radius, method="kdtree")
        assert edges.shape[0] > 0  # the cluster forms a real graph
        np.testing.assert_array_equal(edges, radius_graph(pts, radius, method="naive"))

    def test_import_repro_loads_no_scipy(self):
        # scipy is imported inside the k-d tree paths only, so serving
        # that never builds a tree does not pay its import.
        code = "import sys, repro; print(any(m.startswith('scipy') for m in sys.modules))"
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestKnnAndHelpers:
    def test_knn_degree(self):
        pts = random_points(30, seed=4)
        edges = knn_graph(pts, 5)
        in_deg = np.bincount(edges[:, 1], minlength=30)
        assert np.all(in_deg == 5)

    def test_knn_small_n(self):
        pts = random_points(3)
        edges = knn_graph(pts, 10)  # k clipped to n-1
        assert np.all(np.bincount(edges[:, 1], minlength=3) == 2)
        assert knn_graph(np.zeros((1, 3)), 3).shape == (0, 2)

    def test_knn_validation(self):
        with pytest.raises(ValueError):
            knn_graph(random_points(5), 0)

    def test_knn_no_self_loops_with_duplicates(self):
        # Regression: with duplicate points, cKDTree may return a
        # duplicate as the "self" hit instead of the point itself, so
        # masking by index (not distance) used to leave a genuine
        # self-loop in the edge list.
        pts = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 5.0, 5.0]]
        )
        edges = knn_graph(pts, 2)
        assert np.all(edges[:, 0] != edges[:, 1])
        in_deg = np.bincount(edges[:, 1], minlength=4)
        assert np.all(in_deg == 2)
        # The duplicate pair must still connect to each other.
        pairs = set(map(tuple, edges))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_knn_all_points_identical(self):
        pts = np.zeros((5, 3))
        edges = knn_graph(pts, 3)
        assert np.all(edges[:, 0] != edges[:, 1])
        assert np.all(np.bincount(edges[:, 1], minlength=5) == 3)

    def test_knn_keeps_true_nearest_under_duplication(self):
        # Node 3 sits at distance 1 of the duplicated origin pair and
        # distance ~7 of node 2; its two nearest neighbours are the
        # duplicates, never itself or node 2.
        pts = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [1.0, 0.0, 0.0]]
        )
        edges = knn_graph(pts, 2)
        srcs_of_3 = {int(s) for s, d in edges if d == 3}
        assert srcs_of_3 == {0, 1}

    def test_make_causal_halves_symmetric_graph(self):
        pts = random_points(30, seed=5)
        # Ensure strictly increasing time so there are no ties.
        pts[:, 2] = np.arange(30, dtype=np.float64)
        edges = radius_graph(pts, 15.0, method="naive")
        causal = make_causal(edges, pts)
        assert causal.shape[0] == edges.shape[0] // 2

    def test_limit_in_degree(self):
        pts = random_points(40, seed=6)
        edges = radius_graph(pts, 30.0, method="naive")
        capped = limit_in_degree(edges, pts, 3)
        in_deg = np.bincount(capped[:, 1], minlength=40)
        assert in_deg.max() <= 3

    def test_limit_keeps_nearest(self):
        pts = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0], [0.1, 0, 0]], dtype=np.float64
        )
        edges = np.array([[1, 0], [2, 0], [3, 0]])
        capped = limit_in_degree(edges, pts, 2)
        assert set(map(tuple, capped)) == {(1, 0), (3, 0)}

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            limit_in_degree(np.zeros((0, 2)), random_points(3), 0)


class TestIncrementalInserters:
    def _events(self, n=150, seed=0, width=32):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.integers(50, 500, n))
        return rng.integers(0, width, n), rng.integers(0, width, n), t

    def _make(self, cls, **kw):
        return cls(radius=3.0, time_scale_us=1000.0, window_us=20_000, max_neighbours=8, **kw)

    def test_all_strategies_same_edges(self):
        xs, ys, ts = self._events()
        results = []
        for cls, kw in ((NaiveInserter, {}), (KDTreeInserter, {"rebuild_every": 16}), (HashInserter, {})):
            ins = self._make(cls, **kw)
            ins.insert_stream(xs, ys, ts)
            results.append(set(map(tuple, ins.edges())))
        assert results[0] == results[1] == results[2]

    def test_edges_are_causal(self):
        xs, ys, ts = self._events(seed=1)
        ins = self._make(HashInserter)
        ins.insert_stream(xs, ys, ts)
        edges = ins.edges()
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_hash_beats_naive_on_cost(self):
        xs, ys, ts = self._events(n=400, seed=2)
        naive = self._make(NaiveInserter)
        hashed = self._make(HashInserter)
        naive.insert_stream(xs, ys, ts)
        hashed.insert_stream(xs, ys, ts)
        assert hashed.stats.candidates_per_event < naive.stats.candidates_per_event

    def test_naive_cost_grows_with_density(self):
        # Higher event rate within the window -> more live nodes per insert.
        rng = np.random.default_rng(3)
        n = 300
        slow_t = np.cumsum(rng.integers(400, 800, n))
        fast_t = np.cumsum(rng.integers(10, 30, n))
        xs = rng.integers(0, 32, n)
        ys = rng.integers(0, 32, n)
        slow = self._make(NaiveInserter)
        fast = self._make(NaiveInserter)
        slow.insert_stream(xs, ys, slow_t)
        fast.insert_stream(xs, ys, fast_t)
        assert fast.stats.candidates_per_event > slow.stats.candidates_per_event

    def test_degree_cap_respected(self):
        xs, ys, ts = self._events(n=200, seed=4, width=4)  # dense cluster
        ins = self._make(HashInserter)
        ins.insert_stream(xs, ys, ts)
        edges = ins.edges()
        in_deg = np.bincount(edges[:, 1], minlength=ins.num_nodes)
        assert in_deg.max() <= 8

    def test_stats_fields(self):
        xs, ys, ts = self._events(n=100)
        ins = self._make(KDTreeInserter, rebuild_every=16)
        ins.insert_stream(xs, ys, ts)
        assert ins.stats.events_inserted == 100
        assert ins.stats.tree_builds >= 5
        assert ins.stats.candidates_per_event > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NaiveInserter(radius=0)
        with pytest.raises(ValueError):
            HashInserter(radius=1, window_us=0)
        with pytest.raises(ValueError):
            KDTreeInserter(radius=1, rebuild_every=0)
        with pytest.raises(ValueError):
            NaiveInserter(radius=1, max_neighbours=0)

    @pytest.mark.parametrize("cls", [NaiveInserter, KDTreeInserter, HashInserter])
    def test_per_event_insert_rejects_out_of_order(self, cls):
        ins = self._make(cls)
        ins.insert(1.0, 1.0, 100)
        ins.insert(1.0, 1.0, 200)
        before = (ins.num_nodes, ins.edges().tolist(), dataclasses.replace(ins.stats))
        with pytest.raises(ValueError, match="out-of-order"):
            ins.insert(1.0, 1.0, 50)
        assert (ins.num_nodes, ins.edges().tolist(), ins.stats) == before

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "make,field",
        [
            pytest.param(_hash_inserter, "radius", id="inserter-radius"),
            pytest.param(_hash_inserter, "time_scale_us", id="inserter-time_scale_us"),
            pytest.param(_hash_inserter, "window_us", id="inserter-window_us"),
            pytest.param(_hash_inserter, "max_neighbours", id="inserter-max_neighbours"),
            pytest.param(_naive_inserter, "max_neighbours", id="naive-max_neighbours"),
            pytest.param(GraphBuildConfig, "radius", id="config-radius"),
            pytest.param(GraphBuildConfig, "time_scale_us", id="config-time_scale_us"),
        ],
    )
    def test_non_finite_scales_rejected(self, make, field, value):
        with pytest.raises(ValueError, match="finite"):
            make(**{field: value})

    @given(st.integers(5, 60), st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_hash_equals_naive_property(self, n, seed):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.integers(10, 1000, n))
        xs = rng.integers(0, 16, n)
        ys = rng.integers(0, 16, n)
        a = self._make(NaiveInserter)
        b = self._make(HashInserter)
        a.insert_stream(xs, ys, t)
        b.insert_stream(xs, ys, t)
        assert set(map(tuple, a.edges())) == set(map(tuple, b.edges()))


# ----------------------------------------------------------------------
# The sliced causal edge kernel behind both graph builds
# ----------------------------------------------------------------------
#: Coordinates clustered at both ends of the uint16 range, so neighbours
#: exist and cell indices reach the 65535 limit.
EDGE_COORDS = st.sampled_from([0, 1, 2, 4, 65531, 65533, 65535])


@st.composite
def edge_streams(draw):
    """Streams with duplicate timestamps, duplicate points and exact
    radius ties (dt 3000 us at radius 3, time scale 1000 us)."""
    n = draw(st.integers(0, 40))
    column = st.lists(EDGE_COORDS, min_size=n, max_size=n)
    dts = draw(st.lists(st.sampled_from([0, 0, 1, 500, 3000]), min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return EventStream.from_arrays(
        np.cumsum(np.asarray(dts, dtype=np.int64)),
        draw(column),
        draw(column),
        ps,
        Resolution(65536, 65536),
    )


def pan_stream(seed, n=5_000, res=Resolution(64, 64)):
    """The shape of e2ebench's graph_build stream at a tenth of its
    size: stitched 25 ms texture pans, stretched to 100 keps."""
    parts, total = [], 0
    while total < n:
        i = len(parts)
        camera = EventCamera(res, CameraConfig(seed=20_000 + 1000 * seed + i))
        pan = TexturePan(res, vx_px_per_s=60.0, vy_px_per_s=24.0, seed=1000 * seed + i)
        part, _ = camera.record(pan, 25_000)
        parts.append(part.rezero_time().shift_time(i * 25_000))
        total += len(part)
    stream = concatenate(parts)[:n]
    t = np.round(stream.t * (n * 10 / max(int(stream.t[-1]), 1))).astype(np.int64)
    return EventStream.from_arrays(t, stream.x, stream.y, stream.p, res)


class TestCausalEdgeKernel:
    """``HashInserter.insert_many`` is the one capped causal edge kernel:
    the dense and compact builds take their edges from it, so both are
    pinned to the radius → causal → cap oracle pipeline, and the sliced
    kernel to the per-event path, under any slice size, pair cap,
    liveness window and clock origin."""

    @staticmethod
    def _oracle(stream, cfg):
        points = stream.soa().point_cloud(cfg.time_scale_us)
        edges = radius_graph(points, cfg.radius, method="naive")
        return limit_in_degree(make_causal(edges, points), points, cfg.max_degree)

    @given(
        stream=edge_streams(),
        max_degree=st.integers(1, 4),
        slice_events=st.sampled_from([1, 3, 7, 1024]),
        max_pairs=st.sampled_from([1, 5, 1_000_000]),
        # Below, at and above the radius's time reach (3000 us), which
        # edge_streams' dt steps land on exactly.
        window_us=st.sampled_from([500, 2999, 3000, 3001, 4500, 1 << 62]),
        # Clock origins: zero, a Unix-epoch microsecond clock, and one
        # past the range where the kernel trims ranges by time.
        t0=st.sampled_from([0, 1_760_000_000_000_000, 1 << 52]),
    )
    @settings(max_examples=60, deadline=None)
    def test_builds_equal_oracle_and_per_event(
        self, stream, max_degree, slice_events, max_pairs, window_us, t0
    ):
        cfg = GraphBuildConfig(
            radius=3.0,
            time_scale_us=1000.0,
            max_events=max(len(stream), 1),
            max_degree=max_degree,
            causal=True,
            quantization_bits=0,
        )
        oracle = self._oracle(stream, cfg)
        soa = stream.soa()
        kw = dict(
            radius=3.0, time_scale_us=1000.0, window_us=window_us, max_neighbours=max_degree
        )
        per_event = HashInserter(**kw)
        for x, y, t in zip(soa.x, soa.y, soa.t + t0):
            per_event.insert(float(x), float(y), int(t))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(HashInserter, "_SLICE_EVENTS", slice_events)
            mp.setattr(HashInserter, "_MAX_BATCH_PAIRS", max_pairs)
            dense = build_event_graph(stream, cfg)
            compact = build_event_graph(
                stream, dataclasses.replace(cfg, representation="compact")
            )
            sliced = HashInserter(**kw)
            sliced.insert_many(soa.x, soa.y, soa.t + t0)
        np.testing.assert_array_equal(dense.edges, oracle)
        np.testing.assert_array_equal(compact.edges, oracle)
        np.testing.assert_array_equal(sliced.edges(), per_event.edges())
        assert sliced.stats == per_event.stats
        if len(stream) <= 1:
            assert dense.num_edges == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_geometry(self, seed):
        # graph_build's geometry (radius 4 px, 5 ms time scale, degree
        # cap 8), where most events are over the cap and the previous
        # time-cell holds many pairs beyond the radius's time reach.
        stream = pan_stream(seed)
        cfg = GraphBuildConfig(
            radius=4.0,
            time_scale_us=5000.0,
            max_events=len(stream),
            max_degree=8,
            causal=True,
            quantization_bits=8,
        )
        oracle = self._oracle(stream, cfg)
        for rep in ("dense", "compact"):
            graph = build_event_graph(stream, dataclasses.replace(cfg, representation=rep))
            np.testing.assert_array_equal(graph.edges, oracle)
        soa = stream.soa()
        kw = dict(radius=4.0, time_scale_us=5000.0, window_us=1 << 62, max_neighbours=8)
        sliced, per_event = HashInserter(**kw), HashInserter(**kw)
        sliced.insert_many(soa.x, soa.y, soa.t)
        for x, y, t in zip(soa.x, soa.y, soa.t):
            per_event.insert(float(x), float(y), int(t))
        np.testing.assert_array_equal(sliced.edges(), per_event.edges())
        assert sliced.stats == per_event.stats

    def test_degree_saturation_keeps_nearest(self):
        # Eight events on one pixel, then one a pixel away: every source
        # is in radius, so the cap keeps the nearest — the latest
        # same-pixel events — with ties broken by the lower id.
        t = np.array([0, 0, 0, 10, 10, 20, 20, 20, 30])
        x = np.array([5, 5, 5, 5, 5, 5, 5, 5, 6])
        stream = EventStream.from_arrays(
            t, x, np.zeros(9, dtype=int), np.ones(9, dtype=int), Resolution(8, 8)
        )
        cfg = GraphBuildConfig(
            radius=3.0, time_scale_us=1000.0, max_events=9, max_degree=2, causal=True
        )
        graph = build_event_graph(stream, cfg)
        np.testing.assert_array_equal(graph.edges, self._oracle(stream, cfg))
        assert graph.in_degrees().max() == 2
        assert sorted(graph.edges[graph.edges[:, 1] == 8, 0]) == [5, 6]

    def test_sliced_matches_per_event_when_the_clock_restarts(self, monkeypatch):
        # Two recordings into one inserter, the second restarting the
        # clock (GNNPipeline.measure feeds its test streams this way):
        # pooled ids are then not time-ordered — the first recording's
        # oldest surviving node (t=15000) is newer than stale nodes of
        # the second — and the sliced kernel must still apply the
        # liveness window exactly as the per-event path does.
        monkeypatch.setattr(HashInserter, "_SLICE_EVENTS", 7)
        rng = np.random.default_rng(3)
        kw = dict(radius=3.0, time_scale_us=1000.0, window_us=1000, max_neighbours=4)
        sliced, per_event = HashInserter(**kw), HashInserter(**kw)
        for start in (0, 12_000):
            t = np.arange(start, 21_000, 100)
            x = rng.integers(0, 4, t.size).astype(float)
            y = rng.integers(0, 4, t.size).astype(float)
            sliced.insert_many(x, y, t)
            for xi, yi, ti in zip(x, y, t):
                # The public insert() rejects the restart; its unchecked
                # core is the per-event reference here.
                per_event._insert_one(
                    float(xi), float(yi), int(ti), per_event._append_edges
                )
        np.testing.assert_array_equal(sliced.edges(), per_event.edges())
        assert sliced.stats == per_event.stats


class TestBuilderRejectsOutOfOrder:
    """Node ids are time-ordered: a compact-builder input whose first
    timestamp precedes the last event's would link new nodes to future
    ones, so it is rejected before any state changes."""

    @pytest.mark.parametrize("max_live_nodes", [None, 16])
    def test_compact_builder(self, max_live_nodes):
        b = CompactGraphBuilder(
            radius=1.0, time_scale_us=1000.0, max_degree=4, max_live_nodes=max_live_nodes
        )
        b.extend([1, 1], [1, 1], [100, 200], [1, -1])

        def state():
            g = b.graph()
            return b.num_events, b.state_bytes(), g.edges.tolist(), g.nbr.tolist()

        before = state()
        with pytest.raises(ValueError, match="out-of-order"):
            b.append(1, 1, 150, 1)
        with pytest.raises(ValueError, match="out-of-order"):
            b.extend([1], [1], [50], [1])
        with pytest.raises(ValueError, match="non-decreasing"):
            b.extend([1, 1, 1], [1, 1, 1], [300, 400, 350], [1, 1, 1])
        with pytest.raises(ValueError, match="uint16"):
            b.extend([1, 70_000], [1, 1], [300, 400], [1, 1])
        assert state() == before


class TestRingModeOracle:
    """A bounded builder's per-event edges after many capacity evictions
    equal a brute-force nearest-k over the live ids ``[start, count)``,
    and its hash buckets keep the once-per-capacity prune contract."""

    def test_bounded_builder_matches_brute_force(self):
        capacity, k, radius = 24, 6, 3.0
        rng = np.random.default_rng(0)
        n = 1_500
        xs = rng.integers(0, 8, n)
        ys = rng.integers(0, 8, n)
        # Steps of 1/16 time unit: exact distances, so ties are common,
        # and ~100 events per two time-cells, so bucket memory is
        # bounded by pruning, not by time-cell expiry.
        ts = np.cumsum(rng.integers(0, 3, n) * 125)
        b = CompactGraphBuilder(
            radius=radius,
            time_scale_us=2000.0,
            max_degree=k,
            quantization_bits=0,
            max_live_nodes=capacity,  # the window outlives the stream
        )
        pos = np.stack([xs, ys, ts / 2000.0], axis=1).astype(np.float64)
        capped = straddling = most_entries = 0
        for i in range(n):
            b.append(int(xs[i]), int(ys[i]), int(ts[i]), 1)
            g = b.graph()
            start = b.live_start
            got = np.sort(g.edges[g.edges[:, 1] == g.num_nodes - 1, 0] + start)

            live = np.arange(start, i, dtype=np.int64)
            d = pos[live] - pos[i]
            dist2 = np.einsum("ij,ij->i", d, d)
            near = dist2 <= radius * radius
            ids, dist2 = live[near], dist2[near]
            capped += ids.size > k
            if ids.size > k:
                ranked = np.sort(dist2)  # sort-ok: values
                straddling += ranked[k - 1] == ranked[k]
            want = np.sort(ids[np.lexsort((ids, dist2))[:k]])  # sort-ok: unique ids
            np.testing.assert_array_equal(got, want, err_msg=f"event {i}")

            entries = sum(
                len(bucket[0])
                for grid in b._inserter._tcells.values()
                for bucket in grid.values()
            )
            assert entries <= 2 * capacity, f"event {i}: {entries} bucket entries"
            most_entries = max(most_entries, entries)
        assert b.live_start > 50 * capacity  # many capacity evictions
        assert capped > n // 3 and straddling > 20  # the cap binds, on ties too
        assert most_entries > capacity  # pruning, not expiry, bounds memory


class TestGraphBuildMemoryBound:
    """Resource-bound contract of the graph builds: the traced peak of a
    build, minus the bytes of the graph it returns, stays under one
    constant as the stream grows.  The kernel holds one slice of
    candidate pairs plus its reachable live pool; what grows with the
    stream is the node store and, in the dense build, 8-16 B per edge
    of packed keys until the final sort."""

    #: The bound: 5k and 20k events measure 7-9 MB on x86-64 (the
    #: all-pairs pipeline it replaced: 31-37 MB at 5k, 163-190 MB at 20k).
    TRANSIENT_BYTES = 16 * 2**20

    @staticmethod
    def _stream(n, seed=0):
        # 64x64 sensor at 100 keps (10 us mean spacing): the density of
        # the end-to-end graph_build stream (91 vs 94 candidates and 7.8
        # vs 7.6 edges per event with the config below).
        rng = np.random.default_rng(seed)
        return EventStream.from_arrays(
            np.cumsum(rng.integers(0, 21, n)),
            rng.integers(0, 64, n),
            rng.integers(0, 64, n),
            rng.choice([-1, 1], n),
            Resolution(64, 64),
        )

    @pytest.mark.parametrize("representation", ["dense", "compact"])
    @pytest.mark.parametrize("n", [5_000, 20_000])
    def test_transient_is_bounded(self, n, representation):
        stream = self._stream(n)
        stream.soa()  # input columns are the caller's, not the build's
        cfg = GraphBuildConfig(
            radius=4.0,
            time_scale_us=5000.0,
            max_events=n,
            max_degree=8,
            causal=True,
            representation=representation,
            quantization_bits=8,
        )
        build_event_graph(stream[:100], cfg)  # first-call allocations
        tracemalloc.start()
        try:
            graph = build_event_graph(stream, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_edges > 6 * n
        assert peak - graph.nbytes() < self.TRANSIENT_BYTES
