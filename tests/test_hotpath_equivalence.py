"""Property-style equivalence tests: vectorized hot paths vs loop oracles.

Every vectorized hot path keeps its original loop implementation as a
reference oracle (``*_reference`` functions, per-event ``insert``).
These tests drive both sides over randomized workloads engineered for
the known failure modes — negative coordinates, points exactly at the
connection radius, duplicate points, heavy timestamp ties — and require
byte-identical outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventStream, Resolution
from repro.events.ops import (
    neighbourhood_filter,
    neighbourhood_filter_reference,
    refractory_filter,
    refractory_filter_reference,
    spatial_downsample,
    spatial_downsample_reference,
)
from repro.gnn import (
    HashInserter,
    KDTreeInserter,
    NaiveInserter,
    RADIUS_GRAPH_METHODS,
    radius_graph,
)


def awkward_points(n, seed, scale=10.0):
    """Point clouds stressing the radius-graph edge cases.

    Mixes negative coordinates, exact duplicates, and pairs placed at
    exactly the test radius (distance comparisons must be inclusive on
    both sides of every implementation).
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, (n, 3))
    if n >= 4:
        pts[1] = pts[0]  # exact duplicate
        pts[3] = pts[2] + np.array([3.0, 0.0, 0.0])  # exactly radius apart
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    return pts


class TestRadiusGraphKDTreeVsNaive:
    """kdtree == the naive oracle, everywhere."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", [0.5, 3.0, 8.0])
    def test_kdtree_equals_naive(self, seed, radius):
        pts = awkward_points(50, seed)
        e_naive = radius_graph(pts, radius, method="naive")
        np.testing.assert_array_equal(e_naive, radius_graph(pts, radius, method="kdtree"))

    def test_exact_radius_pair_connects(self):
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        for method in RADIUS_GRAPH_METHODS:
            np.testing.assert_array_equal(
                radius_graph(pts, 3.0, method), [[0, 1], [1, 0]]
            )

    def test_all_duplicates(self):
        pts = np.zeros((6, 3))
        expected = radius_graph(pts, 1.0, method="naive")
        assert expected.shape[0] == 30  # complete digraph, no self-loops
        np.testing.assert_array_equal(
            expected, radius_graph(pts, 1.0, method="kdtree")
        )

    @given(
        st.integers(2, 60),
        st.integers(0, 50),
        st.floats(0.5, 12.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_kdtree_equals_naive_property(self, n, seed, radius):
        # The k-d tree against the naive oracle.
        pts = awkward_points(n, seed)
        np.testing.assert_array_equal(
            radius_graph(pts, radius, method="naive"), radius_graph(pts, radius, method="kdtree")
        )


def awkward_stream(n, seed, width=16, height=16):
    """Streams with heavy timestamp ties and full-sensor coverage."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(0, 4, n))  # ~25% exact ties
    return EventStream.from_arrays(
        t,
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
        Resolution(width, height),
    )


class TestFilterOracles:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("refractory_us", [0, 1, 3, 25])
    def test_refractory_matches_reference(self, seed, refractory_us):
        s = awkward_stream(300, seed)
        assert refractory_filter(s, refractory_us) == refractory_filter_reference(
            s, refractory_us
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_neighbourhood_matches_reference(self, seed, radius):
        s = awkward_stream(300, seed)
        assert neighbourhood_filter(s, 20, radius) == neighbourhood_filter_reference(
            s, 20, radius
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("factor,refractory_us", [(2, 0), (3, 5), (4, 40)])
    def test_downsample_matches_reference(self, seed, factor, refractory_us):
        s = awkward_stream(300, seed)
        assert spatial_downsample(s, factor, refractory_us) == (
            spatial_downsample_reference(s, factor, refractory_us)
        )

    @given(st.integers(0, 200), st.integers(0, 30), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_refractory_property(self, n, seed, refractory_us):
        s = awkward_stream(n, seed) if n else EventStream.empty(Resolution(16, 16))
        assert refractory_filter(s, refractory_us) == refractory_filter_reference(
            s, refractory_us
        )


#: The inserter-equivalence workloads, as ``(seed, pixels)``: uniform
#: float coordinates, where distance ties almost never occur, and
#: integer pixels on an 8x8 sensor with timestamps in steps of 1/8 time
#: unit, where the degree cap binds and equal ``dist2`` values fall on
#: both sides of its k-th place (checked below).
INSERTER_WORKLOADS = [pytest.param(s, False, id=str(s)) for s in range(4)] + [
    pytest.param(s, True, id=f"pixels-{s}") for s in range(4)
]


class TestInserterEquivalence:
    """All insertion strategies build the same graph, by the same rules.

    The batched HashInserter path must also match its own per-event
    path exactly — including :class:`InsertionStats` — and the
    KDTreeInserter must agree across its tree-rebuild boundaries.
    """

    KW = dict(radius=3.0, time_scale_us=1000.0, window_us=30_000, max_neighbours=6)

    def _workload(self, n, seed, pixels=False):
        rng = np.random.default_rng(seed)
        if pixels:
            xs = rng.integers(0, 8, n).astype(np.float64)
            ys = rng.integers(0, 8, n).astype(np.float64)
            return xs, ys, np.cumsum(rng.integers(0, 3, n) * 125)
        xs = rng.uniform(-8.0, 24.0, n)  # negative coords included
        ys = rng.uniform(-8.0, 24.0, n)
        ts = np.cumsum(rng.integers(0, 2000, n))  # includes exact ties
        return xs, ys, ts

    def _run_sequential(self, cls, xs, ys, ts, **extra):
        ins = cls(**self.KW, **extra)
        for x, y, t in zip(xs, ys, ts):
            ins.insert(float(x), float(y), int(t))
        return ins

    @pytest.mark.parametrize("seed,pixels", INSERTER_WORKLOADS)
    def test_insert_many_matches_per_event(self, seed, pixels):
        xs, ys, ts = self._workload(250, seed, pixels)
        seq = self._run_sequential(HashInserter, xs, ys, ts)
        bat = HashInserter(**self.KW)
        idx = bat.insert_many(xs, ys, ts)
        np.testing.assert_array_equal(idx, np.arange(250))
        np.testing.assert_array_equal(seq.edges(), bat.edges())
        assert seq.stats == bat.stats

    @pytest.mark.parametrize("seed,pixels", INSERTER_WORKLOADS)
    def test_three_strategies_identical_edges(self, seed, pixels):
        xs, ys, ts = self._workload(200, seed, pixels)
        naive = self._run_sequential(NaiveInserter, xs, ys, ts)
        per_event = self._run_sequential(HashInserter, xs, ys, ts)
        hashed = HashInserter(**self.KW)
        hashed.insert_many(xs, ys, ts)
        np.testing.assert_array_equal(naive.edges(), per_event.edges())
        np.testing.assert_array_equal(naive.edges(), hashed.edges())

    @pytest.mark.parametrize("seed", range(4))
    def test_pixel_workload_ties_straddle_the_cap(self, seed):
        # The pixel workload must exercise what it is there for: events
        # whose in-radius distances tie across the max_neighbours-th
        # place, where only the id tie-break decides the edges.
        xs, ys, ts = self._workload(200, seed, pixels=True)
        pos = np.stack([xs, ys, ts / self.KW["time_scale_us"]], axis=1)
        k, r = self.KW["max_neighbours"], self.KW["radius"]
        straddling = 0
        for i in range(1, xs.size):
            past = np.flatnonzero(ts[:i] >= ts[i] - self.KW["window_us"])
            d = pos[past] - pos[i]
            dist2 = np.sort(np.einsum("ij,ij->i", d, d))  # sort-ok: values
            dist2 = dist2[dist2 <= r * r]
            straddling += dist2.size > k and dist2[k - 1] == dist2[k]
        assert straddling >= 3

    @pytest.mark.parametrize("rebuild_every", [1, 7, 64, 1000])
    def test_kdtree_agrees_across_rebuild_boundaries(self, rebuild_every):
        # Edges must not depend on where the periodic rebuild lands:
        # candidates are split between the tree and the linear pending
        # scan differently for each setting.
        xs, ys, ts = self._workload(150, seed=9)
        naive = self._run_sequential(NaiveInserter, xs, ys, ts)
        tree = self._run_sequential(
            KDTreeInserter, xs, ys, ts, rebuild_every=rebuild_every
        )
        np.testing.assert_array_equal(naive.edges(), tree.edges())

    def test_mixed_insert_and_insert_many(self):
        xs, ys, ts = self._workload(240, seed=11)
        seq = self._run_sequential(HashInserter, xs, ys, ts)
        mix = HashInserter(**self.KW)
        rng = np.random.default_rng(0)
        i = 0
        while i < 240:
            if rng.random() < 0.4:
                mix.insert(float(xs[i]), float(ys[i]), int(ts[i]))
                i += 1
            else:
                j = min(240, i + int(rng.integers(1, 50)))
                mix.insert_many(xs[i:j], ys[i:j], ts[i:j])
                i = j
        np.testing.assert_array_equal(seq.edges(), mix.edges())
        assert seq.stats == mix.stats

    def test_insert_many_rejects_unordered(self):
        ins = HashInserter(**self.KW)
        with pytest.raises(ValueError):
            ins.insert_many([0.0, 1.0], [0.0, 1.0], [10, 5])

    def test_insert_many_split_path_equivalent(self):
        # Force the memory-bounded split/recursion path and check it
        # still matches the per-event oracle exactly.
        xs, ys, ts = self._workload(200, seed=13)
        seq = self._run_sequential(HashInserter, xs, ys, ts)
        bat = HashInserter(**self.KW)
        bat._MAX_BATCH_PAIRS = 8
        bat.insert_many(xs, ys, ts)
        np.testing.assert_array_equal(seq.edges(), bat.edges())
        assert seq.stats == bat.stats

    @given(st.integers(1, 80), st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_insert_many_property(self, n, seed):
        xs, ys, ts = self._workload(n, seed)
        seq = self._run_sequential(HashInserter, xs, ys, ts)
        bat = HashInserter(**self.KW)
        bat.insert_many(xs, ys, ts)
        np.testing.assert_array_equal(seq.edges(), bat.edges())
        assert seq.stats == bat.stats
