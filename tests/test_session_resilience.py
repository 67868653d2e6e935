"""Bounded-state serving: expiry, eviction, checkpoints."""

import copy

import numpy as np
import pytest

from repro.core import GNNPipeline
from repro.datasets import make_gestures_dataset
from repro.events.stream import EventStream, Resolution
from repro.gnn import LiveWindow
from repro.gnn.async_network import SNAPSHOT_FORMAT, AsyncEventGNN
from repro.gnn.models import build_event_graph
from repro.nn import no_grad

WINDOW_US = 10_000
RES = Resolution(48, 48)


@pytest.fixture(scope="module")
def dataset():
    return make_gestures_dataset(num_per_class=2, duration_us=50_000, seed=3)


@pytest.fixture(scope="module")
def gnn(dataset):
    pipe = GNNPipeline(epochs=2, seed=0)
    pipe.fit(dataset)
    return pipe


def make_bursts(
    num_bursts=4, events_per_burst=40, gap_us=50_000, span_us=8_000, seed=0
):
    """Bursts shorter than the liveness window, separated by larger gaps.

    While a burst is live every previous burst has fully expired, so a
    bounded engine's live set is exactly the burst — the regime where
    sliding-window serving must match batch inference bit for bit.
    """
    rng = np.random.default_rng(seed)
    t, x, y, p = [], [], [], []
    for b in range(num_bursts):
        start = b * (span_us + gap_us)
        tt = np.sort(rng.integers(start, start + span_us, size=events_per_burst))
        t.append(tt)
        x.append(rng.integers(0, RES.width, size=events_per_burst))
        y.append(rng.integers(0, RES.height, size=events_per_burst))
        p.append(rng.choice([-1, 1], size=events_per_burst))
    return EventStream.from_arrays(
        np.concatenate(t), np.concatenate(x), np.concatenate(y),
        np.concatenate(p), RES,
    )


def burst_slices(stream, gap_us=50_000):
    """Split a burst stream back into its bursts."""
    t = stream.t
    cuts = np.flatnonzero(np.diff(t) > gap_us // 2) + 1
    return [
        stream[int(a):int(b)]
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(t)])
    ]


class TestLiveWindow:
    """The one node store behind every incremental path."""

    def test_grow_maps_ids_to_rows_and_doubles(self):
        w = LiveWindow(feat=(np.float64, 2))
        for i in range(100):
            row = w.row(w.append())
            w.t[row] = i
            w.feat[row] = (i, -i)
        assert w.count == 100 and w.start == 0
        assert w.t.shape[0] == 128  # 64 rows, doubled once
        ids = np.arange(100)
        assert np.array_equal(w.rows(ids), ids)
        assert np.array_equal(w.t[w.live_rows()], ids)
        assert np.array_equal(w.feat[w.live_rows(), 1], -ids)
        assert w.evict(10**9) == 0  # grow mode keeps every node

    def test_ring_maps_ids_modulo_capacity_and_never_grows(self):
        w = LiveWindow(capacity=4, feat=(np.float64, 2))
        size = w.state_bytes()
        for i in range(10):
            w.evict(i, reserve=1)
            row = w.row(w.append())
            w.t[row] = i
        assert w.row(9) == 1
        assert np.array_equal(w.rows(np.arange(4, 8)), [0, 1, 2, 3])
        assert (w.start, w.count) == (6, 10)
        assert np.array_equal(w.t[w.live_rows()], [6, 7, 8, 9])
        assert w.state_bytes() == size

    def test_evict_reserve(self):
        w = LiveWindow(capacity=3)
        for _ in range(3):
            w.append()
        with pytest.raises(RuntimeError):
            w.append()  # full: appending would overwrite a live row
        assert w.evict(0, reserve=0) == 0  # full is within budget
        assert w.evict(0, reserve=1) == 1  # room for one more
        assert w.start == 1
        w.append()
        assert w.evict(0, reserve=3) == 3  # room for three: all go
        assert w.num_live == 0

    def test_evict_at_window_cutoff(self):
        w = LiveWindow(capacity=8, window_us=15)
        for t in (0, 10, 20, 30):
            w.t[w.row(w.append())] = t
        assert w.evict(35) == 2  # cutoff 20: t=0 and t=10 are stale
        assert w.evict(35) == 0  # t=20 sits exactly at the cutoff: live
        assert w.evict(36) == 1
        assert w.evict(10**6) == 1  # every node stale: the window empties
        assert w.num_live == 0

    @pytest.mark.parametrize("capacity", [None, 4])
    def test_snapshot_round_trip(self, capacity):
        w = LiveWindow(capacity, window_us=100, feat=(np.float64, 2))
        for i in range(7):
            w.evict(10 * i, reserve=1)
            row = w.row(w.append())
            w.t[row] = 10 * i
            w.pos[row] = (i, i + 1, i / 2)
            w.feat[row] = (i, 2 * i)
        snap = w.snapshot()
        fresh = LiveWindow(capacity, window_us=100, feat=(np.float64, 2))
        fresh.restore(snap, w.start, w.count)
        assert (fresh.start, fresh.count) == (w.start, w.count)
        for name in ("pos", "t", "feat"):
            assert np.array_equal(
                getattr(fresh, name)[fresh.live_rows()],
                getattr(w, name)[w.live_rows()],
            )
        # The snapshot owns its arrays: later appends leave it intact.
        t_before = snap["t"].copy()
        w.evict(70, reserve=1)
        w.t[w.row(w.append())] = 70
        assert np.array_equal(snap["t"], t_before)

    def test_restore_validates_before_changing_anything(self):
        w = LiveWindow(capacity=4, feat=(np.float64, 2))
        w.t[w.row(w.append())] = 5
        snap = w.snapshot()
        bad = dict(snap, feat=snap["feat"][:, :1])
        with pytest.raises(ValueError, match="feat"):
            w.restore(bad, 0, 1)
        with pytest.raises(ValueError, match="malformed"):
            w.restore(dict(snap, t=object()), 0, 1)
        with pytest.raises(ValueError, match="live range"):
            w.restore(snap, 0, 5)  # five live nodes in four rows
        with pytest.raises(ValueError, match="live range"):
            w.restore(snap, 2, 1)
        assert (w.start, w.count, int(w.t[0])) == (0, 1, 5)


class TestBoundedEngine:
    def _engine(self, gnn, **kw):
        kw.setdefault("window_us", 20_000)
        return AsyncEventGNN(
            gnn.model,
            radius=gnn.config.radius,
            time_scale_us=gnn.config.time_scale_us,
            max_degree=gnn.config.max_degree,
            resolution=gnn._resolution,
            include_position=gnn.config.include_position,
            **kw,
        )

    def test_bounded_inserter_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LiveWindow(capacity=0)

    def test_property_bounded_equals_batch_on_live_window(self, gnn):
        """Satellite: bounded per-event scores == batch forward per burst."""
        stream = make_bursts(seed=11)
        engine = self._engine(gnn, max_live_nodes=64)
        bursts = burst_slices(stream)
        assert len(bursts) == 4
        for burst in bursts:
            for t, x, y, p in zip(burst.t, burst.x, burst.y, burst.p):
                engine.process_event(int(x), int(y), int(t), int(p))
            graph = build_event_graph(burst, gnn.config)
            with no_grad():
                batch_scores = gnn.model(graph).data[0]
            assert np.array_equal(engine.scores(), batch_scores)
        assert engine.expired_nodes_total > 0  # earlier bursts really left

    def test_hard_budget_holds_and_state_is_flat(self, gnn):
        stream = make_bursts(
            num_bursts=2, events_per_burst=1500, span_us=30_000, seed=5
        )
        engine = self._engine(gnn, max_live_nodes=16, window_us=1 << 62)
        sizes = [engine.state_bytes()]
        for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p):
            report = engine.process_event(int(x), int(y), int(t), int(p))
            assert report.live_nodes <= 16
            sizes.append(engine.state_bytes())
        assert engine.num_live_nodes <= 16
        assert engine.expired_nodes_total > 0
        # Every array is allocated at its final size up front: the
        # footprint is identical from before the first event to the last.
        assert len(set(sizes)) == 1
        # ... and below what the exact engine holds after the same stream.
        exact = self._engine(gnn, window_us=1 << 62)
        exact.process_stream(stream)
        assert max(sizes) < exact.state_bytes()

    def test_dead_conv2_unit_keeps_bounded_equal_to_batch(self, gnn):
        """A conv2 unit that never fires holds a running max of 0 that
        every evicted row attains; the readout must stay exact while
        stale nodes are evicted under live ones."""
        model = copy.deepcopy(gnn.model)
        dead = 0
        for layer in (model.conv2.self_mlp, model.conv2.mlp.layers[-1]):
            layer.weight.data[dead] = 0.0
            layer.bias.data[dead] = -1e3
        engine = AsyncEventGNN(
            model,
            radius=gnn.config.radius,
            time_scale_us=gnn.config.time_scale_us,
            max_degree=gnn.config.max_degree,
            resolution=gnn._resolution,
            include_position=gnn.config.include_position,
            window_us=20_000,
            max_live_nodes=256,
        )
        rng = np.random.default_rng(21)
        # Early events in one corner, then a burst in the far corner
        # that outlives them: they expire while the burst is live, and
        # no edge joins the two groups.
        early = np.sort(rng.integers(0, 6_000, size=30))
        late = np.sort(rng.integers(12_000, 30_000, size=60))
        for t in early:
            x, y = rng.integers(0, 8, size=2)
            engine.process_event(int(x), int(y), int(t), int(rng.choice([-1, 1])))
        burst = EventStream.from_arrays(
            late,
            rng.integers(32, RES.width, size=late.size),
            rng.integers(32, RES.height, size=late.size),
            rng.choice([-1, 1], size=late.size),
            RES,
        )
        for t, x, y, p in zip(burst.t, burst.x, burst.y, burst.p):
            engine.process_event(int(x), int(y), int(t), int(p))
        assert engine.expired_nodes_total == early.size
        assert engine.num_live_nodes == late.size
        assert np.all(engine.node_features()[:, dead] == 0.0)
        with no_grad():
            batch_scores = model(build_event_graph(burst, gnn.config)).data[0]
        assert np.array_equal(engine.scores(), batch_scores)

    def test_empty_after_expiry_edge_case(self, gnn):
        """Satellite edge case: expiring everything yields the empty readout."""
        stream = make_bursts(num_bursts=1, seed=2)
        engine = self._engine(gnn, max_live_nodes=64)
        for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p):
            engine.process_event(int(x), int(y), int(t), int(p))
        expired = engine.expire(int(stream.t[-1]) + 10_000_000)
        assert expired == engine.expired_nodes_total
        assert engine.num_live_nodes == 0
        assert np.array_equal(engine.scores(), np.zeros_like(engine.scores()))

    def test_expire_requires_bounded_mode(self, gnn):
        engine = self._engine(gnn)
        with pytest.raises(ValueError):
            engine.expire(0)

    def test_scores_view_is_read_only(self, gnn):
        """Satellite: cached scores cannot be mutated by a caller."""
        stream = make_bursts(num_bursts=1, events_per_burst=10, seed=7)
        engine = self._engine(gnn)
        for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p):
            engine.process_event(int(x), int(y), int(t), int(p))
        scores = engine.scores()
        assert not scores.flags.writeable
        with pytest.raises(ValueError):
            scores[0] = 123.0
        session = gnn.open_session()
        session.process_event(5, 5, 100, 1)
        assert not session.scores().flags.writeable

    def test_engine_snapshot_restore_resumes_bit_equal(self, gnn):
        stream = make_bursts(num_bursts=2, events_per_burst=60, seed=9)
        half = len(stream) // 2
        a = self._engine(gnn, max_live_nodes=32)
        b = self._engine(gnn, max_live_nodes=32)
        for t, x, y, p in zip(
            stream.t[:half], stream.x[:half], stream.y[:half], stream.p[:half]
        ):
            a.process_event(int(x), int(y), int(t), int(p))
        snap = a.snapshot()
        b.restore(snap)
        for t, x, y, p in zip(
            stream.t[half:], stream.x[half:], stream.y[half:], stream.p[half:]
        ):
            ra = a.process_event(int(x), int(y), int(t), int(p))
            rb = b.process_event(int(x), int(y), int(t), int(p))
            assert ra.num_neighbours == rb.num_neighbours
        assert np.array_equal(a.scores(), b.scores())
        b.restore(snap)  # the snapshot dict stays valid after use
        assert b.num_events == half

    def test_restore_validates_checkpoints(self, gnn):
        bounded = self._engine(gnn, max_live_nodes=32)
        unbounded = self._engine(gnn)
        snap = bounded.snapshot()
        with pytest.raises(ValueError):
            unbounded.restore(snap)  # mode mismatch
        with pytest.raises(ValueError):
            self._engine(gnn, max_live_nodes=16).restore(snap)  # capacity
        bad = dict(snap, format="async-gnn/v0")
        with pytest.raises(ValueError):
            bounded.restore(bad)
        bad = dict(snap, x2=snap["x2"][:, :1])
        with pytest.raises(ValueError):
            bounded.restore(bad)
        assert snap["format"] == SNAPSHOT_FORMAT


class TestSessionCheckpoint:
    def test_session_restore_keeps_lifetime_macs(self, gnn, dataset):
        session = gnn.open_session()
        stream = dataset.samples[0].stream[:40]
        for t, x, y, p in zip(
            stream.t[:20], stream.x[:20], stream.y[:20], stream.p[:20]
        ):
            session.process_event(int(x), int(y), int(t), int(p))
        snap = session.snapshot()
        macs_at_snap = session.macs_total
        for t, x, y, p in zip(
            stream.t[20:], stream.x[20:], stream.y[20:], stream.p[20:]
        ):
            session.process_event(int(x), int(y), int(t), int(p))
        macs_after = session.macs_total
        session.restore(snap)
        # State rolls back; the lifetime effort counter does not.
        assert session.num_events == 20
        assert session.macs_total == macs_after > macs_at_snap

    def test_restored_clock_rejects_older_events(self, gnn, dataset):
        """A restore rolls the out-of-order clock back to the snapshot,
        and a rejected event leaves the restored state untouched."""
        session = gnn.open_session()
        stream = dataset.samples[0].stream[:20]
        k = 10
        for t, x, y, p in zip(
            stream.t[:k], stream.x[:k], stream.y[:k], stream.p[:k]
        ):
            session.process_event(int(x), int(y), int(t), int(p))
        snap = session.snapshot()
        for t, x, y, p in zip(
            stream.t[k:], stream.x[k:], stream.y[k:], stream.p[k:]
        ):
            session.process_event(int(x), int(y), int(t), int(p))
        session.restore(snap)
        scores = session.scores().copy()
        with pytest.raises(ValueError, match="out-of-order"):
            session.process_event(1, 1, int(stream.t[k - 2]) - 1, 1)
        assert session.num_events == k
        assert np.array_equal(session.scores(), scores)
        # The tail served before the restore no longer holds the clock.
        session.process_event(
            int(stream.x[k]), int(stream.y[k]), int(stream.t[k]), int(stream.p[k])
        )
        assert session.num_events == k + 1
