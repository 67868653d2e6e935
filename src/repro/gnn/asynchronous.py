"""Incremental (asynchronous) event-graph maintenance.

The ABL-GRAPH experiment: Section IV says incorporating a new event into
a continuously evolving graph with global tree search is the latency
bottleneck, and that algorithmic innovation (HUGNet, ref [72]) bought
"a four order of magnitude speed-up".

Three per-event insertion strategies over a sliding temporal window:

* :class:`NaiveInserter` — compare against *every* live node, O(N) per
  event (the strawman a full graph rebuild approximates);
* :class:`KDTreeInserter` — rebuild a k-d tree periodically and query it
  per event (the tree-search baseline, ref [75]);
* :class:`HashInserter` — constant-time bucket lookup in a spatial hash
  keyed on the (x, y) cell, with stale entries pruned lazily; because a
  *causal* (past-only, hemispherical) neighbourhood is used, arriving
  events never modify existing edges — they only append — which is what
  makes O(1) insertion possible.  :meth:`HashInserter.insert_many` is
  the batched hot path and the capped causal edge kernel of both graph
  builds: it inserts fixed time-ordered slices, each solved as one
  vectorised causal radius-graph problem, so its memory follows the
  slice rather than the input.

All three produce identical edge sets (a tested invariant) and count the
candidate comparisons performed, which is the ABL-GRAPH cost metric.

Node positions and timestamps live in a :class:`LiveWindow`, the one
structure-of-arrays node store every incremental path shares: the
serving engine (:class:`~repro.gnn.AsyncEventGNN`) and the compact
builder (:class:`~repro.gnn.CompactGraphBuilder`) declare their own
columns on it and hand it to their :class:`HashInserter`, so growth,
ring rows, eviction and state accounting are written once.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InsertionStats",
    "NaiveInserter",
    "KDTreeInserter",
    "HashInserter",
    "LiveWindow",
]


@dataclass
class InsertionStats:
    """Work accounting for a sequence of insertions.

    Attributes:
        events_inserted: number of events inserted.
        candidates_examined: pairwise distance evaluations performed.
        edges_created: directed (past → new) edges added.
        tree_builds: k-d tree (re)constructions (KDTreeInserter only).
    """

    events_inserted: int = 0
    candidates_examined: int = 0
    edges_created: int = 0
    tree_builds: int = 0

    @property
    def candidates_per_event(self) -> float:
        """Mean candidate comparisons per inserted event."""
        if self.events_inserted == 0:
            return 0.0
        return self.candidates_examined / self.events_inserted


class LiveWindow:
    """Structure-of-arrays store of an incremental event graph's nodes.

    Every node keeps one row in every column: its scaled position
    ``pos`` ``(3,)`` and raw microsecond timestamp ``t`` — the columns
    the inserters read and write — plus the columns its consumer
    declares (an engine's per-layer features, a builder's neighbour
    table).  Node ids are assigned consecutively by :meth:`append`, and
    the live ids always form the contiguous range ``[start, count)``.

    ``capacity`` decides the storage regime:

    * ``None`` (grow): columns double as nodes arrive, node ``i`` sits
      in row ``i`` and every node stays live (``start`` stays 0);
    * an int (ring): columns hold exactly ``capacity`` rows, node ``i``
      sits in row ``i % capacity`` and :meth:`evict` advances ``start``
      past stale and over-budget nodes — rows are unambiguous because
      the live ids are contiguous — so :meth:`state_bytes` never
      changes.

    Args:
        capacity: maximum live nodes (ring rows), or ``None`` to grow.
        window_us: ring mode evicts nodes older than this.
        **columns: consumer columns, ``name=(dtype, *row_shape)``;
            rows start zeroed.
    """

    def __init__(
        self, capacity: int | None = None, window_us: int = 1 << 62, **columns
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = None if capacity is None else int(capacity)
        self.window_us = int(window_us)
        self.start = 0
        self.count = 0
        self._layout = {**columns, "pos": (np.float64, 3), "t": (np.int64,)}
        rows = 64 if capacity is None else self.capacity
        for name, (dtype, *shape) in self._layout.items():
            setattr(self, name, np.zeros((rows, *shape), dtype=dtype))

    @property
    def num_live(self) -> int:
        """Nodes currently live."""
        return self.count - self.start

    def row(self, i: int) -> int:
        """Storage row of node ``i``."""
        return i if self.capacity is None else i % self.capacity

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Storage rows of the given node ids."""
        return ids if self.capacity is None else ids % self.capacity

    def live_rows(self) -> np.ndarray:
        """Rows of the live nodes, oldest first."""
        return self.rows(np.arange(self.start, self.count, dtype=np.int64))

    def append(self, n: int = 1) -> int:
        """Claim ids ``count .. count + n - 1``; returns the first.

        Grow mode doubles the columns as needed.  Ring mode never
        overwrites a live row: :meth:`evict` with ``reserve`` must have
        made room first.
        """
        first = self.count
        if self.capacity is None:
            size = self.t.shape[0]
            if first + n > size:
                size = max(first + n, 2 * size)
                for name in self._layout:
                    col = getattr(self, name)
                    grown = np.zeros((size,) + col.shape[1:], dtype=col.dtype)
                    grown[:first] = col[:first]
                    setattr(self, name, grown)
        elif first + n - self.start > self.capacity:
            raise RuntimeError("live window is full: evict() before append()")
        self.count = first + n
        return first

    def check_order(self, t_us: int) -> None:
        """Reject a timestamp earlier than the newest node's.

        Node ids are time-ordered: every causal edge rests on it.  Call
        before changing any state.

        Raises:
            ValueError: if ``t_us`` precedes the last appended node.
        """
        if self.count:
            last = int(self.t[self.row(self.count - 1)])
            if t_us < last:
                raise ValueError(
                    f"out-of-order event: t_us={t_us} precedes the last "
                    f"inserted node's {last}; timestamps must be non-decreasing"
                )

    def evict(self, t_us: int, reserve: int = 0) -> int:
        """Advance ``start`` past stale and over-budget nodes.

        A node is stale when older than ``t_us - window_us``; the budget
        leaves room for ``reserve`` more appends.  Returns the number of
        nodes evicted (always 0 in grow mode, which keeps every node).
        """
        if self.capacity is None:
            return 0
        cutoff = t_us - self.window_us
        start, n, t = self.start, self.count, self.t
        limit = n - (self.capacity - reserve)
        while start < n and (start < limit or t[start % self.capacity] < cutoff):
            start += 1
        evicted = start - self.start
        self.start = start
        return evicted

    def state_bytes(self) -> int:
        """Bytes held in the columns (fixed in ring mode)."""
        return sum(getattr(self, name).nbytes for name in self._layout)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of every column's stored rows (all rows in ring mode,
        the first ``count`` when growing)."""
        used = self.count if self.capacity is None else self.capacity
        return {name: getattr(self, name)[:used].copy() for name in self._layout}

    def restore(self, columns, start: int, count: int) -> None:
        """Load :meth:`snapshot` columns and the live range ``[start, count)``.

        Everything is validated before anything changes.

        Raises:
            ValueError: on a missing or malformed column, a shape that
                does not match this store, or an invalid live range.
        """
        if not 0 <= start <= count or (
            self.capacity is not None and count - start > self.capacity
        ):
            raise ValueError(
                f"checkpoint live range invalid: live_start={start}, count={count}"
            )
        used = count if self.capacity is None else self.capacity
        loaded = {}
        for name, (dtype, *shape) in self._layout.items():
            try:
                col = np.asarray(columns[name], dtype=dtype)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed checkpoint array {name!r}: {exc!r}"
                ) from exc
            if col.shape != (used, *shape):
                raise ValueError(
                    f"checkpoint array {name!r} has shape {col.shape}, "
                    f"expected {(used, *shape)}"
                )
            loaded[name] = col
        rows = max(64, count) if self.capacity is None else self.capacity
        for name, col in loaded.items():
            stored = np.zeros((rows,) + col.shape[1:], dtype=col.dtype)
            stored[:used] = col
            setattr(self, name, stored)
        self.start, self.count = start, count


class _InserterBase:
    """Shared state and parameters of the insertion strategies.

    Node positions and timestamps live in the inserter's
    :class:`LiveWindow` (:attr:`window`) and edges in a capacity-doubled
    log, so candidate gathering and edge retrieval are array slices,
    not per-element Python work.

    Args:
        radius: spatiotemporal connection radius (after time scaling).
        time_scale_us: microseconds per temporal unit.
        window_us: events older than this are dropped from the live set.
        max_neighbours: cap on edges created per insertion (nearest kept).
    """

    def __init__(
        self,
        radius: float,
        time_scale_us: float = 1000.0,
        window_us: int = 50_000,
        max_neighbours: int = 16,
    ) -> None:
        # ``not x > 0`` also rejects nan; isfinite rejects inf.
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        if not (time_scale_us > 0 and math.isfinite(time_scale_us)):
            raise ValueError("time_scale_us must be positive and finite")
        if not (window_us > 0 and math.isfinite(window_us)):
            raise ValueError("window_us must be positive and finite")
        if not (max_neighbours > 0 and math.isfinite(max_neighbours)):
            raise ValueError("max_neighbours must be positive and finite")
        self.radius = radius
        self.time_scale_us = time_scale_us
        self.window_us = window_us
        self.max_neighbours = max_neighbours
        self.stats = InsertionStats()
        self.window = LiveWindow()
        self._num_edges = 0
        self._edge_arr = np.empty((0, 2), dtype=np.int64)

    @property
    def num_nodes(self) -> int:
        """Total nodes inserted so far."""
        return self.window.count

    def edges(self) -> np.ndarray:
        """All (past-node → new-node) edges created, in insertion order.

        Returns a view into the internal edge buffer; do not mutate.
        """
        return self._edge_arr[: self._num_edges]

    def state_bytes(self) -> int:
        """Bytes held in the node store and the edge log."""
        return self.window.state_bytes() + self._edge_arr.nbytes

    def _append_node(self, p: np.ndarray, t_us: int) -> int:
        w = self.window
        i = w.append()
        row = w.row(i)
        w.pos[row] = p
        w.t[row] = t_us
        return i

    def _append_edges(self, src_ids: np.ndarray, dst) -> None:
        """Append ``(src, dst)`` edges; ``dst`` is a scalar or an array."""
        m = src_ids.size
        needed = self._num_edges + m
        if needed > self._edge_arr.shape[0]:
            cap = max(needed, 2 * self._edge_arr.shape[0])
            self._edge_arr = np.concatenate(
                [
                    self._edge_arr,
                    np.empty((cap - self._edge_arr.shape[0], 2), dtype=np.int64),
                ]
            )
        self._edge_arr[self._num_edges : needed, 0] = src_ids
        self._edge_arr[self._num_edges : needed, 1] = dst
        self._num_edges = needed

    def _point(self, x: float, y: float, t_us: int) -> np.ndarray:
        return np.array([x, y, t_us / self.time_scale_us], dtype=np.float64)

    def _select_edges(
        self, candidate_ids: np.ndarray, candidate_pos: np.ndarray, p: np.ndarray
    ) -> np.ndarray:
        """The new node's sources: its nearest in-radius candidates,
        sorted by id (counted in ``stats.edges_created``)."""
        d = candidate_pos - p
        dist2 = np.einsum("ij,ij->i", d, d)
        # radius * radius (not radius**2) so the threshold is bit-equal
        # to the batch builders' in repro.gnn.build for any float radius.
        in_radius = dist2 <= self.radius * self.radius
        ids = candidate_ids[in_radius]
        dist2 = dist2[in_radius]
        if ids.size > self.max_neighbours:
            # Deterministic tie-break by node id so every insertion
            # strategy selects identical edges.
            order = np.lexsort((ids, dist2))
            ids = ids[order][: self.max_neighbours]
        self.stats.edges_created += ids.size
        return np.sort(ids)  # sort-ok: unique ids

    def insert(self, x: float, y: float, t_us: int) -> int:
        """Insert one event; returns its node index.

        Raises:
            ValueError: if ``t_us`` precedes the last inserted node's
                timestamp — before any state changes.
        """
        raise NotImplementedError

    def insert_stream(self, xs, ys, ts) -> None:
        """Insert a batch of time-ordered events."""
        for x, y, t in zip(xs, ys, ts):
            self.insert(float(x), float(y), int(t))


class NaiveInserter(_InserterBase):
    """O(live-set) insertion: scan every live node per event."""

    def insert(self, x: float, y: float, t_us: int) -> int:
        self.window.check_order(t_us)
        p = self._point(x, y, t_us)
        w = self.window
        live = np.nonzero(w.t[: w.count] >= t_us - self.window_us)[0]
        self.stats.candidates_examined += live.size
        new_index = w.count
        if live.size:
            self._append_edges(self._select_edges(live, w.pos[live], p), new_index)
        self._append_node(p, t_us)
        self.stats.events_inserted += 1
        return new_index


class KDTreeInserter(_InserterBase):
    """Tree-search insertion: periodic k-d tree rebuild + per-event query.

    Args:
        rebuild_every: insertions between tree rebuilds; events arriving
            since the last rebuild are scanned linearly.
    """

    def __init__(self, *args, rebuild_every: int = 64, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if rebuild_every <= 0:
            raise ValueError("rebuild_every must be positive")
        self.rebuild_every = rebuild_every
        self._tree = None  # scipy.spatial.cKDTree over the live nodes
        self._tree_ids: np.ndarray = np.zeros(0, dtype=np.int64)
        self._pending: list[int] = []  # node ids not yet in the tree

    def _rebuild(self, now_us: int) -> None:
        w = self.window
        live = np.nonzero(w.t[: w.count] >= now_us - self.window_us)[0]
        self._tree_ids = live.astype(np.int64)
        if live.size:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(w.pos[live])
            # Tree construction touches every live point.
            self.stats.candidates_examined += live.size
        else:
            self._tree = None
        self._pending = []
        self.stats.tree_builds += 1

    def insert(self, x: float, y: float, t_us: int) -> int:
        self.window.check_order(t_us)
        p = self._point(x, y, t_us)
        w = self.window
        new_index = w.count
        cutoff = t_us - self.window_us

        ids_parts: list[np.ndarray] = []
        if self._tree is not None:
            hits = self._tree.query_ball_point(p, self.radius)
            # A k-d tree range query inspects ~log N + hits nodes.
            self.stats.candidates_examined += max(
                1, int(np.log2(self._tree.n + 1))
            ) + len(hits)
            if hits:
                nodes = self._tree_ids[np.asarray(hits, dtype=np.int64)]
                ids_parts.append(nodes[w.t[nodes] >= cutoff])
        if self._pending:
            # Linear scan of the pending (not-yet-indexed) nodes.
            self.stats.candidates_examined += len(self._pending)
            pending = np.asarray(self._pending, dtype=np.int64)
            ids_parts.append(pending[w.t[pending] >= cutoff])

        ids = (
            np.concatenate(ids_parts) if ids_parts else np.zeros(0, dtype=np.int64)
        )
        if ids.size:
            self._append_edges(self._select_edges(ids, w.pos[ids], p), new_index)
        self._append_node(p, t_us)
        self._pending.append(new_index)
        self.stats.events_inserted += 1
        if len(self._pending) >= self.rebuild_every:
            self._rebuild(t_us)
        return new_index


#: Bias that makes signed (cx, cy) cell indices packable into one
#: unsigned 64-bit key: ``(cx + bias) << 32 | (cy + bias)``.  The
#: packing needs no data-dependent parameters, so keys from different
#: batches are directly comparable.
_XY_BIAS = 1 << 31


def _pack_xy(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Pack signed (cx, cy) int64 cell indices into sortable uint64 keys."""
    return ((cx + _XY_BIAS).astype(np.uint64) << np.uint64(32)) | (
        cy + _XY_BIAS
    ).astype(np.uint64)


#: ``_batch_insert`` outcomes.
_BATCH_OK = 0  # batch fully processed
_BATCH_OVERFLOW = 1  # packed keys would overflow: use the per-event path
_BATCH_SPLIT = 2  # candidate expansion too large: recurse on halves


class HashInserter(_InserterBase):
    """O(1) insertion via a 3-D spatiotemporal hash.

    Buckets are keyed on the ``(x // r, y // r, t_scaled // r)`` cell
    (r = connection radius).  Any node within 3-D radius of a new event
    lies in one of the 9 spatially neighbouring cells of the current or
    previous time-cell, so a lookup touches at most 18 buckets.  Whole
    time-cells expire as time advances (pruning is lazy: stale
    time-cells are only scanned for when one can actually be dropped),
    so the candidate count is bounded by the *local* event density —
    independent of both the sensor size and the liveness-window length.

    Live nodes are held in two interchangeable forms: per-event
    :meth:`insert` appends to dict buckets that carry each node's
    candidate columns — an ``array("q")`` of ids, one of raw
    timestamps and an ``array("d")`` of interleaved scaled
    ``(x, y, t)`` — 40 B per node, so a lookup merges a bucket with one
    memcpy per column and filters on liveness and radius in one pass
    without reading the :class:`LiveWindow`.  :meth:`insert_many`
    stores each slice as a *block* — a cell-key-sorted id array per
    time-cell — so batched insertion never pays per-bucket Python
    bookkeeping; a per-event lookup reads a block hit's columns from
    the (grow-mode) window.  Lookups probe both forms; both expire per
    time-cell.

    Over a ring-mode :class:`LiveWindow` the inserter's own state is
    fixed too — EvGNN-style bounded graph memory (arXiv 2404.19489).
    The owner evicts through the window before each insertion; lookups
    skip ids below ``window.start`` (a node evicted for the cap may
    still be young enough to pass the time filter); hash buckets are
    pruned of evicted ids once per ``capacity`` evictions, so they never
    hold more than ``2 * capacity`` entries (at most 80 B per ring row);
    and no edge log is kept: the owner inserts one event at a time and
    takes each event's edges through its own sink, so the public
    :meth:`insert` and :meth:`insert_many` are unsupported.

    Args:
        window: the empty node store to insert into (its owner's
            columns ride along); a grow-mode store when omitted.
    """

    def __init__(self, *args, window: LiveWindow | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # time-cell index -> {(cx, cy): (ascending node ids, their raw
        # timestamps, their interleaved scaled x, y, t)}  (per-event inserts)
        self._tcells: dict[
            int, dict[tuple[int, int], tuple[array, array, array]]
        ] = {}
        # time-cell index -> [(sorted packed-xy keys, node ids)]  (batches)
        self._tblocks: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._min_tcell: int | None = None
        self._prune_floor = 0  # window.start at the last bucket prune
        if window is not None:
            self.window = window

    def _cell_xy(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.radius), math.floor(y / self.radius))

    def _cell_t(self, t_us: int) -> int:
        return math.floor(t_us / (self.time_scale_us * self.radius))

    def _expire(self, ct: int) -> None:
        """Drop time-cells too old to hold in-radius candidates.

        Lazy: the key scan only runs when the oldest live time-cell is
        actually expirable, so its cost amortises against deletions.
        """
        if self._min_tcell is None or self._min_tcell >= ct - 1:
            return
        for old in [k for k in self._tcells if k < ct - 1]:
            del self._tcells[old]
        for old in [k for k in self._tblocks if k < ct - 1]:
            del self._tblocks[old]
        live = self._tcells.keys() | self._tblocks.keys()
        self._min_tcell = min(live) if live else None

    def _gather(
        self, cx: int, cy: int, ct: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node in the ≤18 reachable buckets, unfiltered: ids,
        raw timestamps and ``(M, 3)`` scaled positions."""
        ids, ts, pos = array("q"), array("q"), array("d")
        parts: list[np.ndarray] = []
        probes: np.ndarray | None = None
        for tc in (ct - 1, ct):
            grid = self._tcells.get(tc)
            if grid:
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        bucket = grid.get((cx + dx, cy + dy))
                        if bucket is not None:
                            ids.extend(bucket[0])
                            ts.extend(bucket[1])
                            pos.extend(bucket[2])
            blocks = self._tblocks.get(tc)
            if blocks:
                if probes is None:
                    if not (
                        0 < cx + _XY_BIAS - 1
                        and cx + _XY_BIAS + 1 < 2**32
                        and 0 < cy + _XY_BIAS - 1
                        and cy + _XY_BIAS + 1 < 2**32
                    ):
                        # Cells this far out can never be in a block
                        # (insert_many guards the packing range).
                        continue
                    probes = np.empty(9, dtype=np.uint64)
                    i = 0
                    for dx in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            probes[i] = ((cx + dx + _XY_BIAS) << 32) | (
                                cy + dy + _XY_BIAS
                            )
                            i += 1
                for keys_b, ids_b in blocks:
                    lo = np.searchsorted(keys_b, probes)
                    hi = np.searchsorted(keys_b, probes, side="right")
                    for a, b in zip(lo, hi):
                        if b > a:
                            parts.append(ids_b[a:b])
            probes = None  # probe validity is per-tc loop iteration only
        rows = (
            np.frombuffer(ids, dtype=np.int64),
            np.frombuffer(ts, dtype=np.int64),
            np.frombuffer(pos, dtype=np.float64).reshape(-1, 3),
        )
        if not parts:
            return rows
        # Block hits: blocks only exist in grow mode, where node i sits
        # in row i, so their columns come straight from the window.
        hits = np.concatenate(parts)
        w = self.window
        return (
            np.concatenate((hits, rows[0])),
            np.concatenate((w.t[hits], rows[1])),
            np.concatenate((w.pos[hits], rows[2])),
        )

    def _insert_cells(
        self, p: np.ndarray, t_us: int, cx: int, cy: int, ct: int, sink
    ) -> int:
        self._expire(ct)
        ids = self._select(*self._gather(cx, cy, ct), p, t_us - self.window_us)
        new_index = self._append_node(p, t_us)
        if ids.size:
            sink(ids, new_index)
        grid = self._tcells.setdefault(ct, {})
        bucket = grid.get((cx, cy))
        if bucket is None:
            bucket = grid[(cx, cy)] = (array("q"), array("q"), array("d"))
        bucket[0].append(new_index)
        bucket[1].append(t_us)
        bucket[2].extend(p.tolist())
        if self._min_tcell is None or ct < self._min_tcell:
            self._min_tcell = ct
        self.stats.events_inserted += 1
        return new_index

    def _select(
        self,
        ids: np.ndarray,
        ts: np.ndarray,
        pos: np.ndarray,
        p: np.ndarray,
        cutoff: int,
    ) -> np.ndarray:
        """:meth:`_select_edges` over gathered rows, in one filter pass.

        Same edges and stats as the oracle: candidates are counted after
        the start and time filters, and only the survivors at or below
        the ``max_neighbours``-th smallest ``dist2`` reach the
        ``(dist2, id)`` lexsort, so ties resolve exactly as there.
        """
        keep = ts >= cutoff
        start = self.window.start
        if start:
            # A cap-evicted node can still be young enough to pass the
            # time filter.
            keep &= ids >= start
        self.stats.candidates_examined += int(np.count_nonzero(keep))
        # Column by column: a broadcast ``pos - p`` runs one 3-wide
        # inner loop per row, about twice as slow.
        d = np.empty_like(pos)
        np.subtract(pos[:, 0], p[0], out=d[:, 0])
        np.subtract(pos[:, 1], p[1], out=d[:, 1])
        np.subtract(pos[:, 2], p[2], out=d[:, 2])
        # The oracle's reduction: (d*d).sum(1) or a transposed einsum
        # can differ from it in the last bit.
        dist2 = np.einsum("ij,ij->i", d, d)
        keep &= dist2 <= self.radius * self.radius
        ids = ids[keep]
        k = self.max_neighbours
        if ids.size > k:
            dist2 = dist2[keep]
            near = dist2 <= np.partition(dist2, k - 1)[k - 1]
            ids = ids[near]
            if ids.size > k:
                ids = ids[np.lexsort((ids, dist2[near]))[:k]]
        self.stats.edges_created += ids.size
        return np.sort(ids)  # sort-ok: unique ids

    def insert(self, x: float, y: float, t_us: int) -> int:
        if self.window.capacity is not None:
            raise NotImplementedError(
                "a ring-mode window keeps no edge log; its owner takes edges "
                "per event"
            )
        self.window.check_order(t_us)
        return self._insert_one(x, y, t_us, self._append_edges)

    def _insert_one(self, x: float, y: float, t_us: int, sink) -> int:
        """Insert one event, handing its edges to ``sink(src, dst)``
        (sorted source ids, the new node id; not called when there
        are none)."""
        if self.window.capacity is not None:
            self._prune_buckets()
        cx, cy = self._cell_xy(x, y)
        return self._insert_cells(
            self._point(x, y, t_us), t_us, cx, cy, self._cell_t(t_us), sink
        )

    def _prune_buckets(self) -> None:
        """Ring mode: drop evicted ids from the hash buckets.

        Runs once per ``capacity`` evictions, so its full-bucket scan
        amortises to O(1) per event while bounding the buckets to
        ``2 * capacity`` entries: every entry has an id of at least the
        last prune's ``window.start``, and fewer than ``capacity`` ids
        lie between it and the live set (lookups already skip evicted
        ids, so pruning affects memory only, never results).
        """
        floor = self.window.start
        if floor - self._prune_floor < self.window.capacity:
            return
        for tc in list(self._tcells):
            grid = self._tcells[tc]
            for key in list(grid):
                ids, ts, pos = grid[key]
                cut = bisect_left(ids, floor)  # ids ascend in a bucket
                if cut == len(ids):
                    del grid[key]
                elif cut:
                    del ids[:cut], ts[:cut], pos[: 3 * cut]
            if not grid:
                del self._tcells[tc]
        live = self._tcells.keys() | self._tblocks.keys()
        self._min_tcell = min(live) if live else None
        self._prune_floor = floor

    #: Events per slice of :meth:`insert_many`: transient arrays scale
    #: with one slice plus its reachable live pool, never with the
    #: whole input.  On a 50k-event 64x64 stream at 100 keps (radius 4,
    #: 5 ms time scale; 2-vCPU x86 host) slices of 1024 and 2048 events
    #: build in about the same time (medians 0.64 vs 0.60 s, dense +
    #: compact, interleaved) at traced peaks of 11.6 vs 16.1 MB; 256
    #: takes 1.45x.
    _SLICE_EVENTS = 1024

    #: Cap on the candidate pairs one slice expands; denser bursts
    #: recurse on halves.  A pair costs ~105 B at the peak (1024 events
    #: in one cell: 524k pairs, 52 MB traced), so the cap bounds a
    #: slice near 100 MB; typical slices expand ~65k pairs.
    _MAX_BATCH_PAIRS = 1_000_000

    def insert_many(self, xs, ys, ts) -> np.ndarray:
        """Insert a time-ordered batch of events; returns their node indices.

        The batched hot path and the one capped causal edge kernel of
        both graph builds.  The whole input is validated first, then
        inserted in fixed time-ordered slices of ``_SLICE_EVENTS``
        events, so memory follows one slice, not the input.  Per slice,
        live and slice nodes are pooled, sorted once by packed
        ``(t-cell, x-cell, y-cell, id)`` key, and each slice event
        probes its 18 reachable cells with array-wide binary searches;
        each cell's range of older ids is trimmed to the liveness
        window and, in the previous time-cell, to the ids within the
        radius's time reach — one binary search in the pool's
        timestamps, as ids are time-ordered (after a clock restart they
        are not, and ranges stay whole).  ``candidates_examined`` counts
        the liveness-trimmed ranges, as the per-event path counts its
        candidates; only the radius-trimmed ranges are expanded into
        pairs, which are filtered by radius, capped per event by
        nearest-first/id-tie-break selection — one value sort of packed
        ``(destination, dense dist2 rank, source)`` keys — and
        bulk-appended.  Because neighbourhoods are causal the result —
        edges, node indices and stats — is identical to calling
        :meth:`insert` per event, which remains the tested oracle for
        this path.

        Raises:
            ValueError: on unequal column shapes or decreasing
                timestamps — before anything is inserted.
        """
        if self.window.capacity is not None:
            raise NotImplementedError(
                "a ring-mode window serves its owner's per-event path"
            )
        return self._insert_sliced(*self._columns(xs, ys, ts), self._append_edges)

    def _columns(self, xs, ys, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated float64 ``x``/``y`` and int64 ``t`` columns of a batch."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.int64)
        if not (xs.shape == ys.shape == ts.shape) or xs.ndim != 1:
            raise ValueError("xs, ys, ts must be equal-length 1-D sequences")
        if np.any(np.diff(ts) < 0):
            raise ValueError("insert_many requires non-decreasing timestamps")
        return xs, ys, ts

    def _insert_sliced(self, xs, ys, ts, sink) -> np.ndarray:
        """Insert :meth:`_columns` output slice by slice.

        Each slice's edges go to ``sink(src, dst)`` as two arrays, in
        insertion order (ascending destination, then source); every
        destination's edges arrive in one call.
        """
        n0 = self.window.count
        step = self._SLICE_EVENTS
        for a in range(0, xs.size, step):
            b = a + step
            self._insert_slice(xs[a:b], ys[a:b], ts[a:b], sink)
        return n0 + np.arange(xs.size, dtype=np.int64)

    def _insert_slice(self, xs, ys, ts, sink) -> None:
        n = xs.size
        pts = np.empty((n, 3), dtype=np.float64)
        pts[:, 0] = xs
        pts[:, 1] = ys
        pts[:, 2] = ts / self.time_scale_us
        cxs = np.floor(xs / self.radius).astype(np.int64)
        cys = np.floor(ys / self.radius).astype(np.int64)
        cts = np.floor(ts / (self.time_scale_us * self.radius)).astype(np.int64)
        status = self._batch_insert(pts, ts, cxs, cys, cts, sink)
        if status == _BATCH_SPLIT:
            half = n // 2
            self._insert_slice(xs[:half], ys[:half], ts[:half], sink)
            self._insert_slice(xs[half:], ys[half:], ts[half:], sink)
        elif status == _BATCH_OVERFLOW:
            # Packed cell keys would overflow (astronomical coordinates):
            # take the per-event path, which packs nothing.
            for i in range(n):
                self._insert_cells(
                    pts[i], int(ts[i]), int(cxs[i]), int(cys[i]), int(cts[i]), sink
                )

    def _batch_insert(
        self,
        pts: np.ndarray,
        ts: np.ndarray,
        cxs: np.ndarray,
        cys: np.ndarray,
        cts: np.ndarray,
        sink,
    ) -> int:
        """Vectorized core of one slice; returns a ``_BATCH_*`` code.

        State is only mutated when ``_BATCH_OK`` is returned.
        """
        n = ts.size
        n0 = self.window.count
        ct_first, ct_last = int(cts[0]), int(cts[-1])

        # --- collect the reachable live pool (dict buckets + blocks) ---
        # Only time-cells in [ct_first - 1, ct_last] and spatial cells in
        # the batch's ±1 bounding box can ever be probed.
        x_lo, x_hi = int(cxs.min()) - 1, int(cxs.max()) + 1
        y_lo, y_hi = int(cys.min()) - 1, int(cys.max()) + 1
        id_parts: list[np.ndarray] = []
        cx_parts: list[np.ndarray] = []
        cy_parts: list[np.ndarray] = []
        ct_parts: list[np.ndarray] = []
        for tc, grid in self._tcells.items():
            if tc < ct_first - 1 or tc > ct_last:
                continue
            for (bx, by), bucket in grid.items():
                if not (x_lo <= bx <= x_hi and y_lo <= by <= y_hi):
                    continue
                m = len(bucket[0])
                id_parts.append(np.array(bucket[0], dtype=np.int64))
                cx_parts.append(np.full(m, bx, dtype=np.int64))
                cy_parts.append(np.full(m, by, dtype=np.int64))
                ct_parts.append(np.full(m, tc, dtype=np.int64))
        for tc, blocks in self._tblocks.items():
            if tc < ct_first - 1 or tc > ct_last:
                continue
            for keys_b, ids_b in blocks:
                bx = (keys_b >> np.uint64(32)).astype(np.int64) - _XY_BIAS
                by = (keys_b & np.uint64(0xFFFFFFFF)).astype(np.int64) - _XY_BIAS
                inside = (bx >= x_lo) & (bx <= x_hi) & (by >= y_lo) & (by <= y_hi)
                if not inside.any():
                    continue
                id_parts.append(ids_b[inside])
                cx_parts.append(bx[inside])
                cy_parts.append(by[inside])
                ct_parts.append(np.full(int(inside.sum()), tc, dtype=np.int64))

        batch_ids = n0 + np.arange(n, dtype=np.int64)
        pool_id = np.concatenate(id_parts + [batch_ids])
        pool_cx = np.concatenate(cx_parts + [cxs])
        pool_cy = np.concatenate(cy_parts + [cys])
        pool_ct = np.concatenate(ct_parts + [cts])
        num_ids = n0 + n  # every id in the pool is below this

        # --- pack (t-cell, x-cell, y-cell) into one sortable int64 ---
        mx, my, mt = (
            int(pool_cx.min()) - 1,
            int(pool_cy.min()) - 1,
            int(pool_ct.min()) - 1,
        )
        span_x = int(pool_cx.max()) - mx + 2
        span_y = int(pool_cy.max()) - my + 2
        span_t = int(pool_ct.max()) - mt + 2
        if (
            float(span_t) * float(span_x) * float(span_y) * float(num_ids) >= 2**62
            or abs(x_lo) >= _XY_BIAS - 1  # block xy-key packing range
            or abs(x_hi) >= _XY_BIAS - 1
            or abs(y_lo) >= _XY_BIAS - 1
            or abs(y_hi) >= _XY_BIAS - 1
        ):
            return _BATCH_OVERFLOW
        key = ((pool_ct - mt) * span_x + (pool_cx - mx)) * span_y + (pool_cy - my)

        # Value sort of (key, node id) packed into one int64: each cell's
        # entries sit in id order, so a source's causal candidates in a
        # cell (every node inserted before it) are the prefix below its
        # own (cell, id) key.  The slice's sorted keys are themselves
        # sorted, so each probe row below runs with sorted needles.
        packed = np.sort(key * num_ids + pool_id)  # sort-ok: packed keys are unique
        sorted_id = packed % num_ids
        is_src = sorted_id >= n0
        src_packed = packed[is_src]
        needle_id = sorted_id[is_src]
        src_cell = src_packed - needle_id  # each source's key * num_ids

        # Each probe's range starts at the first id that the liveness
        # window keeps (``lo_live``); previous-time-cell probes start at
        # the first id that is also within the radius's time reach
        # (``lo_near``).  Ids are time-ordered (unless a clock restart
        # was fed to insert_many), so both are one binary search in the
        # timestamps of the ids the pool spans.  Time reach: a pair
        # ``reach`` or more µs apart is more than r + 1/s apart in
        # scaled time (s = time_scale_us).  With |t| < 2**51 µs, float64
        # rounding of the two t / s moves their gap by less than 1/(2s),
        # and with r * s < 2**48 the rest of the margin still exceeds
        # the rounding of dist2 and of r * r many times, so the dist2
        # test below would reject the pair.  Gaps stay below 2**52 µs,
        # so a reach or window of that length trims nothing.
        lo_pool = int(pool_id[: pool_id.size - n].min()) if pool_id.size > n else n0
        t_span = np.concatenate((self.window.t[lo_pool:n0], ts))
        if (
            bool(np.all(t_span[1:] >= t_span[:-1]))
            and max(-int(t_span[0]), int(t_span[-1])) < 2**51
        ):
            t_src = ts[needle_id - n0]
            cut = t_src - min(self.window_us, 2**52)
            rs = self.radius * self.time_scale_us
            reach = int(rs) + 2 if rs < 2**48 else 2**52
            lo_live = lo_pool + np.searchsorted(t_span, cut)
            lo_near = lo_pool + np.searchsorted(
                t_span, np.maximum(cut, t_src - (reach - 1))
            )
            trimmed = True
        else:
            lo_live = lo_near = 0
            trimmed = False

        # The 18 reachable cells of every source, probed at once as an
        # (18, sources) array of packed keys in (dt, dx, dy) order; rows
        # 0-8 are the previous time-cell.  Candidates are counted over
        # the liveness-trimmed ranges, as the per-event path counts
        # them; only the pairs of the radius-trimmed ranges are expanded.
        dkeys = [
            (dt * span_x + dx) * span_y + dy
            for dt in (-1, 0)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        ]
        base = src_cell + np.array(dkeys, dtype=np.int64)[:, None] * num_ids
        stop = np.searchsorted(packed, base + needle_id)
        start = np.searchsorted(packed, base + lo_live)
        examined = int((stop - start).sum())
        start[:9] = np.searchsorted(packed, base[:9] + lo_near)
        q_count = stop - start
        hit = q_count > 0
        q_src = np.broadcast_to(needle_id, hit.shape)[hit]
        q_start = start[hit]
        q_count = q_count[hit]
        total = int(q_count.sum())
        if total > self._MAX_BATCH_PAIRS and n > 1:
            return _BATCH_SPLIT
        # The packed (destination, dist2 rank, source) cap key: a rank
        # is below ``total``.  It also bounds the (destination, source)
        # edge key.
        if float(n) * float(max(total, 1)) * float(num_ids) >= 2**62:
            return _BATCH_OVERFLOW

        # --- commit point: append batch nodes, then build edges ---
        w = self.window  # grow mode: node i sits in row i
        w.append(n)
        w.pos[n0 : n0 + n] = pts
        w.t[n0 : n0 + n] = ts
        self.stats.events_inserted += n

        if total:
            # Candidate m of probe q sits at sorted position
            # q_start[q] + m.
            out_start = np.cumsum(q_count) - q_count
            cand_id = sorted_id[
                np.arange(total) + np.repeat(q_start - out_start, q_count)
            ]
            src_id = np.repeat(q_src, q_count)

            # Untrimmed ranges (a clock restart) are whole cells: apply
            # the liveness window pair by pair and count what survives.
            # When the oldest pool node is live for the newest event,
            # every pair is.
            if not trimmed and int(w.t[pool_id].min()) < int(ts[-1]) - self.window_us:
                live = w.t[cand_id] >= w.t[src_id] - self.window_us
                src_id = src_id[live]
                cand_id = cand_id[live]
                examined = int(src_id.size)

            d = w.pos[src_id] - w.pos[cand_id]
            dist2 = np.einsum("ij,ij->i", d, d)
            in_radius = dist2 <= self.radius * self.radius
            src_id = src_id[in_radius]
            cand_id = cand_id[in_radius]
            dist2 = dist2[in_radius]

            # Per-event cap: nearest max_neighbours, ties broken by id —
            # resolved only for the oversubscribed events, by one value
            # sort of (destination, dense dist2 rank, source) packed
            # into an int64.
            dst_local = src_id - n0
            k = self.max_neighbours
            if src_id.size:
                counts = np.bincount(dst_local, minlength=n)
                if int(counts.max()) > k:
                    over = counts[dst_local] > k
                    d_over = dist2[over]
                    by_d = np.argsort(d_over)  # sort-ok: tied values share a rank
                    step = np.empty(d_over.size, dtype=np.int64)
                    step[0] = 0
                    np.not_equal(d_over[by_d[1:]], d_over[by_d[:-1]], out=step[1:])
                    rank = np.empty_like(step)
                    rank[by_d] = np.cumsum(step)
                    span = (int(rank[by_d[-1]]) + 1) * num_ids
                    pk = np.sort(  # sort-ok: packed keys are unique
                        dst_local[over] * span + rank * num_ids + cand_id[over]
                    )
                    del d_over, by_d, step, rank
                    dl = pk // span
                    grp_head = np.empty(dl.size, dtype=bool)
                    grp_head[0] = True
                    grp_head[1:] = dl[1:] != dl[:-1]
                    starts = np.flatnonzero(grp_head)
                    nearest = np.arange(dl.size) - starts[np.cumsum(grp_head) - 1] < k
                    under = ~over
                    dst_local = np.concatenate((dst_local[under], dl[nearest]))
                    cand_id = np.concatenate((cand_id[under], pk[nearest] % num_ids))

            if cand_id.size:
                # Insertion order: ascending destination, then ascending
                # source — one packed value sort.
                pk = np.sort(dst_local * num_ids + cand_id)  # sort-ok: packed keys are unique
                dsts = pk // num_ids
                self.stats.edges_created += pk.size
                sink(pk - dsts * num_ids, n0 + dsts)
        self.stats.candidates_examined += examined

        # --- store the batch as per-time-cell blocks; expire the old ---
        self._expire(ct_last)
        tc_head = np.empty(n, dtype=bool)
        tc_head[0] = True
        tc_head[1:] = cts[1:] != cts[:-1]  # cts is non-decreasing
        starts = np.append(np.flatnonzero(tc_head), n)
        added_min: int | None = None
        for i in range(starts.size - 1):
            a, b = int(starts[i]), int(starts[i + 1])
            tc = int(cts[a])
            if tc < ct_last - 1:
                continue  # would expire immediately
            keys2 = _pack_xy(cxs[a:b], cys[a:b])
            o2 = np.argsort(keys2, kind="stable")
            self._tblocks.setdefault(tc, []).append(
                (keys2[o2], batch_ids[a:b][o2])
            )
            if added_min is None:
                added_min = tc
        if added_min is not None and (
            self._min_tcell is None or added_min < self._min_tcell
        ):
            self._min_tcell = added_min
        return _BATCH_OK

    def insert_stream(self, xs, ys, ts) -> None:
        """Insert a batch of time-ordered events (the batched fast path)."""
        self.insert_many(xs, ys, ts)
