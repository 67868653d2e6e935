"""Memory-bounded compact event-graph representation.

Section IV's event-graph "perspective" only reaches hardware if the
graph itself is memory-bounded.  The Jeziorek et al. line (AEGNN →
optimised event-graphs, arXiv 2307.14124 / 2401.04988) gets event-graph
GCNs onto FPGAs by making graphs *fixed-degree*, *directed* and
*integer-quantized*, and EvGNN (arXiv 2404.19489) assumes exactly such a
representation for its per-event accelerator.  This module provides that
representation for the reproduction:

* :class:`CompactEventGraph` — structure-of-arrays storage (the
  :class:`~repro.events.soa.EventSoA` layout carried through to the
  graph): ``uint16`` pixel coordinates, ``uint32`` timestamp offsets
  against a single ``int64`` base, uint-quantized node features, and a
  fixed-width in-neighbour table of ``uint16`` id *deltas* (one row per
  node, ``max_degree`` slots) instead of a dense ``int64`` edge list.
  Edge attributes are not stored at all — they are re-derived from the
  integer coordinates on demand and quantized to a signed integer grid.
* :class:`CompactGraphBuilder` — the one way to pack events into a
  compact graph: incremental (per-event or batched) construction on
  top of the :class:`~repro.gnn.asynchronous.
  HashInserter` and its :class:`~repro.gnn.asynchronous.LiveWindow`
  node store, so the representation composes with
  :class:`~repro.gnn.AsyncEventGNN`'s bounded mode: with
  ``max_live_nodes`` set, the store becomes a fixed ring and the
  builder's state never grows, however many events pass through.

With ``quantization_bits=0`` the compact graph reconstructs positions
and features *bitwise* equal to the dense :class:`~repro.gnn.graph.
EventGraph` built from the same events (coordinates are integers, the
timestamp decomposition is lossless, and the same float64 conversions
are applied), so classifier outputs are bit-identical — the property
the dense-vs-compact tests pin down.  With quantization enabled, node
features live on the ``[0, 1]`` uint grid (polarity one-hots are still
exact) and edge offsets on a signed grid of ``radius / (2^(b-1) - 1)``
resolution, bounding the round-trip error the accuracy-delta benchmark
measures.
"""

from __future__ import annotations

import math

import numpy as np

from .build import _canonical

__all__ = [
    "NBR_EMPTY",
    "NBR_OVERFLOW",
    "CompactEventGraph",
    "CompactGraphBuilder",
    "quantize_unit",
    "dequantize_unit",
    "quantize_offsets",
]

#: Neighbour-table sentinel: slot holds no edge.
NBR_EMPTY = 0
#: Neighbour-table sentinel: the edge's id delta exceeds ``uint16`` and
#: lives in the explicit overflow side-list instead.
NBR_OVERFLOW = 0xFFFF


def quantize_unit(values: np.ndarray, bits: int) -> np.ndarray:
    """Quantize ``[0, 1]`` values to a ``bits``-wide unsigned grid.

    Values are clipped into the unit interval first; exact 0.0 and 1.0
    (the polarity one-hot features) round-trip losslessly for any
    ``bits >= 1``.

    Args:
        values: float array with entries in (or clipped to) ``[0, 1]``.
        bits: grid width, 1–16; ``bits <= 8`` stores as ``uint8``.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    scale = (1 << bits) - 1
    dtype = np.uint8 if bits <= 8 else np.uint16
    return np.rint(np.clip(values, 0.0, 1.0) * scale).astype(dtype)


def dequantize_unit(q: np.ndarray, bits: int) -> np.ndarray:
    """Invert :func:`quantize_unit` back to float64 in ``[0, 1]``."""
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    return q.astype(np.float64) / ((1 << bits) - 1)


def quantize_offsets(
    offsets: np.ndarray, radius: float, bits: int
) -> tuple[np.ndarray, float]:
    """Quantize edge offsets to a signed integer grid.

    Offsets of an in-radius edge are bounded by ``radius`` per
    component, so the grid spans ``[-radius, radius]`` with
    ``2^(bits-1) - 1`` positive steps.  The round-trip error is at most
    half a grid step per component.

    Args:
        offsets: ``(E, 3)`` float spatiotemporal offsets.
        radius: connection radius bounding each component.
        bits: signed grid width, 2–16; ``bits <= 8`` stores as ``int8``.

    Returns:
        ``(q, scale)`` — the integer grid values and the step size such
        that ``q * scale`` dequantizes.
    """
    if not 2 <= bits <= 16:
        raise ValueError("bits must be in [2, 16]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    qmax = (1 << (bits - 1)) - 1
    scale = radius / qmax
    dtype = np.int8 if bits <= 8 else np.int16
    q = np.clip(np.rint(offsets / scale), -qmax, qmax).astype(dtype)
    return q, scale


class CompactEventGraph:
    """Fixed-degree, directed, integer-quantized event graph (SoA).

    Storage per node: ``uint16`` x/y, ``uint32`` timestamp offset
    against :attr:`t_base`, a quantized feature row, and ``max_degree``
    ``uint16`` in-neighbour slots holding ``dst - src`` id deltas
    (:data:`NBR_EMPTY` marks an unused slot; deltas too large for 16
    bits go to an explicit overflow side-list).  All edges are causal
    (past → present) by construction.

    The dense-API surface (``positions`` / ``features`` / ``edges`` /
    ``edge_attributes`` …) reconstructs float64 views lazily, so the
    graph is a drop-in input to :class:`~repro.gnn.EventGNNClassifier`.
    With ``quantization_bits == 0`` the reconstruction is bitwise equal
    to the dense build; otherwise :meth:`conv_rel_pos` additionally
    offers the grid-quantized edge offsets the classifier feeds to its
    convolutions.

    The constructor takes columns that are already packed;
    :class:`CompactGraphBuilder` packs them from events.

    Args:
        x, y: ``(N,)`` pixel coordinates (stored ``uint16``).
        t_off: ``(N,)`` microsecond offsets against ``t_base``
            (stored ``uint32``).
        t_base: int64 timestamp base.
        features: ``(N, F)`` node features — pre-quantized uints when
            ``quantization_bits >= 1``, raw float64 when 0.
        nbr: ``(N, max_degree)`` uint16 neighbour delta table.
        ov_src, ov_dst: int64 overflow edge endpoints.
        time_scale_us: microseconds per temporal unit (positive, finite).
        radius: connection radius, positive and finite (sets the
            edge-offset grid).
        quantization_bits: feature/offset grid width; 0 disables
            quantization (lossless mode).
    """

    #: Representation tag consumed by the hw cost models.
    representation = "compact"

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        t_off: np.ndarray,
        t_base: int,
        features: np.ndarray,
        nbr: np.ndarray,
        ov_src: np.ndarray,
        ov_dst: np.ndarray,
        time_scale_us: float,
        radius: float,
        quantization_bits: int,
    ) -> None:
        # ``not x > 0`` also rejects nan; isfinite rejects inf.
        if not all(v > 0 and math.isfinite(v) for v in (time_scale_us, radius)):
            raise ValueError("time_scale_us and radius must be positive and finite")
        if not (quantization_bits == 0 or 2 <= quantization_bits <= 16):
            raise ValueError("quantization_bits must be 0 or in [2, 16]")
        self.x = np.ascontiguousarray(x, dtype=np.uint16)
        self.y = np.ascontiguousarray(y, dtype=np.uint16)
        self.t_off = np.ascontiguousarray(t_off, dtype=np.uint32)
        self.t_base = int(t_base)
        n = self.x.size
        if not (self.y.size == self.t_off.size == n):
            raise ValueError("column lengths must agree")
        self.nbr = np.ascontiguousarray(nbr, dtype=np.uint16)
        if self.nbr.ndim != 2 or self.nbr.shape[0] != n:
            raise ValueError(f"nbr must be (N, max_degree), got {self.nbr.shape}")
        self.ov_src = np.asarray(ov_src, dtype=np.int64)
        self.ov_dst = np.asarray(ov_dst, dtype=np.int64)
        if self.ov_src.size != self.ov_dst.size:
            raise ValueError("overflow columns must agree")
        self.time_scale_us = float(time_scale_us)
        self.radius = float(radius)
        self.quantization_bits = int(quantization_bits)
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError(f"features must be (N, F), got {features.shape}")
        if self.quantization_bits == 0:
            self._features_raw: np.ndarray | None = np.ascontiguousarray(
                features, dtype=np.float64
            )
            self._features_q: np.ndarray | None = None
        else:
            dtype = np.uint8 if self.quantization_bits <= 8 else np.uint16
            self._features_raw = None
            self._features_q = np.ascontiguousarray(features, dtype=dtype)
        self._positions: np.ndarray | None = None
        self._features: np.ndarray | None = None
        self._edges: np.ndarray | None = None

    # -- dense-API surface ---------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (events)."""
        return self.x.size

    @property
    def max_degree(self) -> int:
        """The in-degree cap (neighbour slots per node)."""
        return self.nbr.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of directed edges (overflow entries occupy one slot each)."""
        return int(np.count_nonzero(self.nbr))

    @property
    def mean_degree(self) -> float:
        """Mean in-degree (= mean out-degree) of the graph."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def in_degrees(self) -> np.ndarray:
        """Per-node in-degree, ``(N,)`` — occupied neighbour slots."""
        return np.count_nonzero(self.nbr, axis=1)

    @property
    def positions(self) -> np.ndarray:
        """``(N, 3)`` float64 ``(x, y, t/time_scale)`` — exact.

        Coordinates are integers and the timestamp decomposition is
        lossless, so this reconstruction is bitwise equal to the dense
        build's point cloud.
        """
        if self._positions is None:
            pts = np.empty((self.num_nodes, 3), dtype=np.float64)
            pts[:, 0] = self.x
            pts[:, 1] = self.y
            pts[:, 2] = (
                self.t_base + self.t_off.astype(np.int64)
            ) / self.time_scale_us
            self._positions = pts
        return self._positions

    @property
    def features(self) -> np.ndarray:
        """``(N, F)`` float64 node features (dequantized if stored uint)."""
        if self._features is None:
            if self._features_raw is not None:
                self._features = self._features_raw
            else:
                self._features = dequantize_unit(
                    self._features_q, self.quantization_bits
                )
        return self._features

    @property
    def edges(self) -> np.ndarray:
        """``(E, 2)`` int64 edge list in the canonical (src, dst) order.

        Reconstructed lazily from the delta table + overflow list and
        sorted with the same packing as the dense builders, so consumers
        whose aggregation is edge-order-dependent (scatter sum/mean) see
        the identical ordering.
        """
        if self._edges is None:
            valid = (self.nbr != NBR_EMPTY) & (self.nbr != NBR_OVERFLOW)
            dst, _slot = np.nonzero(valid)
            src = dst - self.nbr[valid].astype(np.int64)
            if self.ov_src.size:
                src = np.concatenate([src, self.ov_src])
                dst = np.concatenate([dst, self.ov_dst])
            self._edges = _canonical(
                np.stack([src, dst.astype(np.int64)], axis=1)
            )
        return self._edges

    def edge_attributes(self) -> np.ndarray:
        """Exact spatiotemporal offsets ``pos[dst] - pos[src]``, ``(E, 3)``."""
        if self.num_edges == 0:
            return np.zeros((0, 3))
        pos = self.positions
        e = self.edges
        return pos[e[:, 1]] - pos[e[:, 0]]

    def quantized_edge_attributes(self) -> tuple[np.ndarray, float]:
        """Edge offsets ``pos[src] - pos[dst]`` on the signed int grid.

        Derived on demand from the integer coordinates — the compact
        format stores no per-edge attribute bytes at all.  Requires
        quantization enabled.

        Returns:
            ``(q, scale)`` per :func:`quantize_offsets`.
        """
        if self.quantization_bits == 0:
            raise ValueError("quantization is disabled for this graph")
        pos = self.positions
        e = self.edges
        rel = pos[e[:, 0]] - pos[e[:, 1]] if e.size else np.zeros((0, 3))
        return quantize_offsets(rel, self.radius, self.quantization_bits)

    def conv_rel_pos(self) -> np.ndarray | None:
        """Quantized ``pos[src] - pos[dst]`` offsets for the conv layers.

        ``None`` when quantization is disabled — the classifier then
        computes exact offsets itself, preserving bit-identity with the
        dense path.
        """
        if self.quantization_bits == 0:
            return None
        q, scale = self.quantized_edge_attributes()
        return q.astype(np.float64) * scale

    def is_causal(self) -> bool:
        """True if every edge points forward (or level) in time.

        Table slots always point to a lower id, so when timestamps are
        non-decreasing in id (as every builder produces them) only the
        overflow pairs need a look, and no edge list is materialised.
        """
        if self.num_edges == 0:
            return True
        t = self.t_off
        if np.all(t[1:] >= t[:-1]):
            return bool(np.all(t[self.ov_dst] >= t[self.ov_src]))
        e = self.edges
        dt = self.positions[e[:, 1], 2] - self.positions[e[:, 0], 2]
        return bool(np.all(dt >= 0))

    # -- memory accounting ---------------------------------------------
    def nbytes(self) -> int:
        """Resident bytes of the stored representation (SoA columns)."""
        feat = (
            self._features_raw if self._features_raw is not None else self._features_q
        )
        return int(
            self.x.nbytes
            + self.y.nbytes
            + self.t_off.nbytes
            + feat.nbytes
            + self.nbr.nbytes
            + self.ov_src.nbytes
            + self.ov_dst.nbytes
        )

    def to_event_graph(self):
        """Materialise a dense :class:`~repro.gnn.graph.EventGraph`.

        With quantization disabled this is bit-identical to the dense
        build from the same events; otherwise features are the
        dequantized grid values.
        """
        from .graph import EventGraph

        return EventGraph(
            self.positions, self.features, self.edges, self.time_scale_us
        )


class CompactGraphBuilder:
    """Incremental construction of a :class:`CompactEventGraph`.

    Wraps the :class:`~repro.gnn.asynchronous.HashInserter` (per-event
    or the sliced :meth:`~repro.gnn.asynchronous.HashInserter.insert_many`
    kernel the dense build also uses), so the selected neighbour sets
    equal the oracle pipeline ``radius_graph → make_causal →
    limit_in_degree`` — the same tested invariant the async serving
    path builds on.  The inserter hands each event's or slice's edges
    straight to the neighbour table: no edge log is kept.  Node columns
    (polarity and the neighbour table, beside the inserter's positions
    and timestamps) live in one
    :class:`~repro.gnn.asynchronous.LiveWindow`; with ``max_live_nodes``
    set it is a fixed ring and :meth:`state_bytes` is the same from the
    first event on — the composition with
    :class:`~repro.gnn.AsyncEventGNN`'s bounded mode.

    Args:
        radius: spatiotemporal connection radius.
        time_scale_us: microseconds per temporal unit.
        max_degree: in-degree cap (neighbour slots per node).
        quantization_bits: 0 (lossless) or 2–16.
        include_position: append normalised-position feature columns.
        resolution: sensor resolution (required with
            ``include_position``).
        window_us: liveness window for *edge candidates* (default
            unbounded, matching the dense batch build).
        max_live_nodes: opt into bounded mode — at most this many live
            nodes, oldest evicted first.  Must be < 65535 so every live
            delta fits ``uint16`` (no overflow list, truly flat state).
    """

    def __init__(
        self,
        *,
        radius: float,
        time_scale_us: float,
        max_degree: int,
        quantization_bits: int = 8,
        include_position: bool = False,
        resolution=None,
        window_us: int | None = None,
        max_live_nodes: int | None = None,
    ) -> None:
        from .asynchronous import HashInserter, LiveWindow

        if max_degree <= 0:
            raise ValueError("max_degree must be positive")
        if not (quantization_bits == 0 or 2 <= quantization_bits <= 16):
            raise ValueError("quantization_bits must be 0 or in [2, 16]")
        if include_position and resolution is None:
            raise ValueError("resolution is required with include_position")
        if max_live_nodes is not None and not 1 <= max_live_nodes < NBR_OVERFLOW:
            raise ValueError("max_live_nodes must be in [1, 65534]")
        self.radius = float(radius)
        self.time_scale_us = float(time_scale_us)
        self.max_degree = int(max_degree)
        self.quantization_bits = int(quantization_bits)
        self.include_position = bool(include_position)
        self.resolution = resolution
        self.window_us = (1 << 62) if window_us is None else int(window_us)
        self._window = LiveWindow(
            max_live_nodes,
            self.window_us,
            p=(np.int8,),
            nbr=(np.uint16, self.max_degree),
        )
        self._inserter = HashInserter(
            self.radius,
            time_scale_us=self.time_scale_us,
            window_us=self.window_us,
            max_neighbours=self.max_degree,
            window=self._window,
        )
        self._ov_src: list[int] = []
        self._ov_dst: list[int] = []

    # -- state accounting ----------------------------------------------
    @property
    def num_events(self) -> int:
        """Total events absorbed so far."""
        return self._window.count

    @property
    def num_live_nodes(self) -> int:
        """Nodes currently in the (bounded) live window."""
        return self._window.num_live

    @property
    def live_start(self) -> int:
        """Id of the oldest live node (0 when unbounded)."""
        return self._window.start

    def state_bytes(self) -> int:
        """Bytes of builder state: the node store (neighbour table
        included) and the overflow list — edges are written straight
        into the table, so the inserter's edge log stays empty."""
        return self._inserter.state_bytes() + 16 * len(self._ov_src)

    # -- insertion -----------------------------------------------------
    def _check_coords(self, x, y) -> None:
        if np.any(np.asarray(x) < 0) or np.any(np.asarray(x) > 0xFFFF):
            raise ValueError("x coordinates must fit uint16")
        if np.any(np.asarray(y) < 0) or np.any(np.asarray(y) > 0xFFFF):
            raise ValueError("y coordinates must fit uint16")

    def append(self, x: int, y: int, t_us: int, p: int) -> int:
        """Insert one event; returns its node id.

        Raises:
            ValueError: on coordinates outside ``uint16`` or a timestamp
                before the last event's — before any state changes.
        """
        self._check_coords(x, y)
        w = self._window
        w.check_order(int(t_us))
        w.evict(int(t_us), reserve=1)
        if w.capacity is not None:
            w.nbr[w.row(w.count)] = NBR_EMPTY  # a recycled ring row
        new_id = self._inserter._insert_one(
            float(x), float(y), int(t_us), self._store_edges
        )
        w.p[w.row(new_id)] = p
        return new_id

    def extend(self, xs, ys, ts, ps) -> np.ndarray:
        """Insert a time-ordered batch; returns the node ids.

        The whole batch is validated before anything is inserted.
        Unbounded builders take the sliced
        :meth:`~repro.gnn.asynchronous.HashInserter.insert_many` kernel,
        whose edges go straight into the neighbour table slice by
        slice — no edge log is kept; bounded builders insert per event
        (a ring-mode window serves only the per-event path).

        Raises:
            ValueError: on unequal column shapes, coordinates outside
                ``uint16``, decreasing timestamps, or a first timestamp
                before the last event's.
        """
        xs, ys, ts = self._inserter._columns(xs, ys, ts)
        ps = np.asarray(ps)
        if ps.shape != ts.shape:
            raise ValueError("ps must match xs, ys, ts in length")
        self._check_coords(xs, ys)
        w = self._window
        if ts.size:
            w.check_order(int(ts[0]))
        if w.capacity is not None:
            out = np.empty(xs.size, dtype=np.int64)
            for i in range(xs.size):
                out[i] = self.append(
                    int(xs[i]), int(ys[i]), int(ts[i]), int(ps[i])
                )
            return out
        ids = self._inserter._insert_sliced(xs, ys, ts, self._store_edges)
        # Grow mode: node i sits in row i.
        w.p[w.count - ids.size : w.count] = ps
        return ids

    def _store_edges(self, src: np.ndarray, dst) -> None:
        """Edge sink: write ``(src, dst)`` edges into the neighbour table.

        ``dst`` is one node id (one event's sources) or an array grouped
        by ascending destination, so each destination's slot ranks fall
        out of run boundaries.
        """
        dst = np.broadcast_to(dst, src.shape)
        head = np.empty(dst.size, dtype=bool)
        head[0] = True
        head[1:] = dst[1:] != dst[:-1]
        starts = np.flatnonzero(head)
        counts = np.diff(np.append(starts, dst.size))
        rank = np.arange(dst.size) - np.repeat(starts, counts)
        delta = dst - src
        over = delta >= NBR_OVERFLOW
        self._window.nbr[self._window.rows(dst), rank] = np.where(
            over, NBR_OVERFLOW, delta
        ).astype(np.uint16)
        if over.any():
            self._ov_src.extend(src[over].tolist())
            self._ov_dst.extend(dst[over].tolist())

    # -- export --------------------------------------------------------
    def graph(self) -> CompactEventGraph:
        """The compact graph over the current live window.

        Bounded builders rebase the live ids to ``0..L-1`` and drop
        neighbour slots whose source has been evicted (the bounded-mode
        completeness trade-off); unbounded builders export everything.
        """
        w = self._window
        rows = w.live_rows()
        length = rows.size
        pos = w.pos[rows]
        # Coordinates were checked to fit uint16 on insertion.
        x = pos[:, 0].astype(np.uint16)
        y = pos[:, 1].astype(np.uint16)
        t = w.t[rows]
        p = w.p[rows]
        nbr = w.nbr[rows]
        if w.start:
            # A delta reaching past the window start points at an
            # evicted node: clear the slot.  (Overflow slots need no
            # care: they only arise in unbounded builders, where start
            # stays 0.)
            local = np.arange(length, dtype=np.int64)[:, None]
            nbr[nbr.astype(np.int64) > local] = NBR_EMPTY
        ov_src = np.asarray(self._ov_src, dtype=np.int64)
        ov_dst = np.asarray(self._ov_dst, dtype=np.int64)
        t_base = int(t[0]) if length else 0
        span = int(t.max()) - t_base if length else 0
        if span < 0 or span >= 1 << 32:
            raise ValueError("timestamp span must be non-negative and fit uint32")
        columns = [
            (p == 1).astype(np.float64),
            (p == -1).astype(np.float64),
        ]
        if self.include_position:
            columns.append(x.astype(np.float64) / self.resolution.width)
            columns.append(y.astype(np.float64) / self.resolution.height)
        features = (
            np.stack(columns, axis=1) if length else np.zeros((0, len(columns)))
        )
        if self.quantization_bits:
            features = quantize_unit(features, self.quantization_bits)
        return CompactEventGraph(
            x,
            y,
            (t - t_base).astype(np.uint32),
            t_base,
            features,
            nbr,
            ov_src,
            ov_dst,
            self.time_scale_us,
            self.radius,
            self.quantization_bits,
        )
