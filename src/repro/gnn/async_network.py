"""Fully asynchronous event-graph inference.

Section IV: "Event-graphs are also inherently sparse and amenable to
event-driven operation because graph convolutions could be triggered
upon the generation of each event."

This module realises that mode of operation.  The key structural fact —
the HUGNet insight — is that with *causal* (past → new) edges an
arriving event only ever gains incoming edges: the features of every
existing node are already final.  Incorporating one event therefore
costs

1. one spatiotemporal-hash insertion (find the causal neighbourhood),
2. one pass of the new node's features through the network's layers,
   gathering each layer's *stored* neighbour features,
3. one update of the running global-max readout,

with nothing recomputed.  :class:`AsyncEventGNN` maintains the per-layer
feature memory (structure-of-arrays, one row per node) and the running
readout, counts the work per event, and is *exactly equivalent* to a
batch forward pass of the same
:class:`~repro.gnn.models.EventGNNClassifier` over the final graph — a
tested invariant.

Per-node state — the inserter's positions and timestamps plus the
per-layer features — lives in one
:class:`~repro.gnn.asynchronous.LiveWindow`, whose two storage regimes
share the same code path:

* **unbounded** (default, ``max_live_nodes=None``): capacity-doubled
  columns retain every node, preserving the bit-equality guarantee;
* **bounded** (``max_live_nodes`` set): ring columns of exactly
  ``max_live_nodes`` rows, with nodes *evicted* oldest-first once they
  fall out of ``window_us`` or the ring is full (EvGNN-style bounded
  graph memory, arXiv 2404.19489).  The global-max readout is
  recomputed from the surviving rows whenever an evicted node may have
  attained the current maximum, so scores stay correct under eviction.

The engine also supports :meth:`snapshot` / :meth:`restore` — a
self-describing checkpoint of the whole session state — so serving
layers can roll a faulted stream back to its last good state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..nn.layers import Linear, ReLU
from ..nn.serialization import read_checkpoint
from .asynchronous import HashInserter, LiveWindow
from .layers import EdgeConv
from .models import EventGNNClassifier

__all__ = ["AsyncEventGNN", "AsyncStepReport", "SNAPSHOT_FORMAT"]

#: Version tag of the :meth:`AsyncEventGNN.snapshot` checkpoint schema.
SNAPSHOT_FORMAT = "async-gnn/v1"

_NO_NEIGHBOURS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class AsyncStepReport:
    """Work done to incorporate one event.

    Attributes:
        node_index: index assigned to the event's node.
        num_neighbours: causal in-edges created.
        insertion_candidates: hash candidates examined for the insertion.
        macs: multiply-accumulates of the local feature computation,
            including exactly the one head evaluation that produced
            ``scores``.
        scores: running class scores after this event (read-only view).
        expired_nodes: nodes evicted by this event (bounded mode only).
        live_nodes: live-set size after this event.
    """

    node_index: int
    num_neighbours: int
    insertion_candidates: int
    macs: int
    scores: np.ndarray
    expired_nodes: int = 0
    live_nodes: int = 0


def _affine(x: np.ndarray, layer: tuple) -> np.ndarray:
    """``x @ W^T + b`` for a plan layer ``(weight, bias)``: the ops
    :func:`~repro.nn.functional.affine` runs under ``stable_matmul``."""
    weight, bias = layer
    out = np.einsum("ij,jk->ik", x, weight.data.T)
    return out if bias is None else out + bias.data


class _InferencePlan:
    """The classifier compiled once for per-event inference.

    Holds every ``Linear``'s ``(weight, bias)`` tensors and runs the
    batch forward's einsum, bias and ReLU ops on plain arrays, so a new
    node's rows are byte-equal to the batch rows with no ``Tensor`` per
    event.  ``weight.data.T`` is read at every call: a contiguous copy
    is not byte-equal (einsum's rounding follows the memory layout), and
    a live read keeps the plan current through in-place training,
    ``load_state_dict``, ``deepcopy`` and pickling.  An event with ``k``
    in-edges and its one head evaluation cost ``node_macs + k *
    edge_macs + head_macs`` multiply-accumulates.
    """

    def __init__(self, model: EventGNNClassifier) -> None:
        self.convs: list[tuple] = []
        self.node_macs = self.edge_macs = 0
        for name in ("conv1", "conv2"):
            conv = getattr(model, name)
            if not isinstance(conv, EdgeConv):
                raise TypeError("AsyncEventGNN requires EdgeConv layers (conv='edge')")
            mlp = conv.mlp.layers
            if conv.aggregation != "max" or list(map(type, mlp)) != [Linear, ReLU, Linear]:
                # The batch mean rounds as sum * (1 / count), which a
                # per-node mean does not reproduce bit for bit.
                raise ValueError(
                    f"AsyncEventGNN requires {name} to aggregate by 'max' "
                    "through a Linear, ReLU, Linear message MLP"
                )
            linears = (conv.self_mlp, mlp[0], mlp[2])
            self.convs.append(tuple((m.weight, m.bias) for m in linears))
            macs = [m.in_features * m.out_features for m in linears]
            self.node_macs += macs[0]
            self.edge_macs += macs[1] + macs[2]
        self.head_layer = (model.head.weight, model.head.bias)
        self.head_macs = model.head.in_features * model.head.out_features

    def conv(
        self, i: int, x_self: np.ndarray, x_neigh: np.ndarray, rel_pos: np.ndarray
    ) -> np.ndarray:
        """Pre-activation output of conv ``i`` at the new node, from its
        features ``(F,)``, its neighbours' ``(k, F)`` and their offsets
        ``pos_src - pos_dst`` ``(k, 3)``."""
        self_mlp, hidden, out_layer = self.convs[i]
        out = _affine(x_self[None, :], self_mlp)[0]
        k, f = x_neigh.shape
        if k:
            edge_in = np.empty((k, 2 * f + 3))
            edge_in[:, :f] = x_self
            np.subtract(x_neigh, x_self, out=edge_in[:, f : 2 * f])
            edge_in[:, 2 * f :] = rel_pos
            pre = _affine(edge_in, hidden)
            out = out + _affine(pre * (pre > 0), out_layer).max(axis=0)
        return out

    def head(self, pooled: np.ndarray) -> np.ndarray:
        """Class scores ``(C,)`` of pooled features ``(F,)``."""
        return _affine(pooled[None, :], self.head_layer)[0]


class AsyncEventGNN:
    """Streaming, per-event execution of an EdgeConv event-graph classifier.

    Construction compiles the model into an inference plan that holds
    its parameter tensors, not copies of them.  Events therefore always
    run on the model's *current* weights.  Node features already held
    were computed with the weights of their own time, though: after
    training the model, :meth:`reset` the engine, or the session mixes
    old and new features and the batch equivalence no longer holds.

    Args:
        model: a trained :class:`EventGNNClassifier` built with EdgeConv
            layers (the default ``conv='edge'``), each aggregating by
            ``'max'``.
        radius: causal connection radius (scaled units).
        time_scale_us: microseconds per temporal unit.
        window_us: liveness window for the graph.  In bounded mode it
            also expires node *features*: nodes older than
            ``window_us`` are evicted and leave the readout.
        max_degree: in-edge cap per event.
        resolution: sensor resolution (needed when the model was trained
            with position features).
        include_position: append normalised position to node features
            (must match the model's training configuration).
        max_live_nodes: opt into bounded-state mode — a hard budget on
            live nodes.  Storage becomes fixed-size rings; the oldest
            nodes are evicted when the budget or ``window_us`` says so.
            ``None`` (default) keeps the exact unbounded behaviour.
    """

    def __init__(
        self,
        model: EventGNNClassifier,
        radius: float = 4.0,
        time_scale_us: float = 3000.0,
        window_us: int = 100_000,
        max_degree: int = 10,
        resolution=None,
        include_position: bool = False,
        max_live_nodes: int | None = None,
    ) -> None:
        self._plan = _InferencePlan(model)
        if include_position and resolution is None:
            raise ValueError("resolution is required when include_position is set")
        if max_live_nodes is not None and max_live_nodes < 1:
            raise ValueError("max_live_nodes must be >= 1")
        self.model = model
        self.radius = radius
        self.time_scale_us = time_scale_us
        self.window_us = window_us
        self.max_degree = max_degree
        self.include_position = include_position
        self.resolution = resolution
        self.max_live_nodes = max_live_nodes
        self._feature_width = 4 if include_position else 2
        self._hidden = model.head.in_features
        self._expired_total = 0
        self.reset()

    # -- bookkeeping ---------------------------------------------------
    @property
    def num_events(self) -> int:
        """Events incorporated so far."""
        return self._window.count

    @property
    def num_live_nodes(self) -> int:
        """Nodes currently live (== ``num_events`` when unbounded)."""
        return self._window.num_live

    @property
    def live_start(self) -> int:
        """Smallest live node id (0 when unbounded)."""
        return self._window.start

    @property
    def expired_nodes_total(self) -> int:
        """Nodes evicted over the engine's lifetime (survives reset)."""
        return self._expired_total

    def state_bytes(self) -> int:
        """Bytes held in per-node storage (the node store's feature,
        position and time columns, the inserter's edge log — none in
        bounded mode — and the running readout).

        In bounded mode every term is fixed at construction, so this
        gauge is the same from the first event to the last.  The
        inserter's hash buckets are excluded: each entry holds a node's
        id, timestamp and scaled position (40 B, plus array and dict
        overhead), and bounded mode prunes them to at most
        ``2 * max_live_nodes`` entries.
        """
        return self._inserter.state_bytes() + self._running_max.nbytes

    def reset(self) -> None:
        """Forget every event; the model weights are untouched.

        After a reset the engine behaves exactly like a freshly
        constructed one, so a serving session can reuse it across
        windows without reallocating the model.  The lifetime
        :attr:`expired_nodes_total` counter is deliberately preserved.
        """
        self._window = LiveWindow(
            self.max_live_nodes,
            self.window_us,
            x0=(np.float64, self._feature_width),  # input features
            x1=(np.float64, self._hidden),  # conv1 outputs (post-ReLU)
            x2=(np.float64, self._hidden),  # conv2 outputs (post-ReLU)
        )
        self._inserter = HashInserter(
            self.radius,
            time_scale_us=self.time_scale_us,
            window_us=self.window_us,
            max_neighbours=self.max_degree,
            window=self._window,
        )
        self._running_max = np.full(self._hidden, -np.inf)
        self._last_t_us: int | None = None
        self._scores: np.ndarray | None = None  # cached current-state scores

    # -- eviction (bounded mode) --------------------------------------
    def _evict(self, t_us: int, reserve: int) -> int:
        """Evict nodes that are stale (older than ``window_us``) or over
        budget (would leave no room for ``reserve`` insertions).

        Returns the number of nodes evicted.  The running readout is
        recomputed from the surviving rows only when an evicted node may
        have attained the current maximum (an exact equality test — a
        removed row can only change the max where it achieves it).  A
        zero maximum is exempt: features are post-ReLU, so it cannot
        fall while any node is live (a dead unit would otherwise force a
        full recompute on every eviction).
        """
        w = self._window
        evicted = w.evict(t_us, reserve)
        if evicted:
            peak = self._running_max
            lo = (w.start - evicted) % w.capacity
            gone = w.x2[lo : lo + evicted]
            if lo + evicted > w.capacity:  # the evicted rows wrap round
                gone = np.concatenate((gone, w.x2[: lo + evicted - w.capacity]))
            if not w.num_live:
                self._running_max = np.full(self._hidden, -np.inf)
            elif ((gone == peak) & (peak > 0)).any():
                self._running_max = w.x2[w.live_rows()].max(axis=0)
            self._expired_total += evicted
        return evicted

    def expire(self, now_us: int) -> int:
        """Advance the liveness window to ``now_us`` without inserting.

        Bounded mode only: evicts every node older than
        ``now_us - window_us`` (possibly emptying the live set — scores
        then return to the zero baseline) and returns the count evicted.
        """
        if self.max_live_nodes is None:
            raise ValueError("expire() requires bounded mode (max_live_nodes)")
        evicted = self._evict(int(now_us), reserve=0)
        if evicted:
            self._scores = None  # readout changed: recompute lazily
        return evicted

    # -- inference -----------------------------------------------------
    def scores(self) -> np.ndarray:
        """Current class scores (zeros before the first event).

        The value is computed at most once per incorporated event: the
        head evaluation happens inside :meth:`process_event` (where its
        MACs are charged) and is cached, so repeated ``scores()`` /
        :meth:`predict` calls between events cost nothing.  The returned
        array is a read-only view of the cached decision.
        """
        if self._scores is None:
            self._scores = self._compute_scores()
        return self._scores

    def _compute_scores(self) -> np.ndarray:
        """One head evaluation over the running pooled features.

        The result is frozen (``writeable = False``) because the same
        array is handed out through :meth:`scores` and every
        :class:`AsyncStepReport` — a caller mutating it would corrupt
        the session's cached decision.
        """
        finite = np.isfinite(self._running_max)
        if not finite.any():
            scores = np.zeros(self.model.head.out_features)
        else:
            pooled = np.where(finite, self._running_max, 0.0)
            scores = self._plan.head(pooled)
        scores.flags.writeable = False
        return scores

    def predict(self) -> int:
        """Current class decision."""
        return int(self.scores().argmax())

    def process_event(self, x: int, y: int, t_us: int, polarity: int) -> AsyncStepReport:
        """Incorporate one event and refresh the decision.

        Args:
            x, y: pixel coordinates.
            t_us: timestamp.
            polarity: +1 or -1.

        Returns:
            Per-event work report with the updated scores.

        Raises:
            ValueError: on a timestamp earlier than the last insertion.
                The batch-equivalence guarantee rests on the causal-edge
                invariant — every existing node's features are final —
                which only holds when events arrive in time order
                (mirroring :class:`~repro.events.EventStream`'s
                sortedness contract).
        """
        if polarity not in (1, -1):
            raise ValueError("polarity must be +1 or -1")
        if self._last_t_us is not None and t_us < self._last_t_us:
            raise ValueError(
                f"out-of-order event: t_us={t_us} precedes the last "
                f"insertion at {self._last_t_us}; per-event inference "
                "requires non-decreasing timestamps (causal-edge invariant)"
            )
        expired = self._evict(int(t_us), reserve=1)
        cands_before = self._inserter.stats.candidates_examined
        self._neighbours = _NO_NEIGHBOURS
        node = self._inserter._insert_one(
            float(x), float(y), int(t_us), self._take_edges
        )
        candidates = self._inserter.stats.candidates_examined - cands_before
        neighbours = self._neighbours

        feats = [1.0 if polarity == 1 else 0.0, 1.0 if polarity == -1 else 0.0]
        if self.include_position:
            feats.append(x / self.resolution.width)
            feats.append(y / self.resolution.height)
        x0 = np.asarray(feats, dtype=np.float64)
        w = self._window
        row = w.row(node)
        plan = self._plan
        nrows = w.rows(neighbours)
        rel = w.pos[nrows] - w.pos[row]
        h1 = np.maximum(plan.conv(0, x0, w.x0[nrows], rel), 0.0)
        h2 = np.maximum(plan.conv(1, h1, w.x1[nrows], rel), 0.0)

        w.x0[row] = x0
        w.x1[row] = h1
        w.x2[row] = h2
        self._last_t_us = int(t_us)
        np.maximum(self._running_max, h2, out=self._running_max)

        # One head evaluation per event, cached for scores()/predict():
        # the charged head MACs match the work actually done.
        self._scores = self._compute_scores()
        k = int(neighbours.size)

        return AsyncStepReport(
            node_index=node,
            num_neighbours=k,
            insertion_candidates=int(candidates),
            macs=plan.node_macs + k * plan.edge_macs + plan.head_macs,
            scores=self._scores,
            expired_nodes=expired,
            live_nodes=self.num_live_nodes,
        )

    def _take_edges(self, src: np.ndarray, dst: int) -> None:
        """Edge sink of :meth:`process_event`: keep the new node's
        sources, and log them when unbounded (for :meth:`built_graph`)."""
        self._neighbours = src
        if self.max_live_nodes is None:
            self._inserter._append_edges(src, dst)

    def process_stream(self, stream) -> list[AsyncStepReport]:
        """Incorporate every event of an :class:`~repro.events.EventStream`."""
        return [
            self.process_event(int(x), int(y), int(t), int(p))
            for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p)
        ]

    # -- checkpoint / restore -----------------------------------------
    def snapshot(self) -> dict:
        """A self-contained checkpoint of the session state.

        The returned dict (schema :data:`SNAPSHOT_FORMAT`) owns copies
        of every array, so it stays valid — and restorable any number of
        times — while the engine keeps running.  Model weights are *not*
        part of the checkpoint; a snapshot can only be restored into an
        engine built around the same model configuration.

        Keys: ``format``, ``bounded``, ``capacity``, ``count``,
        ``live_start``, ``expired_total``, ``last_t_us``,
        ``running_max``, ``x0``/``x1``/``x2`` (per-layer feature rows),
        ``pos``, ``t`` (the node store's columns), ``inserter`` (a deep
        copy of its hash buckets and edge log, detached from the node
        store, whose columns the arrays carry).
        """
        w = self._window
        inserter = copy.copy(self._inserter)
        inserter.window = None
        return {
            "format": SNAPSHOT_FORMAT,
            "bounded": self.max_live_nodes is not None,
            "capacity": self.max_live_nodes,
            "count": w.count,
            "live_start": w.start,
            "expired_total": self._expired_total,
            "last_t_us": self._last_t_us,
            "running_max": self._running_max.copy(),
            **w.snapshot(),
            "inserter": copy.deepcopy(inserter),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`, replacing the current state.

        The snapshot is copied in, so the caller's dict remains reusable
        (e.g. as a retained last-good checkpoint).  Cached scores are
        *not* trusted from the checkpoint — they are lazily recomputed
        from the restored readout.

        Raises:
            ValueError: when the checkpoint is structurally incompatible
                with this engine (wrong schema, mode, capacity or array
                shapes).  Values are trusted as written: a checkpoint
                with the right shapes but wrong numbers restores.
        """
        fields = read_checkpoint(
            state,
            SNAPSHOT_FORMAT,
            {
                "count": int,
                "live_start": int,
                "expired_total": int,
                "last_t_us": lambda v: None if v is None else int(v),
                "running_max": lambda v: np.asarray(v, dtype=np.float64),
                "inserter": lambda v: v,
            },
        )
        bounded = self.max_live_nodes is not None
        if bool(state.get("bounded")) != bounded:
            raise ValueError("checkpoint bounded-mode flag does not match engine")
        if bounded and state.get("capacity") != self.max_live_nodes:
            raise ValueError(
                f"checkpoint capacity {state.get('capacity')} != engine "
                f"max_live_nodes {self.max_live_nodes}"
            )
        count = fields["count"]
        running_max = fields["running_max"]
        inserter = fields["inserter"]
        if running_max.shape != (self._hidden,):
            raise ValueError(
                f"checkpoint running_max has shape {running_max.shape}, "
                f"expected ({self._hidden},)"
            )
        if not isinstance(inserter, HashInserter):
            raise ValueError(
                f"checkpoint inserter is {type(inserter).__name__}, "
                "expected HashInserter"
            )
        if inserter.stats.events_inserted != count:
            raise ValueError(
                f"checkpoint inserter holds {inserter.stats.events_inserted} "
                f"nodes but count={count}"
            )
        # Validates the columns and live range before changing anything.
        self._window.restore(state, fields["live_start"], count)

        self._running_max = running_max.copy()
        self._expired_total = fields["expired_total"]
        self._last_t_us = fields["last_t_us"]
        self._inserter = copy.deepcopy(inserter)
        self._inserter.window = self._window
        self._scores = None

    # -- introspection -------------------------------------------------
    def node_features(self) -> np.ndarray:
        """Final conv2 features of every live node, ``(live, hidden)``."""
        w = self._window
        return w.x2[w.live_rows()]

    def built_graph(self):
        """The graph accumulated so far, as an :class:`EventGraph`.

        Edges come in the canonical ``(src, dst)`` order of every other
        builder, not in arrival order, so aggregations over the export
        run in the same float order as over the batch graph.

        Unbounded mode only: bounded mode recycles node rows and keeps
        no edge log, so there is no complete graph to return.
        """
        if self.max_live_nodes is not None:
            raise RuntimeError(
                "built_graph() requires the unbounded engine; bounded "
                "mode recycles node storage and keeps no edge log"
            )
        from .graph import EventGraph

        w = self._window
        n = w.count
        positions = w.pos[:n].copy() if n else np.zeros((0, 3))
        # The empty-graph feature width follows the configured feature
        # layout: polarity one-hot (2) plus normalised position (2) when
        # include_position is set.
        features = (
            w.x0[:n].copy() if n else np.zeros((0, self._feature_width))
        )
        edges = self._inserter.edges()
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        return EventGraph(positions, features, edges, self._inserter.time_scale_us)
