"""Event-graph classifiers and their training loop.

The end-to-end GNN pipeline of Section IV: stream → point cloud →
causal radius graph → graph convolutions → global pooling →
linear head.  The model also reports the operation counts that back the
paper's claim of "orders of magnitude fewer neural network calculations
and parameters" relative to dense-frame CNNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..datasets.base import EventDataset
from ..events.stream import EventStream
from ..nn import Adam, Tensor, cross_entropy, no_grad, stable_matmul
from ..nn.layers import Linear, Module
from .asynchronous import HashInserter
from .compact import CompactGraphBuilder
from .graph import EventGraph
from .layers import EdgeConv, SplineConvLite
from .pooling import global_max_pool

__all__ = [
    "GraphBuildConfig",
    "build_event_graph",
    "subsample_stream",
    "EventGNNClassifier",
    "fit_gnn",
    "evaluate_gnn",
]


@dataclass(frozen=True)
class GraphBuildConfig:
    """Graph-construction hyper-parameters.

    Attributes:
        radius: connection radius in scaled spatiotemporal units.
        time_scale_us: microseconds per temporal unit.
        max_events: subsample the stream to at most this many events
            (uniform stride) to bound graph size.
        max_degree: in-degree cap.
        causal: keep only past → future edges; must be True, the one
            build both representations and the asynchronous engine share.
        include_position: append normalised absolute coordinates to the
            node features (see :meth:`EventGraph.from_stream`).
        representation: graph storage layout — "dense" (the historical
            :class:`EventGraph`) or "compact" (the memory-bounded
            :class:`~repro.gnn.compact.CompactEventGraph`); see
            :func:`build_event_graph`.
        quantization_bits: feature/edge-offset grid width of the
            compact representation (0 disables quantization, making
            compact bitwise-equivalent to dense; ignored by dense).
    """

    radius: float = 4.0
    time_scale_us: float = 5000.0
    max_events: int = 512
    max_degree: int = 12
    causal: bool = True
    include_position: bool = False
    representation: str = "dense"
    quantization_bits: int = 8

    @property
    def num_node_features(self) -> int:
        """Node feature width produced under this configuration."""
        return 4 if self.include_position else 2

    def __post_init__(self) -> None:
        # ``not x > 0`` also rejects nan; isfinite rejects inf.
        scales = (self.radius, self.time_scale_us)
        if not all(v > 0 and math.isfinite(v) for v in scales):
            raise ValueError("radius and time_scale_us must be positive and finite")
        if self.max_events <= 0 or self.max_degree <= 0:
            raise ValueError("max_events and max_degree must be positive")
        if self.representation not in ("dense", "compact"):
            raise ValueError(
                f"representation must be 'dense' or 'compact', "
                f"got {self.representation!r}"
            )
        if not (self.quantization_bits == 0 or 2 <= self.quantization_bits <= 16):
            raise ValueError("quantization_bits must be 0 or in [2, 16]")
        if not self.causal:
            raise ValueError("graph builds require causal=True (past -> future edges)")


def subsample_stream(stream: EventStream, max_events: int) -> EventStream:
    """Uniform-stride subsample bounding graph size (both layouts)."""
    if len(stream) > max_events:
        idx = np.linspace(0, len(stream) - 1, max_events).astype(np.int64)
        stream = stream[np.unique(idx)]
    return stream


def _causal_capped_edges(stream: EventStream, config: GraphBuildConfig) -> np.ndarray:
    """The capped causal edge set of a time-ordered stream, canonical order.

    Runs the sliced :meth:`HashInserter.insert_many` kernel with an
    unbounded liveness window, so memory follows one slice plus the
    edge list rather than the all-pairs radius graph.  Equal to
    ``limit_in_degree(make_causal(radius_graph(points, r), points), points, k)``
    (a tested invariant).
    """
    soa = stream.soa()
    n = len(soa)
    if n >= 1 << 31:
        raise ValueError("a dense causal build packs edges in int64: < 2**31 events")
    inserter = HashInserter(
        config.radius,
        time_scale_us=config.time_scale_us,
        window_us=1 << 62,
        max_neighbours=config.max_degree,
    )
    # Each edge as one packed (src, dst) int64: 8 B per edge while the
    # kernel runs, sorted into canonical order at the end.
    parts: list[np.ndarray] = []
    inserter._insert_sliced(
        *inserter._columns(soa.x, soa.y, soa.t),
        lambda src, dst: parts.append(src * n + dst),
    )
    keys = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    del parts
    keys.sort()  # packed (src, dst) pairs are unique: a plain value sort
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.floor_divide(keys, n, out=edges[:, 0])
    np.remainder(keys, n, out=edges[:, 1])
    return edges


def build_event_graph(stream: EventStream, config: GraphBuildConfig):
    """Construct the classification graph for one recording.

    ``config.representation`` selects the storage: "dense" wraps the
    edge list in an :class:`EventGraph`, "compact" packs a
    :class:`~repro.gnn.compact.CompactEventGraph` through
    :class:`~repro.gnn.compact.CompactGraphBuilder`.  Both subsample
    the stream identically and take the same capped causal edge set
    from one kernel, :meth:`HashInserter.insert_many` (pinned to the
    ``radius_graph → make_causal → limit_in_degree`` oracle by tests),
    so the layouts differ only in storage and, when enabled,
    quantization; ``quantization_bits=0`` makes compact bitwise
    equivalent to dense.
    """
    stream = subsample_stream(stream, config.max_events)
    if config.representation == "dense":
        return EventGraph.from_stream(
            stream,
            _causal_capped_edges(stream, config),
            config.time_scale_us,
            include_position=config.include_position,
        )
    soa = stream.soa()
    builder = CompactGraphBuilder(
        radius=config.radius,
        time_scale_us=config.time_scale_us,
        max_degree=config.max_degree,
        quantization_bits=config.quantization_bits,
        include_position=config.include_position,
        resolution=stream.resolution,
    )
    builder.extend(soa.x, soa.y, soa.t, soa.p)
    return builder.graph()


class EventGNNClassifier(Module):
    """Two graph-conv layers + global max pooling + linear head.

    Args:
        num_classes: output classes.
        hidden: feature width of the conv layers.
        conv: "edge" for :class:`EdgeConv`, "spline" for
            :class:`SplineConvLite`.
        in_features: node feature width (2, or 4 with positions).
        rng: initialisation generator.
    """

    def __init__(
        self,
        num_classes: int,
        hidden: int = 16,
        conv: str = "edge",
        in_features: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if conv not in ("edge", "spline"):
            raise ValueError("conv must be 'edge' or 'spline'")
        if in_features <= 0:
            raise ValueError("in_features must be positive")
        rng = rng or np.random.default_rng(0)
        if conv == "edge":
            self.conv1: Module = EdgeConv(in_features, hidden, hidden=hidden, rng=rng)
            self.conv2: Module = EdgeConv(hidden, hidden, hidden=hidden, rng=rng)
        else:
            self.conv1 = SplineConvLite(in_features, hidden, rng=rng)
            self.conv2 = SplineConvLite(hidden, hidden, rng=rng)
        self.head = Linear(hidden, num_classes, rng=rng)

    def forward(self, graph) -> Tensor:
        """Logits ``(1, num_classes)`` for one event graph.

        Accepts a dense :class:`EventGraph` or a
        :class:`~repro.gnn.compact.CompactEventGraph`.  A compact graph
        with quantization enabled supplies its grid-quantized edge
        offsets (``conv_rel_pos``) to the convolutions; otherwise exact
        offsets are computed from the positions, and the two paths are
        bit-identical.

        Runs under :class:`~repro.nn.stable_matmul` so that every node's
        features come out bit-identical whether the graph is evaluated
        whole (this method) or one event at a time
        (:class:`~repro.gnn.AsyncEventGNN`, which runs the same einsum
        on the same weight views) — the exact-equivalence invariant the
        incremental serving path is tested against.
        """
        conv_rel = getattr(graph, "conv_rel_pos", None)
        rel_pos = conv_rel() if conv_rel is not None else None
        with stable_matmul():
            x = Tensor(graph.features)
            x = self.conv1(
                x, graph.edges, graph.positions, rel_pos=rel_pos
            ).relu()
            x = self.conv2(
                x, graph.edges, graph.positions, rel_pos=rel_pos
            ).relu()
            return self.head(global_max_pool(x))

    def operation_count(self, graph: EventGraph) -> int:
        """Approximate multiply-accumulate count of one forward pass.

        Message MLP / kernel work scales with edges; node transforms
        scale with nodes.  This is the number compared against the dense
        CNN's MAC count in the Table I "# operations" row.
        """
        n, e = graph.num_nodes, max(graph.num_edges, 1)
        total = 0
        for conv in (self.conv1, self.conv2):
            if isinstance(conv, EdgeConv):
                per_edge = sum(
                    layer.in_features * layer.out_features
                    for layer in conv.mlp.layers
                    if isinstance(layer, Linear)
                )
                total += e * per_edge
                total += n * conv.self_mlp.in_features * conv.self_mlp.out_features
            else:  # SplineConvLite
                b, f_out, f_in = conv.weights.shape
                total += e * b * f_out * f_in
                total += n * conv.root.in_features * conv.root.out_features
        total += self.head.in_features * self.head.out_features
        return total


@dataclass
class GNNTrainResult:
    """Training summary.

    Attributes:
        losses: mean loss per epoch.
        train_accuracy: final accuracy on the training set.
    """

    losses: list[float]
    train_accuracy: float


def fit_gnn(
    model: EventGNNClassifier,
    dataset: EventDataset,
    config: GraphBuildConfig,
    epochs: int = 10,
    lr: float = 5e-3,
    rng: np.random.Generator | None = None,
    graphs: list[EventGraph] | None = None,
) -> GNNTrainResult:
    """Train a graph classifier, one graph per step.

    Graphs are pre-built once (construction is deterministic) and
    shuffled between epochs; callers holding already-built graphs
    pass them via ``graphs``, aligned with ``dataset`` order.
    ``epochs=0`` performs no optimisation and just evaluates the
    model as given.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    rng = rng or np.random.default_rng(0)
    if graphs is None:
        graphs = [build_event_graph(s.stream, config) for s in dataset]
    elif len(graphs) != len(dataset):
        raise ValueError("graphs must align one-to-one with dataset")
    labels = dataset.labels()
    opt = Adam(model.parameters(), lr=lr)
    losses: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(graphs))
        epoch_loss = 0.0
        for i in order:
            opt.zero_grad()
            loss = cross_entropy(model(graphs[i]), labels[i : i + 1])
            loss.backward()
            opt.step()
            epoch_loss += loss.item()
        losses.append(epoch_loss / len(graphs))
    return GNNTrainResult(losses, evaluate_gnn(model, dataset, config, graphs=graphs))


def evaluate_gnn(
    model: EventGNNClassifier,
    dataset: EventDataset,
    config: GraphBuildConfig,
    graphs: list[EventGraph] | None = None,
) -> float:
    """Accuracy of the classifier on a dataset."""
    if graphs is None:
        graphs = [build_event_graph(s.stream, config) for s in dataset]
    labels = dataset.labels()
    correct = 0
    with no_grad():
        for g, y in zip(graphs, labels):
            pred = int(model(g).data.argmax())
            correct += pred == y
    return correct / len(graphs)
