"""The unified graph-representation API.

A *representation* decides how one recording's events become a graph
object the classifier can consume: the historical float64/int64
:class:`~repro.gnn.graph.EventGraph` ("dense") or the memory-bounded,
integer-quantized :class:`~repro.gnn.compact.CompactEventGraph`
("compact").  Pipelines select it declaratively through the
``representation`` field on :class:`~repro.gnn.models.GraphBuildConfig`
— :func:`~repro.gnn.models.build_event_graph` routes through the
registry here, so every existing call site keeps working unchanged.

Both representations subsample the stream identically and take the
same capped causal edge set from one kernel,
:meth:`~repro.gnn.asynchronous.HashInserter.insert_many` (pinned to the
``radius_graph → make_causal → limit_in_degree`` oracle by tests), so
"dense vs compact" differs only in storage layout and, when enabled,
quantization.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..events.stream import EventStream
from .asynchronous import HashInserter
from .compact import CompactGraphBuilder
from .graph import EventGraph

__all__ = [
    "GraphRepresentation",
    "DenseGraphRepresentation",
    "CompactGraphRepresentation",
    "REPRESENTATIONS",
    "get_representation",
    "subsample_stream",
]


def subsample_stream(stream: EventStream, max_events: int) -> EventStream:
    """Uniform-stride subsample bounding graph size (shared by all reps)."""
    if len(stream) > max_events:
        idx = np.linspace(0, len(stream) - 1, max_events).astype(np.int64)
        stream = stream[np.unique(idx)]
    return stream


@runtime_checkable
class GraphRepresentation(Protocol):
    """One way of materialising a recording as a classifier-ready graph.

    Implementations are stateless singletons registered in
    :data:`REPRESENTATIONS`; ``build`` must be deterministic in
    ``(stream, config)``.
    """

    #: Registry key and the value of ``GraphBuildConfig.representation``.
    name: str

    def build(self, stream: EventStream, config):
        """Build the graph of one recording.

        Args:
            stream: the recording.
            config: a :class:`~repro.gnn.models.GraphBuildConfig`.

        Returns:
            A graph object exposing the dense API surface
            (``positions`` / ``features`` / ``edges`` / ``num_nodes``
            …).
        """
        ...


def _causal_capped_edges(stream: EventStream, config) -> np.ndarray:
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


class DenseGraphRepresentation:
    """The historical float64/int64 :class:`EventGraph` build.

    The edges come from the same sliced :meth:`HashInserter.insert_many`
    kernel as the compact build (``_causal_capped_edges``);
    ``radius_graph`` → ``make_causal`` → ``limit_in_degree`` remain its
    public, tested oracle.
    """

    name = "dense"

    def build(self, stream: EventStream, config) -> EventGraph:
        stream = subsample_stream(stream, config.max_events)
        return EventGraph.from_stream(
            stream,
            _causal_capped_edges(stream, config),
            config.time_scale_us,
            include_position=config.include_position,
        )


class CompactGraphRepresentation:
    """The memory-bounded :class:`CompactEventGraph` build.

    Incremental construction over the same subsampled columns.
    ``config.quantization_bits == 0`` makes the result
    bitwise-equivalent to the dense build.
    """

    name = "compact"

    def build(self, stream: EventStream, config):
        stream = subsample_stream(stream, config.max_events)
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


#: Registry: ``GraphBuildConfig.representation`` value → implementation.
REPRESENTATIONS: dict[str, GraphRepresentation] = {
    "dense": DenseGraphRepresentation(),
    "compact": CompactGraphRepresentation(),
}


def get_representation(name: str) -> GraphRepresentation:
    """Look up a representation by name.

    Args:
        name: a key of :data:`REPRESENTATIONS`.
    """
    try:
        return REPRESENTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown graph representation {name!r} "
            f"(expected one of {tuple(REPRESENTATIONS)})"
        ) from None
