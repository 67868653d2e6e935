"""Event-based motion segmentation via graph connectivity.

Section IV cites motion segmentation (Mitrokhin et al. 2020, ref [71])
among the tasks event-graph methods handle.  The graph structure itself
already performs a first segmentation: events belonging to one coherent
moving object are densely connected in (x, y, t) while separate objects
(or noise) form separate components.  This module labels events by the
connected components of their spatiotemporal radius graph and evaluates
cluster quality against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from ..events.stream import EventStream
from ..gnn.build import radius_graph

__all__ = ["SegmentationResult", "segment_events", "segmentation_purity"]


@dataclass(frozen=True)
class SegmentationResult:
    """Connected-component labelling of a stream's events.

    Attributes:
        labels: per-event component id (−1 for events in tiny components
            treated as noise).
        num_segments: number of retained components.
        num_noise: events labelled as noise.
    """

    labels: np.ndarray
    num_segments: int
    num_noise: int

    def segment_sizes(self) -> np.ndarray:
        """Sizes of the retained segments, largest first."""
        if self.num_segments == 0:
            return np.zeros(0, dtype=np.int64)
        counts = np.bincount(self.labels[self.labels >= 0], minlength=self.num_segments)
        return np.sort(counts)[::-1]  # sort-ok: value sort, ties identical


def segment_events(
    stream: EventStream,
    radius: float = 3.0,
    time_scale_us: float = 2000.0,
    min_size: int = 10,
    max_events: int = 1500,
) -> SegmentationResult:
    """Label events by spatiotemporal connected components.

    Args:
        stream: input events.
        radius: connection radius in scaled units.
        time_scale_us: microseconds per temporal unit.
        min_size: components smaller than this are labelled noise (−1).
        max_events: uniform subsample cap (labels refer to the
            subsampled stream; use :func:`numpy.linspace` indices to map
            back if needed).

    Returns:
        Component labelling of the (possibly subsampled) stream.
    """
    if radius <= 0 or time_scale_us <= 0:
        raise ValueError("radius and time_scale_us must be positive")
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    if max_events <= 0:
        raise ValueError("max_events must be positive")
    if len(stream) > max_events:
        idx = np.unique(np.linspace(0, len(stream) - 1, max_events).astype(np.int64))
        stream = stream[idx]
    n = len(stream)
    if n == 0:
        return SegmentationResult(np.zeros(0, dtype=np.int64), 0, 0)

    points = stream.as_point_cloud(time_scale_us)
    edges = radius_graph(points, radius)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(map(tuple, edges))

    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    num_noise = 0
    for component in nx.connected_components(graph):
        if len(component) >= min_size:
            labels[list(component)] = next_label
            next_label += 1
        else:
            num_noise += len(component)
    return SegmentationResult(labels, next_label, num_noise)


def segmentation_purity(labels: np.ndarray, truth: np.ndarray) -> float:
    """Cluster purity of a labelling against ground-truth object ids.

    Noise-labelled events (−1) are excluded; purity is the fraction of
    events whose segment's majority ground-truth id matches their own.

    Args:
        labels: predicted segment ids (−1 = noise).
        truth: ground-truth object ids, same length.
    """
    labels = np.asarray(labels, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if labels.shape != truth.shape:
        raise ValueError("labels and truth must have equal shape")
    mask = labels >= 0
    if not mask.any():
        return 0.0
    correct = 0
    for seg in np.unique(labels[mask]):
        seg_truth = truth[labels == seg]
        counts = np.bincount(seg_truth)
        correct += int(counts.max())
    return correct / int(mask.sum())
