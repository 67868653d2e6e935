"""Graph pooling operations.

Event graphs can contain thousands of nodes; classification needs a
fixed-size representation.  Voxel pooling coarsens the graph spatially
(as in AEGNN's pooling stages) and global pooling reduces node features
to one vector for the readout head.
"""

from __future__ import annotations

import numpy as np

from ..nn.tensor import Tensor
from .graph import EventGraph

__all__ = ["voxel_pool_graph", "global_mean_pool", "global_max_pool"]


def voxel_pool_graph(graph: EventGraph, cell_size: tuple[float, float, float]) -> tuple[EventGraph, np.ndarray]:
    """Coarsen a graph by merging nodes that share a spatiotemporal voxel.

    Merged node positions are voxel means; features are voxel means;
    edges are remapped and deduplicated (self-loops dropped).

    Args:
        graph: input graph.
        cell_size: voxel extents along (x, y, t-scaled).

    Returns:
        ``(pooled_graph, cluster)`` where ``cluster[i]`` is the pooled
        node index of original node i.
    """
    cs = np.asarray(cell_size, dtype=np.float64)
    if cs.shape != (3,) or np.any(cs <= 0):
        raise ValueError("cell_size must be three positive extents")
    if graph.num_nodes == 0:
        return graph, np.zeros(0, dtype=np.int64)
    cells = np.floor(graph.positions / cs).astype(np.int64)
    _, cluster = np.unique(cells, axis=0, return_inverse=True)
    num_clusters = int(cluster.max()) + 1

    pos_sum = np.zeros((num_clusters, 3))
    np.add.at(pos_sum, cluster, graph.positions)
    feat_sum = np.zeros((num_clusters, graph.features.shape[1]))
    np.add.at(feat_sum, cluster, graph.features)
    counts = np.bincount(cluster, minlength=num_clusters).astype(np.float64)

    if graph.num_edges:
        src = cluster[graph.edges[:, 0]]
        dst = cluster[graph.edges[:, 1]]
        keep = src != dst
        pairs = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
    else:
        pairs = np.zeros((0, 2), dtype=np.int64)

    pooled = EventGraph(
        pos_sum / counts[:, None],
        feat_sum / counts[:, None],
        pairs,
        graph.time_scale_us,
    )
    return pooled, cluster


def global_mean_pool(x: Tensor) -> Tensor:
    """Mean of all node features: ``(N, F) -> (1, F)``."""
    if x.ndim != 2:
        raise ValueError(f"expected (N, F) node features, got {x.shape}")
    return x.mean(axis=0, keepdims=True)


def global_max_pool(x: Tensor) -> Tensor:
    """Feature-wise max over nodes: ``(N, F) -> (1, F)``."""
    if x.ndim != 2:
        raise ValueError(f"expected (N, F) node features, got {x.shape}")
    return x.max(axis=0, keepdims=True)
