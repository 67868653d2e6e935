"""Event-graph neural networks: construction, layers, models, async updates."""

from .async_network import SNAPSHOT_FORMAT, AsyncEventGNN, AsyncStepReport
from .asynchronous import (
    HashInserter,
    InsertionStats,
    KDTreeInserter,
    LiveWindow,
    NaiveInserter,
)
from .build import (
    RADIUS_GRAPH_METHODS,
    knn_graph,
    limit_in_degree,
    make_causal,
    radius_graph,
)
from .compact import (
    CompactEventGraph,
    CompactGraphBuilder,
    dequantize_unit,
    quantize_offsets,
    quantize_unit,
)
from .detection import EventGNNLocalizer, fit_localizer, localisation_error
from .graph import EventGraph
from .hierarchical import HierarchicalEventGNN
from .layers import EdgeConv, GCNConv, SplineConvLite, scatter_max, scatter_mean, scatter_sum
from .models import (
    EventGNNClassifier,
    GraphBuildConfig,
    build_event_graph,
    evaluate_gnn,
    fit_gnn,
    subsample_stream,
)
from .pooling import global_max_pool, global_mean_pool, voxel_pool_graph

__all__ = [
    "EventGraph",
    "CompactEventGraph",
    "CompactGraphBuilder",
    "quantize_unit",
    "dequantize_unit",
    "quantize_offsets",
    "subsample_stream",
    "radius_graph",
    "RADIUS_GRAPH_METHODS",
    "HierarchicalEventGNN",
    "EventGNNLocalizer",
    "fit_localizer",
    "localisation_error",
    "knn_graph",
    "make_causal",
    "limit_in_degree",
    "NaiveInserter",
    "KDTreeInserter",
    "HashInserter",
    "LiveWindow",
    "InsertionStats",
    "AsyncEventGNN",
    "SNAPSHOT_FORMAT",
    "AsyncStepReport",
    "scatter_sum",
    "scatter_mean",
    "scatter_max",
    "GCNConv",
    "EdgeConv",
    "SplineConvLite",
    "voxel_pool_graph",
    "global_mean_pool",
    "global_max_pool",
    "GraphBuildConfig",
    "build_event_graph",
    "EventGNNClassifier",
    "fit_gnn",
    "evaluate_gnn",
]
