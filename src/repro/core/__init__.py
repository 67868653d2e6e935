"""The paradigm-comparison framework: the paper's Table I, regenerated."""

from .comparison import (
    ComparisonResult,
    agreement_with_paper,
    assemble_comparison,
    attach_row,
    render_table,
    run_comparison,
    to_markdown,
)
from .incremental import GNNIncrementalSession
from .metrics import (
    AXES,
    OVERLOAD_AXIS,
    ROBUSTNESS_AXIS,
    Axis,
    PipelineMetrics,
)
from .pipeline import (
    CNNPipeline,
    GNNPipeline,
    NotFittedError,
    ParadigmPipeline,
    SNNPipeline,
)
from .presets import (
    CNNConfig,
    GNNConfig,
    PipelineConfig,
    SNNConfig,
    default_configs,
    make_pipeline,
    table1_configs,
    table1_dataset,
    table1_pipelines,
)
from .ratings import Rating, rate_robustness, rate_values

__all__ = [
    "Rating",
    "rate_values",
    "rate_robustness",
    "Axis",
    "AXES",
    "ROBUSTNESS_AXIS",
    "OVERLOAD_AXIS",
    "PipelineMetrics",
    "NotFittedError",
    "ParadigmPipeline",
    "GNNIncrementalSession",
    "SNNPipeline",
    "CNNPipeline",
    "GNNPipeline",
    "SNNConfig",
    "CNNConfig",
    "GNNConfig",
    "PipelineConfig",
    "make_pipeline",
    "default_configs",
    "table1_configs",
    "ComparisonResult",
    "assemble_comparison",
    "run_comparison",
    "attach_row",
    "render_table",
    "to_markdown",
    "agreement_with_paper",
    "table1_pipelines",
    "table1_dataset",
]
