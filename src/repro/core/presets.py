"""Tuned pipeline presets for the Table-I experiment.

The exact hyper-parameters used by the reproduction's headline run live
here, in one place, so the benchmark, the example script and the test
suite all measure the same configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from ..datasets.base import EventDataset, train_test_split
from ..datasets.gestures import make_gestures_dataset
from ..events.stream import Resolution
from ..gnn.models import GraphBuildConfig
from .pipeline import CNNPipeline, GNNPipeline, ParadigmPipeline, SNNPipeline

__all__ = [
    "SNNConfig",
    "CNNConfig",
    "GNNConfig",
    "PipelineConfig",
    "make_pipeline",
    "default_configs",
    "table1_configs",
    "table1_pipelines",
    "table1_dataset",
]


@dataclass(frozen=True)
class SNNConfig:
    """Frozen, picklable configuration of :class:`SNNPipeline`.

    Field meanings match the pipeline's keyword arguments (which keep
    working unchanged); defaults are identical, so
    ``SNNPipeline.from_config(SNNConfig())`` equals ``SNNPipeline()``.
    """

    paradigm: ClassVar[str] = "SNN"

    num_steps: int = 16
    pool: int = 2
    hidden: int = 32
    dt_us: float = 1000.0
    epochs: int = 12
    lr: float = 5e-3
    batch_size: int = 8
    update: str = "clock"
    seed: int = 0

    def kwargs(self) -> dict[str, Any]:
        """Keyword arguments for the pipeline constructor."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CNNConfig:
    """Frozen, picklable configuration of :class:`CNNPipeline`."""

    paradigm: ClassVar[str] = "CNN"

    base_width: int = 8
    representation: str = "two_channel"
    epochs: int = 15
    lr: float = 2e-3
    batch_size: int = 8
    seed: int = 0

    def kwargs(self) -> dict[str, Any]:
        """Keyword arguments for the pipeline constructor."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GNNConfig:
    """Frozen, picklable configuration of :class:`GNNPipeline`.

    Graph-construction fields are flattened in (one frozen dataclass
    per paradigm); :meth:`graph_config` rebuilds the nested
    :class:`~repro.gnn.models.GraphBuildConfig` the pipeline consumes.
    """

    paradigm: ClassVar[str] = "GNN"

    radius: float = 4.0
    time_scale_us: float = 5000.0
    max_events: int = 200
    max_degree: int = 10
    include_position: bool = False
    representation: str = "dense"
    quantization_bits: int = 8
    hidden: int = 12
    epochs: int = 12
    lr: float = 5e-3
    seed: int = 0

    def graph_config(self) -> GraphBuildConfig:
        """The nested graph-construction config."""
        return GraphBuildConfig(
            radius=self.radius,
            time_scale_us=self.time_scale_us,
            max_events=self.max_events,
            max_degree=self.max_degree,
            include_position=self.include_position,
            representation=self.representation,
            quantization_bits=self.quantization_bits,
        )

    def kwargs(self) -> dict[str, Any]:
        """Keyword arguments for the pipeline constructor."""
        return {
            "config": self.graph_config(),
            "hidden": self.hidden,
            "epochs": self.epochs,
            "lr": self.lr,
            "seed": self.seed,
        }


#: Any per-paradigm pipeline configuration.
PipelineConfig = SNNConfig | CNNConfig | GNNConfig

_PIPELINE_CLASSES: dict[str, type[ParadigmPipeline]] = {
    "SNN": SNNPipeline,
    "CNN": CNNPipeline,
    "GNN": GNNPipeline,
}


def make_pipeline(config: PipelineConfig) -> ParadigmPipeline:
    """Construct the pipeline a config dataclass describes.

    Args:
        config: an :class:`SNNConfig`, :class:`CNNConfig` or
            :class:`GNNConfig` (anything with ``paradigm`` and
            ``kwargs()``).
    """
    cls = _PIPELINE_CLASSES.get(getattr(config, "paradigm", None))
    if cls is None:
        raise ValueError(
            f"not a pipeline config: {type(config).__name__!r} "
            f"(expected paradigm in {tuple(_PIPELINE_CLASSES)})"
        )
    return cls.from_config(config)


def default_configs(seed: int = 0) -> dict[str, PipelineConfig]:
    """Default-hyperparameter configs for all three paradigms."""
    return {
        "SNN": SNNConfig(seed=seed),
        "CNN": CNNConfig(seed=seed),
        "GNN": GNNConfig(seed=seed),
    }


def table1_configs(seed: int = 0) -> dict[str, PipelineConfig]:
    """The pipeline configs of the headline Table-I run.

    Args:
        seed: model initialisation / shuffling seed.
    """
    return {
        "SNN": SNNConfig(num_steps=20, pool=3, hidden=24, epochs=12, seed=seed),
        "CNN": CNNConfig(base_width=6, epochs=12, seed=seed),
        "GNN": GNNConfig(
            radius=4.0,
            time_scale_us=3000.0,
            max_events=250,
            max_degree=8,
            include_position=True,
            hidden=12,
            epochs=14,
            seed=seed,
        ),
    }


def table1_pipelines(seed: int = 0) -> dict[str, ParadigmPipeline]:
    """The pipeline instances of the headline Table-I run.

    Args:
        seed: model initialisation / shuffling seed.
    """
    return {
        name: make_pipeline(config)
        for name, config in table1_configs(seed).items()
    }


def table1_dataset(seed: int = 1) -> tuple[EventDataset, EventDataset]:
    """The headline dataset: full-rotation motion gestures, split 75/25.

    Recordings span 1–2 full rotations (4–8 rev/s over 250 ms) so the
    CW/CCW classes genuinely require temporal information (a partial
    sweep would leak direction through the polarity asymmetry).

    Args:
        seed: dataset generation / split seed.

    Returns:
        ``(train, test)`` datasets.
    """
    dataset = make_gestures_dataset(
        num_per_class=8,
        resolution=Resolution(24, 24),
        duration_us=250_000,
        revs_range=(4.0, 8.0),
        seed=seed,
    )
    return train_test_split(dataset, 0.3, np.random.default_rng(seed))
