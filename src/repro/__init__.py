"""repro: a paradigm-comparison framework for event-camera processing.

A from-scratch reproduction of "The CNN vs. SNN Event-camera Dichotomy
and Perspectives For Event-Graph Neural Networks" (Dalgaty et al.,
DATE 2023): an event-camera simulator, the three processing paradigms
(spiking, dense-frame convolutional and event-graph neural networks),
analytical hardware cost models, and the comparison framework that
regenerates the paper's Table I and Fig. 1 from measurements.
"""

__version__ = "1.0.0"

from . import (
    analysis,
    camera,
    cnn,
    core,
    datasets,
    events,
    gnn,
    hw,
    nn,
    observability,
    reliability,
    sensors,
    snn,
    streaming,
)

__all__ = [
    "events",
    "camera",
    "sensors",
    "datasets",
    "nn",
    "snn",
    "cnn",
    "gnn",
    "hw",
    "core",
    "analysis",
    "reliability",
    "streaming",
    "observability",
    "__version__",
]
