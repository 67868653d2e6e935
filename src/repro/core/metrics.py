"""The twelve comparison axes of Table I, as quantitative metrics.

Every row of the paper's qualitative comparison table is defined here,
each with its direction and how this framework measures it.  Ten of the
twelve are *measured* by running the paradigm pipelines on a common
dataset with the hardware cost models attached; two — hardware maturity
and configurability/scalability — are properties of the surrounding
ecosystem, not of any runnable artefact, so they are fixed literature
constants (flagged ``measured=False``) taken directly from the paper's
own assessment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ratings import Rating

__all__ = [
    "Axis",
    "AXES",
    "ROBUSTNESS_AXIS",
    "OVERLOAD_AXIS",
    "GRAPH_MEMORY_DENSE_AXIS",
    "GRAPH_MEMORY_COMPACT_AXIS",
    "PipelineMetrics",
]


@dataclass(frozen=True)
class Axis:
    """One row of Table I.

    Attributes:
        key: metric attribute name on :class:`PipelineMetrics`.
        label: row label as printed in the paper.
        higher_is_better: direction (the paper marks ↓ rows).
        measured: False for ecosystem axes scored from the literature.
        paper_ratings: the paper's own Table I entry (SNN, CNN, GNN).
        tie_tolerance: ratio treated as a tie when rating this axis.
    """

    key: str
    label: str
    higher_is_better: bool
    measured: bool
    paper_ratings: tuple[str, str, str]
    tie_tolerance: float = 1.5


#: Table I rows, in the paper's order.  ``paper_ratings`` transcribes the
#: published table: (SNN, CNN, GNN).
AXES: tuple[Axis, ...] = (
    Axis("temporal_info", "Data - Exploit temporal information", True, True, ("++", "-", "++"), 1.2),
    Axis("data_sparsity", "Data - Sparsity", True, True, ("++", "-", "++"), 1.5),
    Axis("data_preparation", "Data - Preparation (down)", False, True, ("++", "+", ""), 2.0),
    Axis("compute_sparsity", "Computation - Sparsity", True, True, ("++", "+", "++"), 1.3),
    Axis("num_operations", "Computation - # Operations (down)", False, True, ("+", "-", "++"), 2.0),
    Axis("accuracy", "Application - Accuracy", True, True, ("-", "+", "++"), 1.05),
    Axis("hw_maturity", "Hardware - Maturity", True, False, ("+", "++", ""), 1.2),
    Axis("memory_footprint", "Memory - Footprint (down)", False, True, ("+", "++", "?"), 2.0),
    Axis("memory_bandwidth", "Memory - Bandwidth (down)", False, True, ("+", "-", "?"), 2.0),
    Axis("energy_efficiency", "System - Energy Efficiency", True, True, ("++", "+", "?"), 2.0),
    Axis("configurability", "System - Configurability / Scalability", True, False, ("-", "++", "++ (?)"), 1.2),
    Axis("latency", "System - Latency (down)", False, True, ("++", "-", "++ (?)"), 2.0),
)


#: The measured noise/fault-robustness row.  The published table does
#: not quantify robustness, so its paper cells are ``?``; the row is
#: appended to a comparison only when a
#: :mod:`repro.reliability.sweep` has actually measured it (see
#: :func:`repro.core.comparison.attach_row`), keeping the default
#: twelve-row table identical to the paper's.
ROBUSTNESS_AXIS = Axis(
    "robustness",
    "System - Noise/fault robustness",
    higher_is_better=True,
    measured=True,
    paper_ratings=("?", "?", "?"),
    tie_tolerance=1.2,
)


#: The measured overload graceful-degradation row: the delivered-window
#: fraction each paradigm sustains when offered load exceeds capacity
#: (see :func:`repro.streaming.sweep.overload_scores`).  Like the
#: robustness row, the published table has no such quantity, so its
#: paper cells are ``?`` and the row is only appended when a streaming
#: sweep has measured it (:func:`repro.core.comparison.attach_row`).
OVERLOAD_AXIS = Axis(
    "overload",
    "System - Overload graceful degradation",
    higher_is_better=True,
    measured=True,
    paper_ratings=("?", "?", "?"),
    tie_tolerance=1.2,
)


#: The measured graph-storage rows: resident bytes per event of the
#: input representation each GNN pipeline traverses — the dense float64
#: :class:`~repro.gnn.EventGraph` versus the quantized fixed-degree
#: :class:`~repro.gnn.CompactEventGraph`.  Only the GNN pipeline holds
#: an event graph at all, so the SNN/CNN cells stay ``nan`` (rendered
#: ``?``); the rows are appended by
#: :func:`repro.core.comparison.attach_graph_memory` once the pipeline
#: has measured both layouts.
GRAPH_MEMORY_DENSE_AXIS = Axis(
    "graph_memory_dense",
    "Memory - Graph bytes/event (dense)",
    higher_is_better=False,
    measured=True,
    paper_ratings=("?", "?", "?"),
    tie_tolerance=2.0,
)

GRAPH_MEMORY_COMPACT_AXIS = Axis(
    "graph_memory_compact",
    "Memory - Graph bytes/event (compact)",
    higher_is_better=False,
    measured=True,
    paper_ratings=("?", "?", "?"),
    tie_tolerance=2.0,
)


#: Literature constants for the two unmeasurable axes, on an arbitrary
#: 1–3 ordinal scale matching the paper's assessment (Section III/V):
#: CNN hardware is mature and flexible; SNN processors exist but are
#: niche; event-GNN hardware "does not exist today".
LITERATURE_SCORES: dict[str, dict[str, float]] = {
    "hw_maturity": {"SNN": 2.0, "CNN": 3.0, "GNN": 1.0},
    "configurability": {"SNN": 1.0, "CNN": 3.0, "GNN": 3.0},
}


@dataclass
class PipelineMetrics:
    """Measured quantities of one paradigm pipeline on one dataset.

    Attribute names match :attr:`Axis.key`; units are noted per field.
    ``float('nan')`` marks quantities the pipeline cannot provide (they
    render as ``?``).

    Attributes:
        paradigm: "SNN", "CNN" or "GNN".
        temporal_info: accuracy on the temporally-defined class pairs
            (chance-corrected, in [0, 1]).
        data_sparsity: fraction of zeros in the prepared input.
        data_preparation: preprocessing operations per event.
        compute_sparsity: fraction of zero activations inside the model.
        num_operations: arithmetic operations per classification.
        accuracy: test accuracy in [0, 1].
        hw_maturity: literature ordinal (filled automatically).
        memory_footprint: bytes of weights + state.
        memory_bandwidth: memory accesses per classification.
        energy_efficiency: classifications per joule.
        configurability: literature ordinal (filled automatically).
        latency: microseconds from last relevant event to decision.
        robustness: retained-accuracy fraction under injected faults
            (filled by a reliability sweep; nan until measured).
        overload: delivered-window fraction under offered load above
            capacity (filled by a streaming sweep; nan until measured).
        graph_memory_dense: resident bytes per event of the dense
            float64 event-graph representation (GNN pipeline only;
            nan elsewhere).
        graph_memory_compact: resident bytes per event of the compact
            quantized fixed-degree representation (GNN pipeline only;
            nan elsewhere).
        extras: free-form measurement details for the report.
    """

    paradigm: str
    temporal_info: float = float("nan")
    data_sparsity: float = float("nan")
    data_preparation: float = float("nan")
    compute_sparsity: float = float("nan")
    num_operations: float = float("nan")
    accuracy: float = float("nan")
    hw_maturity: float = float("nan")
    memory_footprint: float = float("nan")
    memory_bandwidth: float = float("nan")
    energy_efficiency: float = float("nan")
    configurability: float = float("nan")
    latency: float = float("nan")
    robustness: float = float("nan")
    overload: float = float("nan")
    graph_memory_dense: float = float("nan")
    graph_memory_compact: float = float("nan")
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.paradigm not in ("SNN", "CNN", "GNN"):
            raise ValueError(f"paradigm must be SNN/CNN/GNN, got {self.paradigm}")
        # Ecosystem axes come from the literature constants.
        for key, scores in LITERATURE_SCORES.items():
            setattr(self, key, scores[self.paradigm])

    def value(self, axis: Axis) -> float:
        """The measured value for one axis."""
        return float(getattr(self, axis.key))
