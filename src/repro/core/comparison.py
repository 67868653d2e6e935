"""Table I regeneration: run the three pipelines and score the 12 axes.

This is the top-level entry point of the reproduction: given a dataset
whose classes include temporally-defined ones, train the SNN / CNN / GNN
pipelines, measure every quantitative axis, convert measurements into
the paper's ``++ / + / -`` scale, and compare cell-by-cell against the
published Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.base import EventDataset
from .metrics import (
    AXES,
    GRAPH_MEMORY_COMPACT_AXIS,
    GRAPH_MEMORY_DENSE_AXIS,
    OVERLOAD_AXIS,
    ROBUSTNESS_AXIS,
    SESSION_ROBUSTNESS_AXIS,
    Axis,
    PipelineMetrics,
)
from .pipeline import CNNPipeline, GNNPipeline, ParadigmPipeline, SNNPipeline
from .ratings import Rating, rate_robustness, rate_values

__all__ = [
    "ComparisonResult",
    "measure_paradigm",
    "assemble_comparison",
    "run_comparison",
    "attach_robustness",
    "attach_overload",
    "attach_session_robustness",
    "attach_graph_memory",
    "render_table",
    "to_markdown",
    "agreement_with_paper",
]

PARADIGMS = ("SNN", "CNN", "GNN")


@dataclass
class ComparisonResult:
    """Everything produced by one comparison run.

    Attributes:
        metrics: paradigm name → measured metrics.
        ratings: axis key → (paradigm name → rating).
        extra_axes: measured rows beyond the paper's twelve (e.g. the
            noise/fault-robustness row a reliability sweep adds via
            :func:`attach_robustness`); rendered after the core rows.
    """

    metrics: dict[str, PipelineMetrics]
    ratings: dict[str, dict[str, Rating]] = field(default_factory=dict)
    extra_axes: list[Axis] = field(default_factory=list)

    @property
    def axes(self) -> tuple[Axis, ...]:
        """All rows of this comparison, core table first."""
        return tuple(AXES) + tuple(self.extra_axes)

    def rating(self, axis_key: str, paradigm: str) -> Rating:
        """Rating of one cell."""
        return self.ratings[axis_key][paradigm]


def measure_paradigm(
    pipeline: ParadigmPipeline,
    train: EventDataset,
    test: EventDataset,
    temporal_labels: tuple[int, ...] = (),
) -> PipelineMetrics:
    """Fit one pipeline and measure its Table-I column.

    The unit of work of one comparison grid cell — the serial loop of
    :func:`run_comparison` and the sharded executor
    (:mod:`repro.parallel`) both run exactly this.

    Args:
        pipeline: an unfitted paradigm pipeline.
        train, test: a shared dataset split.
        temporal_labels: labels distinguishable only through event timing.
    """
    pipeline.fit(train)
    return pipeline.measure(test, temporal_labels)


def assemble_comparison(metrics: dict[str, PipelineMetrics]) -> ComparisonResult:
    """Rate measured per-paradigm metrics into a comparison result.

    Args:
        metrics: paradigm name → measured metrics (must cover exactly
            SNN/CNN/GNN).
    """
    if set(metrics) != set(PARADIGMS):
        raise ValueError(f"metrics must cover exactly {PARADIGMS}")
    result = ComparisonResult(metrics=metrics)
    for axis in AXES:
        values = {name: metrics[name].value(axis) for name in PARADIGMS}
        result.ratings[axis.key] = rate_values(
            values, axis.higher_is_better, axis.tie_tolerance
        )
    return result


def run_comparison(
    train: EventDataset,
    test: EventDataset,
    temporal_labels: tuple[int, ...] = (),
    pipelines: dict[str, ParadigmPipeline] | None = None,
) -> ComparisonResult:
    """Train and measure all three pipelines serially, then rate every axis.

    The plain in-process loop; ``repro.parallel.run_sweep`` with
    ``SweepSpec(kind="comparison")`` adds sharded execution and
    representation caching and must produce byte-identical results.

    Args:
        train, test: a shared dataset split.
        temporal_labels: labels distinguishable only through event timing.
        pipelines: override the default pipeline instances (keys must be
            'SNN', 'CNN', 'GNN'; values may be pipeline instances or
            the config dataclasses of :mod:`repro.core.presets`).

    Returns:
        The filled comparison result.
    """
    if pipelines is None:
        pipelines = {
            "SNN": SNNPipeline(),
            "CNN": CNNPipeline(),
            "GNN": GNNPipeline(),
        }
    if set(pipelines) != set(PARADIGMS):
        raise ValueError(f"pipelines must cover exactly {PARADIGMS}")

    metrics: dict[str, PipelineMetrics] = {}
    for name in PARADIGMS:
        pipe = pipelines[name]
        if not hasattr(pipe, "fit"):  # a config dataclass, not an instance
            from .presets import make_pipeline

            pipe = make_pipeline(pipe)
        metrics[name] = measure_paradigm(pipe, train, test, temporal_labels)

    return assemble_comparison(metrics)


def attach_robustness(
    result: ComparisonResult, scores: dict[str, float]
) -> ComparisonResult:
    """Append the measured noise/fault-robustness row to a comparison.

    The paper asserts the robustness of each paradigm qualitatively;
    this regenerates that cell from data: ``scores`` are the
    retained-accuracy fractions measured by
    :func:`repro.reliability.sweep.robustness_scores`, rated on the
    same ``++ / + / -`` scale as every other row.

    Args:
        result: a comparison produced by :func:`run_comparison`.
        scores: paradigm name → retained-accuracy score in [0, 1].

    Returns:
        ``result``, with metrics, ratings and :attr:`~ComparisonResult.extra_axes`
        updated in place (returned for chaining).
    """
    if set(scores) != set(PARADIGMS):
        raise ValueError(f"scores must cover exactly {PARADIGMS}")
    for name in PARADIGMS:
        result.metrics[name].robustness = float(scores[name])
    result.ratings[ROBUSTNESS_AXIS.key] = rate_robustness(scores)
    if all(a.key != ROBUSTNESS_AXIS.key for a in result.extra_axes):
        result.extra_axes.append(ROBUSTNESS_AXIS)
    return result


def attach_overload(
    result: ComparisonResult, scores: dict[str, float]
) -> ComparisonResult:
    """Append the measured overload graceful-degradation row.

    ``scores`` are the delivered-window fractions each paradigm sustains
    above capacity, measured by
    :func:`repro.streaming.sweep.overload_scores`; they live on the same
    [0, 1] scale as the robustness scores and are rated identically.

    Args:
        result: a comparison produced by :func:`run_comparison`.
        scores: paradigm name → delivered-fraction score in [0, 1].

    Returns:
        ``result``, updated in place (returned for chaining).
    """
    if set(scores) != set(PARADIGMS):
        raise ValueError(f"scores must cover exactly {PARADIGMS}")
    for name in PARADIGMS:
        result.metrics[name].overload = float(scores[name])
    result.ratings[OVERLOAD_AXIS.key] = rate_robustness(scores)
    if all(a.key != OVERLOAD_AXIS.key for a in result.extra_axes):
        result.extra_axes.append(OVERLOAD_AXIS)
    return result


def attach_session_robustness(
    result: ComparisonResult, scores: dict[str, float]
) -> ComparisonResult:
    """Append the measured session-fault resilience row.

    ``scores`` are the retained-accuracy fractions of per-event serving
    under mid-session state faults, measured by
    :func:`repro.reliability.incremental.session_robustness_scores`.
    Paradigms without an incremental serving path carry ``nan`` (an
    honest "not measurable", rendered ``?``) rather than a made-up
    score — this row is the one place the scorecard is GNN-only by
    construction, exactly because only the event-graph paradigm has a
    live per-event session to corrupt.

    Args:
        result: a comparison produced by :func:`run_comparison`.
        scores: paradigm name → retained-accuracy score in [0, 1], or
            ``nan`` where the paradigm has no incremental session.

    Returns:
        ``result``, updated in place (returned for chaining).
    """
    if set(scores) != set(PARADIGMS):
        raise ValueError(f"scores must cover exactly {PARADIGMS}")
    for name in PARADIGMS:
        result.metrics[name].session_robustness = float(scores[name])
    result.ratings[SESSION_ROBUSTNESS_AXIS.key] = rate_robustness(scores)
    if all(a.key != SESSION_ROBUSTNESS_AXIS.key for a in result.extra_axes):
        result.extra_axes.append(SESSION_ROBUSTNESS_AXIS)
    return result


def attach_graph_memory(
    result: ComparisonResult,
    dense: dict[str, float] | None = None,
    compact: dict[str, float] | None = None,
) -> ComparisonResult:
    """Append the measured graph-storage rows (bytes/event, dense and compact).

    The GNN pipeline measures both representations of its own input
    graphs (:class:`~repro.core.pipeline.GNNPipeline` stores them on
    :class:`~repro.core.metrics.PipelineMetrics`); the SNN/CNN cells are
    ``nan`` — they hold no event graph — and render ``?``.  With no
    arguments the rows are pulled from the already-measured GNN metrics;
    explicit per-paradigm dicts override (for externally measured
    numbers, e.g. e2ebench's ``gnn.build.bytes_per_event.*``).

    Args:
        result: a comparison produced by :func:`run_comparison`.
        dense: optional paradigm name → dense bytes/event.
        compact: optional paradigm name → compact bytes/event.

    Returns:
        ``result``, updated in place (returned for chaining).
    """
    nan = float("nan")
    if dense is None:
        dense = {
            name: result.metrics[name].graph_memory_dense for name in PARADIGMS
        }
    if compact is None:
        compact = {
            name: result.metrics[name].graph_memory_compact for name in PARADIGMS
        }
    for scores in (dense, compact):
        if set(scores) != set(PARADIGMS):
            raise ValueError(f"scores must cover exactly {PARADIGMS}")
    for name in PARADIGMS:
        result.metrics[name].graph_memory_dense = float(dense.get(name, nan))
        result.metrics[name].graph_memory_compact = float(compact.get(name, nan))
    for axis, scores in (
        (GRAPH_MEMORY_DENSE_AXIS, dense),
        (GRAPH_MEMORY_COMPACT_AXIS, compact),
    ):
        result.ratings[axis.key] = rate_values(
            {name: float(scores[name]) for name in PARADIGMS},
            axis.higher_is_better,
            axis.tie_tolerance,
        )
        if all(a.key != axis.key for a in result.extra_axes):
            result.extra_axes.append(axis)
    return result


def _format_value(value: float) -> str:
    if not np.isfinite(value):
        return "?"
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-2:
        return f"{value:.2e}"
    return f"{value:.3g}"


def render_table(result: ComparisonResult, show_values: bool = True) -> str:
    """ASCII rendering of the regenerated Table I.

    Args:
        result: a comparison result.
        show_values: append the raw measured value to each rating cell.

    Returns:
        A multi-line table string (paper ratings in the last column).
    """
    rows: list[list[str]] = []
    header = ["Axis"] + [f"{p} (meas.)" for p in PARADIGMS] + ["paper (SNN/CNN/GNN)"]
    rows.append(header)
    for axis in result.axes:
        row = [axis.label]
        for name in PARADIGMS:
            rating = result.ratings[axis.key][name]
            if show_values:
                row.append(f"{rating.value} [{_format_value(result.metrics[name].value(axis))}]")
            else:
                row.append(rating.value)
        row.append("/".join(axis.paper_ratings))
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def to_markdown(result: ComparisonResult) -> str:
    """Render the regenerated Table I as GitHub-flavoured markdown.

    Args:
        result: a comparison result.

    Returns:
        A markdown table with measured ratings, raw values and the
        paper's published cells.
    """
    lines = [
        "| Axis | SNN | CNN | GNN | paper (SNN/CNN/GNN) |",
        "|---|---|---|---|---|",
    ]
    for axis in result.axes:
        cells = []
        for name in PARADIGMS:
            rating = result.ratings[axis.key][name]
            value = _format_value(result.metrics[name].value(axis))
            cells.append(f"`{rating.value}` ({value})")
        lines.append(
            f"| {axis.label} | {cells[0]} | {cells[1]} | {cells[2]} | "
            f"{'/'.join(c if c else '·' for c in axis.paper_ratings)} |"
        )
    return "\n".join(lines)


def agreement_with_paper(result: ComparisonResult) -> dict[str, float]:
    """Cell-by-cell agreement between measured ratings and the paper's.

    Cells the paper marks ``?`` (or leaves blank) are excluded.  Two
    agreement levels are reported: exact rating match, and *ordinal*
    match (the measured rating is within one grade of the paper's).

    Returns:
        ``{"exact": fraction, "within_one": fraction, "cells": count}``.
    """
    from .ratings import rating_rank

    exact = 0
    close = 0
    cells = 0
    for axis in result.axes:
        for name, paper_cell in zip(PARADIGMS, axis.paper_ratings):
            paper_cell = paper_cell.strip()
            if paper_cell in ("?", "", "++ (?)"):
                continue
            paper_rating = Rating(paper_cell.replace(" (?)", ""))
            measured = result.ratings[axis.key][name]
            if measured is Rating.UNKNOWN:
                continue
            cells += 1
            if measured is paper_rating:
                exact += 1
            if abs(rating_rank(measured) - rating_rank(paper_rating)) <= 1:
                close += 1
    if cells == 0:
        return {"exact": 0.0, "within_one": 0.0, "cells": 0}
    return {"exact": exact / cells, "within_one": close / cells, "cells": cells}
