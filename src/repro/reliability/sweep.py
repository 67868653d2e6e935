"""Robustness sweep: accuracy-degradation curves across fault severities.

The sweep is the measurement behind the noise/fault-robustness cell of
Table I: train each paradigm pipeline once on clean data, then evaluate
it repeatedly under an escalating fault profile (dead/hot pixels, event
drops, timestamp jitter, polarity flips, AER bit flips — the composable
models of :mod:`repro.reliability.faults`) injected through the hardened
runner.  Every recording that the faults render structurally invalid is
quarantined, every failing stage call is recorded, and the sweep always
completes with a full :class:`~repro.reliability.runner.RunReport` per
point — so a single corrupted recording can no longer abort hours of
training.

Results reduce to a *retained-accuracy* score per paradigm
(:func:`robustness_scores`), which
:func:`repro.core.comparison.attach_row` folds back into the
regenerated comparison table.

:func:`run_robustness_sweep` runs the sweep in-process: it validates
the grid, then loops over the paradigms, each fitted once and measured
at every severity by :func:`run_paradigm_curve`.  Every point draws its
own ``SeedSequence([seed, paradigm index, level])`` seed, so no point
depends on the order the others ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.comparison import PARADIGMS
from ..core.pipeline import ParadigmPipeline
from ..core.ratings import Rating, rate_robustness
from ..datasets.base import EventDataset
from .faults import (
    AERBitFlips,
    BurstyDrop,
    DeadPixels,
    FaultChain,
    FaultModel,
    HotPixels,
    PolarityFlip,
    TimestampJitter,
    UniformDrop,
)
from .runner import HardenedRunner, RunReport

__all__ = [
    "default_fault_profile",
    "SweepPoint",
    "RobustnessSweepResult",
    "run_paradigm_curve",
    "run_robustness_sweep",
    "robustness_scores",
]


def default_fault_profile(severity: float) -> FaultModel | None:
    """The standard severity → fault-chain mapping of the sweep.

    Severity 0 is the clean condition (no fault object at all); rising
    severity scales every process of a realistic mixed profile: array
    defects (dead + hot pixels), link losses (uniform + bursty drops),
    timing degradation (jitter) and signal corruption (polarity flips,
    AER bit flips).  At severity 1 roughly 90% of events are lost and a
    third of the array is defective.

    Args:
        severity: fault intensity in [0, 1].

    Returns:
        A composed :class:`~repro.reliability.faults.FaultChain`, or
        None at severity 0.
    """
    if not 0.0 <= severity <= 1.0:
        raise ValueError(f"severity must be in [0, 1], got {severity}")
    if severity == 0.0:
        return None
    return FaultChain(
        [
            DeadPixels(fraction=0.45 * severity),
            HotPixels(fraction=0.02 * severity, rate_hz=400.0),
            UniformDrop(probability=0.65 * severity),
            BurstyDrop(probability=0.45 * severity, burst_us=5000),
            TimestampJitter(sigma_us=3000.0 * severity),
            PolarityFlip(probability=0.30 * severity),
            AERBitFlips(bit_flip_probability=0.003 * severity),
        ]
    )


@dataclass
class SweepPoint:
    """One (paradigm, severity) evaluation.

    Attributes:
        severity: fault intensity of this point.
        accuracy: accuracy over the recordings that survived to
            prediction (nan when none did).
        report: the full per-recording account.
    """

    severity: float
    accuracy: float
    report: RunReport

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "severity": self.severity,
            "accuracy": self.accuracy,
            "report": self.report.to_dict(),
        }


@dataclass
class RobustnessSweepResult:
    """Everything produced by one robustness sweep.

    Attributes:
        severities: the swept fault intensities, ascending.
        curves: paradigm name → one :class:`SweepPoint` per severity.
        seed: master seed of the sweep.
    """

    severities: tuple[float, ...]
    curves: dict[str, list[SweepPoint]] = field(default_factory=dict)
    seed: int = 0

    def accuracies(self, paradigm: str) -> list[float]:
        """The degradation curve of one paradigm."""
        return [p.accuracy for p in self.curves[paradigm]]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "severities": list(self.severities),
            "seed": self.seed,
            "curves": {
                name: [p.to_dict() for p in points]
                for name, points in self.curves.items()
            },
        }


def robustness_scores(result: RobustnessSweepResult) -> dict[str, float]:
    """Reduce degradation curves to one retained-accuracy score each.

    The score is the mean, over the non-zero severities, of the accuracy
    retained relative to the clean (severity-0) point, clipped to
    [0, 1]; a paradigm whose accuracy is untouched by faults scores 1,
    one that collapses to zero scores 0.  Paradigms whose clean accuracy
    is nan (nothing evaluated) score nan and rate ``?``.

    Args:
        result: a completed sweep.

    Returns:
        paradigm name → retained-accuracy score.
    """
    scores: dict[str, float] = {}
    for name, points in result.curves.items():
        if not points:
            scores[name] = float("nan")
            continue
        clean = points[0].accuracy
        stressed = [p.accuracy for p in points[1:]] or [clean]
        if not np.isfinite(clean) or clean <= 0:
            scores[name] = float("nan")
            continue
        retained = [
            min(1.0, max(0.0, acc / clean)) if np.isfinite(acc) else 0.0
            for acc in stressed
        ]
        scores[name] = float(np.mean(retained))
    return scores


def rate_sweep(result: RobustnessSweepResult) -> dict[str, Rating]:
    """Rate a sweep's retained-accuracy scores on the ``++ / + / -`` scale."""
    return rate_robustness(robustness_scores(result))


def run_paradigm_curve(
    name: str,
    pipeline: ParadigmPipeline,
    train: EventDataset,
    test: EventDataset,
    severities: Sequence[float],
    seed: int = 0,
    instrumentation=None,
) -> list[SweepPoint]:
    """Measure one paradigm's accuracy-degradation curve.

    Train the pipeline once through the hardened runner, then evaluate
    every severity of :func:`default_fault_profile` with its
    deterministic per-point seed (derived from ``seed``, the paradigm
    index and the severity level, so a point does not depend on which
    points ran before it).

    Args:
        name: paradigm name ('SNN' / 'CNN' / 'GNN').
        pipeline: the (unfitted) pipeline of this paradigm.
        train, test: the shared dataset split.
        severities: ascending fault intensities.
        seed: master seed for fault injection.
        instrumentation: optional observability sink for the runner.

    Returns:
        One :class:`SweepPoint` per severity.

    Raises:
        RuntimeError: when the pipeline fails to fit.
    """
    runner = HardenedRunner(pipeline, instrumentation=instrumentation)
    fit_result = runner.fit(train)
    if not fit_result.ok:
        raise RuntimeError(
            f"{name} pipeline failed to fit: "
            f"{fit_result.error_type}: {fit_result.error_message}"
        )
    points: list[SweepPoint] = []
    for level, severity in enumerate(severities):
        # One deterministic seed per (paradigm, severity) point.
        point_seed = int(
            np.random.SeedSequence(
                [seed, PARADIGMS.index(name), level]
            ).generate_state(1)[0]
        )
        report = runner.evaluate(
            test, fault=default_fault_profile(severity), seed=point_seed
        )
        points.append(
            SweepPoint(severity=severity, accuracy=report.accuracy(), report=report)
        )
    return points


def run_robustness_sweep(
    train: EventDataset,
    test: EventDataset,
    pipelines: Mapping[str, ParadigmPipeline],
    severities: Sequence[float],
    seed: int = 0,
    instrumentation=None,
) -> RobustnessSweepResult:
    """Run every paradigm's degradation curve, in :data:`PARADIGMS` order.

    Args:
        train, test: the shared dataset split.
        pipelines: paradigm name → unfitted pipeline; must cover
            exactly :data:`PARADIGMS`.
        severities: non-empty, ascending fault intensities.
        seed: master seed for fault injection.
        instrumentation: optional observability sink shared by every
            paradigm's runner.

    Raises:
        ValueError: on an empty or unordered grid, or pipelines that do
            not cover exactly :data:`PARADIGMS`; before anything is fit.
        RuntimeError: when a pipeline fails to fit.
    """
    severities = tuple(float(s) for s in severities)
    if not severities:
        raise ValueError("severities must not be empty")
    if list(severities) != sorted(severities):
        raise ValueError("severities must be ascending")
    if set(pipelines) != set(PARADIGMS):
        raise ValueError(f"pipelines must cover exactly {PARADIGMS}")
    result = RobustnessSweepResult(severities=severities, seed=seed)
    for name in PARADIGMS:
        result.curves[name] = run_paradigm_curve(
            name,
            pipelines[name],
            train,
            test,
            severities,
            seed=seed,
            instrumentation=instrumentation,
        )
    return result
