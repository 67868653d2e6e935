"""Degradation-aware pipeline runner: validate, quarantine, record.

The paradigm pipelines (:mod:`repro.core.pipeline`) assume clean inputs
and abort on the first malformed recording — acceptable in a unit test,
fatal in a sweep that trains three paradigms across many fault
severities.  :class:`HardenedRunner` wraps ``fit`` / ``predict`` /
``measure`` with the reliability policies a sweep needs:

* **per-recording validation + quarantine** — every recording is checked
  against the :data:`~repro.events.stream.EVENT_DTYPE` invariants before
  it reaches the model; corrupted ones are quarantined with a reason
  instead of crashing the run;
* **skip-and-record semantics** — each stage call runs once, and a
  failing one is recorded rather than raised: every recording produces a
  :class:`RecordingReport` inside a structured :class:`RunReport`, so a
  sweep always completes with an account of what happened.  There is no
  retry or wall-clock timeout: the pipelines and fault models are seeded
  and deterministic, so a retry repeats the same failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from ..core.pipeline import NotFittedError, ParadigmPipeline
from ..datasets.base import EventDataset, EventSample
from ..events.stream import EventStream
from ..observability import Instrumentation
from .faults import FaultModel, apply_fault

__all__ = [
    "RecordingOutcome",
    "RecordingReport",
    "RunReport",
    "StageResult",
    "HardenedRunner",
    "validate_sample",
]


class RecordingOutcome(str, Enum):
    """What happened to one recording inside a hardened run."""

    OK = "ok"
    QUARANTINED = "quarantined"
    FAILED = "failed"


@dataclass
class RecordingReport:
    """Outcome of one recording.

    Attributes:
        index: position of the recording in the dataset.
        label: ground-truth class.
        outcome: what happened.
        predicted: model output (None unless outcome is OK).
        problems: validation problems that caused a quarantine.
        error_type: exception class name for FAILED records.
        error_message: exception message for FAILED records.
        elapsed_s: wall-clock time spent on the recording.
    """

    index: int
    label: int
    outcome: RecordingOutcome
    predicted: int | None = None
    problems: list[str] = field(default_factory=list)
    error_type: str = ""
    error_message: str = ""
    elapsed_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "index": self.index,
            "label": self.label,
            "outcome": self.outcome.value,
            "predicted": self.predicted,
            "problems": list(self.problems),
            "error_type": self.error_type,
            "error_message": self.error_message,
            "elapsed_s": round(self.elapsed_s, 6),
        }


@dataclass
class RunReport:
    """Structured account of one hardened evaluation pass.

    Attributes:
        pipeline: paradigm name of the wrapped pipeline.
        fault: repr of the injected fault configuration ("" when clean).
        seed: fault-injection seed of this pass.
        records: one report per recording, in dataset order.
    """

    pipeline: str
    fault: str = ""
    seed: int = 0
    records: list[RecordingReport] = field(default_factory=list)

    def outcome_counts(self) -> dict[str, int]:
        """Outcome value → number of recordings."""
        counts = {o.value: 0 for o in RecordingOutcome}
        for r in self.records:
            counts[r.outcome.value] += 1
        return counts

    @property
    def num_evaluated(self) -> int:
        """Recordings that produced a prediction."""
        return sum(1 for r in self.records if r.outcome is RecordingOutcome.OK)

    @property
    def quarantined_indices(self) -> list[int]:
        """Dataset indices of quarantined recordings."""
        return [
            r.index for r in self.records if r.outcome is RecordingOutcome.QUARANTINED
        ]

    def accuracy(self) -> float:
        """Accuracy over the successfully evaluated recordings (nan if none)."""
        evaluated = [r for r in self.records if r.outcome is RecordingOutcome.OK]
        if not evaluated:
            return float("nan")
        return float(
            np.mean([1.0 if r.predicted == r.label else 0.0 for r in evaluated])
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "pipeline": self.pipeline,
            "fault": self.fault,
            "seed": self.seed,
            "outcome_counts": self.outcome_counts(),
            "accuracy": self.accuracy(),
            "records": [r.to_dict() for r in self.records],
        }


@dataclass
class StageResult:
    """Outcome of one guarded pipeline stage (fit or measure).

    Attributes:
        name: stage name.
        ok: whether the stage completed.
        value: the stage's return value when ok.
        error_type: exception class name when not ok.
        error_message: exception message when not ok.
        elapsed_s: wall-clock time spent.
    """

    name: str
    ok: bool
    value: Any = None
    error_type: str = ""
    error_message: str = ""
    elapsed_s: float = 0.0


def validate_sample(sample: EventSample, expected_resolution) -> list[str]:
    """Pre-flight checks of one recording against the dataset contract.

    Args:
        sample: the recording.
        expected_resolution: resolution every recording must share.

    Returns:
        Problem descriptions; empty when the recording is usable.
    """
    stream = sample.stream
    problems = stream.validate()
    if stream.resolution != expected_resolution:
        problems.append(
            f"resolution {stream.resolution} != dataset {expected_resolution}"
        )
    return problems


class HardenedRunner:
    """Fault-tolerant wrapper around one :class:`ParadigmPipeline`.

    Each stage call runs once: the pipelines and fault models are seeded
    and deterministic, so a retry would repeat the same failure.  A
    failing call is recorded as a failed :class:`StageResult` (a FAILED
    record for ``predict``) instead of raised, except
    :class:`NotFittedError` — a configuration error, re-raised so the
    caller fails fast.

    Args:
        pipeline: the pipeline to protect.
        instrumentation: optional observability sink, attached to the
            pipeline (see :meth:`ParadigmPipeline.instrument`) so every
            stage call is counted, timed and traced there.  Every
            classified recording is counted into
            ``runner_records_total{outcome=...}``.
    """

    def __init__(
        self,
        pipeline: ParadigmPipeline,
        *,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if instrumentation is not None:
            pipeline.instrument(instrumentation)
        self.pipeline = pipeline
        self.instrumentation = instrumentation

    def _run_stage(self, name: str, fn: Callable[[], Any]) -> StageResult:
        """Run one stage call, recording any failure but NotFittedError."""
        start = time.monotonic()
        try:
            value = fn()
        except NotFittedError:
            raise
        except Exception as exc:
            return StageResult(
                name=name,
                ok=False,
                error_type=type(exc).__name__,
                error_message=str(exc),
                elapsed_s=time.monotonic() - start,
            )
        return StageResult(
            name=name, ok=True, value=value, elapsed_s=time.monotonic() - start
        )

    # ------------------------------------------------------------------
    # Hardened pipeline stages
    # ------------------------------------------------------------------
    def fit(self, train: EventDataset) -> StageResult:
        """Train the pipeline on the recordings that pass validation.

        Args:
            train: training recordings.  Recordings that fail validation
                are excluded from training (and training proceeds on the
                survivors) rather than poisoning the whole fit.
        """
        clean_indices = [
            i
            for i, sample in enumerate(train)
            if not validate_sample(sample, train.resolution)
        ]
        if not clean_indices:
            return StageResult(
                name="fit",
                ok=False,
                error_type="ValueError",
                error_message="no valid training recordings after quarantine",
            )
        if len(clean_indices) < len(train):
            train = train.subset(clean_indices)

        return self._run_stage("fit", lambda: self.pipeline.fit(train))

    def predict_sample(
        self,
        sample: EventSample,
        index: int,
        expected_resolution,
        fault: FaultModel | None = None,
        seed: int = 0,
    ) -> RecordingReport:
        """Validate, optionally corrupt, revalidate, and classify one recording.

        Validation runs twice: once on the recording as stored (so
        pre-existing dataset corruption is quarantined no matter what
        faults are injected afterwards — some faults re-sort timestamps
        and would otherwise mask it) and once on the faulted stream (so
        fault-induced structural damage is quarantined too).
        """
        record = self._classify_sample(
            sample, index, expected_resolution, fault=fault, seed=seed
        )
        obs = self.instrumentation
        if obs is not None:
            obs.registry.counter(
                "runner_records_total",
                labels={"outcome": record.outcome.value},
                help="recordings by terminal outcome",
            ).inc()
        return record

    def _classify_sample(
        self,
        sample: EventSample,
        index: int,
        expected_resolution,
        fault: FaultModel | None = None,
        seed: int = 0,
    ) -> RecordingReport:
        start = time.monotonic()
        problems = validate_sample(sample, expected_resolution)
        if problems:
            return RecordingReport(
                index=index,
                label=sample.label,
                outcome=RecordingOutcome.QUARANTINED,
                problems=problems,
                elapsed_s=time.monotonic() - start,
            )
        stream: EventStream = sample.stream
        if fault is not None:
            try:
                stream = apply_fault(fault, stream, seed)
            except Exception as exc:
                return RecordingReport(
                    index=index,
                    label=sample.label,
                    outcome=RecordingOutcome.FAILED,
                    error_type=type(exc).__name__,
                    error_message=f"fault injection failed: {exc}",
                    elapsed_s=time.monotonic() - start,
                )
            problems = validate_sample(
                EventSample(stream, sample.label), expected_resolution
            )
            if problems:
                return RecordingReport(
                    index=index,
                    label=sample.label,
                    outcome=RecordingOutcome.QUARANTINED,
                    problems=[f"after fault injection: {p}" for p in problems],
                    elapsed_s=time.monotonic() - start,
                )
        stage = self._run_stage("predict", lambda: self.pipeline.predict(stream))
        if stage.ok:
            return RecordingReport(
                index=index,
                label=sample.label,
                outcome=RecordingOutcome.OK,
                predicted=int(stage.value),
                elapsed_s=time.monotonic() - start,
            )
        return RecordingReport(
            index=index,
            label=sample.label,
            outcome=RecordingOutcome.FAILED,
            error_type=stage.error_type,
            error_message=stage.error_message,
            elapsed_s=time.monotonic() - start,
        )

    def evaluate(
        self,
        test: EventDataset,
        fault: FaultModel | None = None,
        seed: int = 0,
    ) -> RunReport:
        """Classify every recording, quarantining instead of crashing.

        Args:
            test: recordings to classify.
            fault: optional fault model injected into every recording
                (each gets an independent generator derived from ``seed``
                and its index, so runs are deterministic).
            seed: fault-injection base seed.

        Returns:
            A :class:`RunReport` with one record per recording.
        """
        self.pipeline._require_fitted()
        report = RunReport(
            pipeline=self.pipeline.name,
            fault=repr(fault) if fault is not None else "",
            seed=seed,
        )
        expected = test.resolution
        for index, sample in enumerate(test):
            record_seed = int(
                np.random.SeedSequence([seed, index]).generate_state(1)[0]
            )
            report.records.append(
                self.predict_sample(
                    sample, index, expected, fault=fault, seed=record_seed
                )
            )
        return report

    def measure(
        self, test: EventDataset, temporal_labels: tuple[int, ...] = ()
    ) -> StageResult:
        """Hardened ``pipeline.measure`` (one call, never raises).

        Validation-failing recordings are excluded before measuring, so
        a corrupted test set degrades the measurement instead of killing
        it; the stage fails (recorded, not raised) only when nothing
        valid remains or the pipeline itself errors.
        """
        self.pipeline._require_fitted()
        clean_indices = [
            i
            for i, sample in enumerate(test)
            if not validate_sample(sample, test.resolution)
        ]
        if not clean_indices:
            return StageResult(
                name="measure",
                ok=False,
                error_type="ValueError",
                error_message="no valid test recordings after quarantine",
            )
        if len(clean_indices) < len(test):
            test = test.subset(clean_indices)
        return self._run_stage(
            "measure", lambda: self.pipeline.measure(test, temporal_labels)
        )
