"""Degradation-aware pipeline runner: validate, quarantine, retry, resume.

The paradigm pipelines (:mod:`repro.core.pipeline`) assume clean inputs
and abort on the first malformed recording — acceptable in a unit test,
fatal in a sweep that trains three paradigms across many fault
severities.  :class:`HardenedRunner` wraps ``fit`` / ``predict`` /
``measure`` with the reliability policies a long-running sweep needs:

* **per-recording validation + quarantine** — every recording is checked
  against the :data:`~repro.events.stream.EVENT_DTYPE` invariants before
  it reaches the model; corrupted ones are quarantined with a reason
  instead of crashing the run;
* **retry** — transient stage failures are retried immediately, a
  configurable number of times;
* **wall-clock stage timeouts** — a hung stage is abandoned (the worker
  thread is left to finish in the background) and recorded as a timeout;
* **skip-and-record semantics** — every recording produces a
  :class:`RecordingReport` inside a structured :class:`RunReport`, so a
  sweep always completes with an account of what happened;
* **checkpointing** — fitted model state is persisted through
  :mod:`repro.nn.serialization`, so an interrupted sweep resumes without
  retraining.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..core.pipeline import NotFittedError, ParadigmPipeline
from ..datasets.base import EventDataset, EventSample
from ..events.stream import EventStream
from ..nn.layers import Module
from ..nn.serialization import load_state, save_state
from ..observability import Instrumentation
from .faults import FaultModel, apply_fault

__all__ = [
    "RecordingOutcome",
    "RecordingReport",
    "RunReport",
    "StageGuard",
    "StageResult",
    "HardenedRunner",
    "validate_sample",
]


class RecordingOutcome(str, Enum):
    """What happened to one recording inside a hardened run."""

    OK = "ok"
    QUARANTINED = "quarantined"
    FAILED = "failed"
    TIMEOUT = "timeout"


@dataclass
class RecordingReport:
    """Outcome of one recording.

    Attributes:
        index: position of the recording in the dataset.
        label: ground-truth class.
        outcome: what happened.
        predicted: model output (None unless outcome is OK).
        problems: validation problems that caused a quarantine.
        error_type: exception class name for FAILED/TIMEOUT records.
        error_message: exception message for FAILED/TIMEOUT records.
        attempts: prediction attempts made (0 for quarantined records).
        elapsed_s: wall-clock time spent on the recording.
    """

    index: int
    label: int
    outcome: RecordingOutcome
    predicted: int | None = None
    problems: list[str] = field(default_factory=list)
    error_type: str = ""
    error_message: str = ""
    attempts: int = 0
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
            "attempts": self.attempts,
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
        resumed_from_checkpoint: whether fit was restored rather than
            trained in this process.
    """

    pipeline: str
    fault: str = ""
    seed: int = 0
    records: list[RecordingReport] = field(default_factory=list)
    resumed_from_checkpoint: bool = False

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
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
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
        attempts: attempts made.
        error_type: exception class name when not ok.
        error_message: exception message when not ok.
        elapsed_s: wall-clock time spent.
    """

    name: str
    ok: bool
    value: Any = None
    attempts: int = 0
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


class _StageTimeout(Exception):
    """Internal marker: a stage exceeded its wall-clock budget."""


class StageGuard:
    """Retry + wall-clock-timeout wrapper for one stage call.

    The guarded-execution core of :class:`HardenedRunner`: run a
    callable, retrying transient failures back to back, abandoning calls
    that exceed a wall-clock budget, and always returning a structured
    :class:`StageResult` instead of raising — except for
    :class:`NotFittedError`, which is a configuration error no retry can
    fix and is re-raised so callers fail fast.

    Args:
        max_retries: extra attempts after a failed call (0 = fail
            immediately on first error).
        timeout_s: wall-clock budget per call (None = no timeout).  A
            timed-out call keeps running on its daemon worker thread but
            its result is discarded — skip-and-record, never hang.
        instrumentation: optional observability sink; every guarded
            call is then traced as a ``guard:{stage}`` span, counted
            into ``guard_calls_total`` / ``guard_attempts_total`` /
            ``guard_failures_total`` / ``guard_timeouts_total`` and
            surfaced through the ``on_stage_start/end`` hooks.
        clock: the monotonic time source for ``elapsed_s`` measurements
            (default ``time.monotonic``).  The sharded executor injects
            a deterministic virtual clock here so reports are
            byte-identical across backends; timeout enforcement always
            uses real wall-clock time regardless.
    """

    def __init__(
        self,
        *,
        max_retries: int = 1,
        timeout_s: float | None = None,
        instrumentation: Instrumentation | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.instrumentation = instrumentation
        self.clock = clock if clock is not None else time.monotonic

    def _call_with_timeout(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn``, enforcing the wall-clock timeout.

        The timed call runs on a daemon thread; on timeout the thread is
        abandoned (it cannot be killed) and its eventual result
        discarded, so the caller moves on instead of hanging.
        """
        if self.timeout_s is None:
            return fn()
        result: list[Any] = []
        error: list[BaseException] = []

        def target() -> None:
            try:
                result.append(fn())
            except BaseException as exc:  # propagated to the caller below
                error.append(exc)

        worker = threading.Thread(target=target, daemon=True, name="repro-stage")
        worker.start()
        worker.join(self.timeout_s)
        if worker.is_alive():
            raise _StageTimeout(
                f"stage exceeded {self.timeout_s}s wall-clock budget"
            )
        if error:
            raise error[0]
        return result[0]

    def run(self, name: str, fn: Callable[[], Any]) -> StageResult:
        """Run a stage with retry + timeout, never raising.

        :class:`NotFittedError` is not retried — an unfitted pipeline is
        a configuration error no retry can fix — and is re-raised so the
        caller fails fast instead of burning the retry budget.
        """
        obs = self.instrumentation
        if obs is None:
            return self._execute(name, fn)
        labels = {"stage": name}
        reg = obs.registry
        reg.counter(
            "guard_calls_total", labels=labels, help="guarded stage calls"
        ).inc()
        obs.stage_start(name)
        result: StageResult | None = None
        try:
            with obs.tracer.span(f"guard:{name}"):
                result = self._execute(name, fn)
            return result
        except Exception:
            # NotFittedError (and anything else escaping the guard) is a
            # failed call even though no StageResult exists for it.
            reg.counter(
                "guard_failures_total",
                labels=labels,
                help="guarded stage calls that did not complete",
            ).inc()
            raise
        finally:
            if result is not None:
                reg.counter(
                    "guard_attempts_total",
                    labels=labels,
                    help="attempts across guarded stage calls",
                ).inc(result.attempts)
                if not result.ok:
                    reg.counter(
                        "guard_failures_total",
                        labels=labels,
                        help="guarded stage calls that did not complete",
                    ).inc()
                    if result.error_type == "TimeoutError":
                        reg.counter(
                            "guard_timeouts_total",
                            labels=labels,
                            help="guarded stage calls abandoned on timeout",
                        ).inc()
            obs.stage_end(name, ok=result is not None and result.ok)

    def _execute(self, name: str, fn: Callable[[], Any]) -> StageResult:
        """The uninstrumented retry/timeout loop."""
        attempts = 0
        start = self.clock()
        last_exc: BaseException | None = None
        while attempts <= self.max_retries:
            attempts += 1
            try:
                value = self._call_with_timeout(fn)
                return StageResult(
                    name=name,
                    ok=True,
                    value=value,
                    attempts=attempts,
                    elapsed_s=self.clock() - start,
                )
            except NotFittedError:
                raise
            except _StageTimeout as exc:
                # A hung stage will hang again: do not retry timeouts.
                return StageResult(
                    name=name,
                    ok=False,
                    attempts=attempts,
                    error_type="TimeoutError",
                    error_message=str(exc),
                    elapsed_s=self.clock() - start,
                )
            except Exception as exc:
                last_exc = exc
        return StageResult(
            name=name,
            ok=False,
            attempts=attempts,
            error_type=type(last_exc).__name__,
            error_message=str(last_exc),
            elapsed_s=self.clock() - start,
        )


class HardenedRunner:
    """Fault-tolerant wrapper around one :class:`ParadigmPipeline`.

    Args:
        pipeline: the pipeline to protect.
        max_retries: extra attempts after a failed stage call (0 = fail
            immediately on first error).
        stage_timeout_s: wall-clock budget per stage call (None = no
            timeout).  A timed-out stage keeps running on its worker
            thread but its result is discarded and the stage recorded as
            TIMEOUT — skip-and-record, never hang the sweep.
        checkpoint_path: where to persist fitted model state.  When the
            file exists, :meth:`fit` restores it (rebuilding the
            architecture with a zero-epoch fit) instead of retraining,
            which is what lets an interrupted sweep resume.
        instrumentation: optional observability sink.  Stage calls are
            guarded through an instrumented :class:`StageGuard` (spans +
            ``guard_*`` counters) and every classified recording is
            counted into ``runner_records_total{outcome=...}`` with the
            ``on_window`` hook fired per terminal outcome.
        clock: monotonic time source for ``elapsed_s`` measurements
            (default ``time.monotonic``); see :class:`StageGuard`.
    """

    def __init__(
        self,
        pipeline: ParadigmPipeline,
        *,
        max_retries: int = 1,
        stage_timeout_s: float | None = None,
        checkpoint_path: str | Path | None = None,
        instrumentation: Instrumentation | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._guard = StageGuard(
            max_retries=max_retries,
            timeout_s=stage_timeout_s,
            instrumentation=instrumentation,
            clock=clock,
        )
        self.pipeline = pipeline
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.resumed_from_checkpoint = False
        self.instrumentation = instrumentation
        self.clock = self._guard.clock

    # ------------------------------------------------------------------
    # Guarded execution primitives (delegated to the shared StageGuard)
    # ------------------------------------------------------------------
    @property
    def max_retries(self) -> int:
        """Per-stage retry budget."""
        return self._guard.max_retries

    @property
    def stage_timeout_s(self) -> float | None:
        """Wall-clock budget per stage call."""
        return self._guard.timeout_s

    def _run_stage(self, name: str, fn: Callable[[], Any]) -> StageResult:
        """Run a stage through the shared :class:`StageGuard`."""
        return self._guard.run(name, fn)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self) -> bool:
        """Persist the fitted model (no-op without a path or a model)."""
        if self.checkpoint_path is None:
            return False
        model = getattr(self.pipeline, "model", None)
        if not isinstance(model, Module):
            return False
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        save_state(model, self.checkpoint_path)
        return True

    def _try_resume(self, train: EventDataset) -> bool:
        """Restore fitted state from the checkpoint, if compatible.

        The pipelines build their architecture inside ``fit`` (it depends
        on the dataset), so resume runs a zero-epoch fit to construct the
        untrained model, then loads the checkpointed parameters into it.
        Any incompatibility (architecture drift, corrupt file) falls back
        to a full fit.
        """
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return False
        epochs = getattr(self.pipeline, "epochs", None)
        if epochs is None:
            return False
        try:
            self.pipeline.epochs = 0
            self.pipeline.fit(train)
            load_state(self.pipeline.model, self.checkpoint_path)
            return True
        except Exception:
            self.pipeline.model = None
            return False
        finally:
            self.pipeline.epochs = epochs

    # ------------------------------------------------------------------
    # Hardened pipeline stages
    # ------------------------------------------------------------------
    def fit(self, train: EventDataset, resume: bool = True) -> StageResult:
        """Train (or restore) the pipeline, then checkpoint it.

        Args:
            train: training recordings.  Recordings that fail validation
                are excluded from training (and training proceeds on the
                survivors) rather than poisoning the whole fit.
            resume: restore from :attr:`checkpoint_path` when possible.
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

        if resume and self._try_resume(train):
            self.resumed_from_checkpoint = True
            return StageResult(name="fit", ok=True, attempts=0)
        self.resumed_from_checkpoint = False
        result = self._run_stage("fit", lambda: self.pipeline.fit(train))
        if result.ok:
            self.save_checkpoint()
        return result

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
            obs.window(index, record.outcome.value)
        return record

    def _classify_sample(
        self,
        sample: EventSample,
        index: int,
        expected_resolution,
        fault: FaultModel | None = None,
        seed: int = 0,
    ) -> RecordingReport:
        start = self.clock()
        problems = validate_sample(sample, expected_resolution)
        if problems:
            return RecordingReport(
                index=index,
                label=sample.label,
                outcome=RecordingOutcome.QUARANTINED,
                problems=problems,
                elapsed_s=self.clock() - start,
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
                    elapsed_s=self.clock() - start,
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
                    elapsed_s=self.clock() - start,
                )
        stage = self._run_stage("predict", lambda: self.pipeline.predict(stream))
        if stage.ok:
            return RecordingReport(
                index=index,
                label=sample.label,
                outcome=RecordingOutcome.OK,
                predicted=int(stage.value),
                attempts=stage.attempts,
                elapsed_s=self.clock() - start,
            )
        outcome = (
            RecordingOutcome.TIMEOUT
            if stage.error_type == "TimeoutError"
            else RecordingOutcome.FAILED
        )
        return RecordingReport(
            index=index,
            label=sample.label,
            outcome=outcome,
            error_type=stage.error_type,
            error_message=stage.error_message,
            attempts=stage.attempts,
            elapsed_s=self.clock() - start,
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
            resumed_from_checkpoint=self.resumed_from_checkpoint,
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
        """Hardened ``pipeline.measure`` (retry/timeout, never raises).

        Validation-failing recordings are excluded before measuring, so
        a corrupted test set degrades the measurement instead of killing
        it; the stage fails (recorded, not raised) only when nothing
        valid remains or the pipeline itself errors repeatedly.
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
