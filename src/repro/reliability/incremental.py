"""Incremental-serving robustness: retained accuracy under session faults.

The classic robustness sweep (:mod:`repro.reliability.sweep`) corrupts
the *input* — the event stream — and asks how much accuracy a paradigm
retains.  This sweep corrupts the *serving state*: the live per-event
session of the GNN fast path is faulted mid-window (state corruption,
NaN feature injection, clock skew — the :class:`SessionFault` models of
:mod:`repro.reliability.faults`) and the session's own defences have to
contain the damage: the divergence audit detects silent drift, the
checkpoint/restore path rolls the session back to its last good
snapshot, and a windowed recompute serves as the final fallback.

Only paradigms with a per-event serving path can be measured, so the
resulting Table-I row (attached via
:func:`repro.core.comparison.attach_session_robustness`) is GNN-only by
construction; SNN and CNN stay ``nan`` and render as ``?``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.comparison import PARADIGMS, ComparisonResult, attach_session_robustness
from ..core.incremental import AuditPolicy, SessionDivergenceError
from ..core.pipeline import GNNPipeline
from ..datasets.base import EventDataset
from ..events.stream import EventStream
from .faults import (
    ClockSkew,
    NaNFeatureInjection,
    SessionFault,
    SessionStateCorruption,
    apply_session_fault,
)
from .runner import HardenedRunner

__all__ = [
    "default_session_fault_profile",
    "SessionFaultPoint",
    "IncrementalRobustnessResult",
    "run_incremental_robustness",
    "session_robustness_scores",
    "attach_to_comparison",
]


def default_session_fault_profile(severity: float) -> tuple[SessionFault, ...]:
    """The standard severity → session-fault mapping of the sweep.

    Severity 0 is the clean condition (no faults; the sweep's
    self-check — retained accuracy is 1 by construction).  Rising
    severity widens the corrupted fraction, grows the noise magnitude
    and lengthens the clock skew.  The three fault types are returned
    together; the sweep rotates them across recordings so every point
    exercises the silent-drift path (corruption, NaN) *and* the crash
    path (skew).
    """
    if severity <= 0:
        return ()
    frac = min(1.0, 0.2 + 0.6 * severity)
    return (
        SessionStateCorruption(fraction=frac, magnitude=10.0 * severity),
        NaNFeatureInjection(fraction=frac),
        ClockSkew(skew_us=int(1_000_000 * severity)),
    )


@dataclass
class SessionFaultPoint:
    """One severity evaluation of the incremental-serving path.

    Attributes:
        severity: session-fault intensity of this point.
        accuracy: fraction of served windows predicted correctly.
        windows: windows served (the accuracy denominator).
        faults_injected: mid-window fault injections performed.
        audits_tripped: divergence audits that detected drift.
        crashes: window attempts aborted by an exception (e.g. the
            out-of-order rejection a clock skew provokes).
        restores: rollbacks to a last-good session checkpoint.
        fallbacks: windows served by windowed ``predict`` after the
            per-event retry also failed.
    """

    severity: float
    accuracy: float
    windows: int = 0
    faults_injected: int = 0
    audits_tripped: int = 0
    crashes: int = 0
    restores: int = 0
    fallbacks: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "severity": self.severity,
            "accuracy": self.accuracy,
            "windows": self.windows,
            "faults_injected": self.faults_injected,
            "audits_tripped": self.audits_tripped,
            "crashes": self.crashes,
            "restores": self.restores,
            "fallbacks": self.fallbacks,
        }


@dataclass
class IncrementalRobustnessResult:
    """Everything produced by one incremental-robustness sweep.

    Attributes:
        severities: the swept fault intensities, ascending.
        points: one :class:`SessionFaultPoint` per severity (GNN only —
            no other paradigm has a per-event serving path).
        seed: master seed of the sweep.
        window_us: serving-window length used by the per-window loop.
    """

    severities: tuple[float, ...]
    points: list[SessionFaultPoint] = field(default_factory=list)
    seed: int = 0
    window_us: int = 10_000

    def accuracies(self) -> list[float]:
        """The degradation curve."""
        return [p.accuracy for p in self.points]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "severities": list(self.severities),
            "seed": self.seed,
            "window_us": self.window_us,
            "points": [p.to_dict() for p in self.points],
        }


def session_robustness_scores(result: IncrementalRobustnessResult) -> dict[str, float]:
    """Reduce the degradation curve to one retained-accuracy score.

    Mirrors :func:`repro.reliability.sweep.robustness_scores`: the mean,
    over non-zero severities, of accuracy retained relative to the
    clean point, clipped to [0, 1].  Paradigms without a per-event
    serving path score nan (they rate ``?`` in the table).
    """
    scores = {name: float("nan") for name in PARADIGMS}
    points = result.points
    if not points:
        return scores
    clean = points[0].accuracy
    if not np.isfinite(clean) or clean <= 0:
        return scores
    stressed = [p.accuracy for p in points[1:]] or [clean]
    retained = [
        min(1.0, max(0.0, acc / clean)) if np.isfinite(acc) else 0.0
        for acc in stressed
    ]
    scores["GNN"] = float(np.mean(retained))
    return scores


def attach_to_comparison(
    comparison: ComparisonResult, result: IncrementalRobustnessResult
) -> ComparisonResult:
    """Fold a measured sweep into a Table-I comparison (extra row)."""
    return attach_session_robustness(comparison, session_robustness_scores(result))


def _windows_of(stream: EventStream, window_us: int) -> list[EventStream]:
    """Split one recording into fixed serving windows (at least one)."""
    if len(stream) == 0:
        return [stream]
    t0 = int(stream.t[0])
    span = int(stream.t[-1]) - t0 + 1
    count = max(1, -(-span // window_us))
    return [
        stream.time_window(t0 + k * window_us, t0 + (k + 1) * window_us)
        for k in range(count)
    ]


def _serve_recording(
    pipeline: GNNPipeline,
    session: Any,
    windows: list[EventStream],
    inject: SessionFault | None,
    fault_seed: int,
    point: SessionFaultPoint,
) -> list[int]:
    """Serve one recording window by window with mid-window injection.

    The self-healing loop under measurement: every window starts from a
    ``reset`` (which runs the previous window's divergence audit — a
    trip triggers restore-from-last-good), takes a start-of-window
    checkpoint, and replays without injection after a crash.  A window
    whose retry also fails is served by windowed ``predict``.
    """
    predictions: list[int] = []
    last_good: dict | None = None
    for w, win in enumerate(windows):
        fault_here = inject if w == len(windows) // 2 else None
        mid = len(win) // 2
        predicted: int | None = None
        for attempt in range(2):
            good: dict | None = None
            try:
                try:
                    session.reset()
                except SessionDivergenceError:
                    point.audits_tripped += 1
                    if last_good is not None:
                        session.restore(last_good)
                        point.restores += 1
                    session.reset()  # the tripped window already rotated out
                good = session.snapshot()
                for i, (t, x, y, p) in enumerate(zip(win.t, win.x, win.y, win.p)):
                    if attempt == 0 and fault_here is not None and i == mid:
                        apply_session_fault(fault_here, session, fault_seed)
                        point.faults_injected += 1
                    session.process_event(int(x), int(y), int(t), int(p))
                predicted = int(session.predict())
                last_good = good
                break
            except Exception:
                point.crashes += 1
                if good is not None:
                    session.restore(good)
                    point.restores += 1
        if predicted is None:
            predicted = int(pipeline.predict(win))
            point.fallbacks += 1
        predictions.append(predicted)
    # Close the final window so a fault in it is still audited.
    try:
        session.reset()
    except SessionDivergenceError:
        point.audits_tripped += 1
    return predictions


def run_incremental_robustness(
    train: EventDataset,
    test: EventDataset,
    severities: Sequence[float] = (0.0, 0.5, 1.0),
    pipeline: GNNPipeline | None = None,
    seed: int = 0,
    window_us: int = 10_000,
    audit: AuditPolicy | None = None,
    max_live_nodes: int | None = None,
    fault_profile=default_session_fault_profile,
) -> IncrementalRobustnessResult:
    """Measure retained accuracy of per-event serving under session faults.

    Fits one GNN pipeline (through the hardened runner), then for every
    severity serves each test recording window by window through an
    auditing incremental session while injecting the severity's session
    faults mid-window — rotating corruption / NaN injection / clock
    skew across recordings.  Recovery is the session's own machinery:
    divergence audits, last-good checkpoints and windowed recompute.

    Args:
        train, test: the dataset split.
        severities: ascending session-fault intensities; include 0 for
            the clean baseline the retained score normalises against.
        pipeline: an optional pre-built (possibly fitted) GNN pipeline.
        seed: master seed — fault placement is a pure function of
            (seed, severity level, recording index).
        window_us: serving-window length of the per-window loop.
        audit: divergence-audit policy; defaults to auditing every
            window with a small tolerance, so silent corruption is
            caught at the next window boundary.  Bounded sessions get a
            loose default tolerance instead: eviction makes them drift
            from the full-window shadow *by design*, and a tolerance
            below the drift bound would trip on every healthy window —
            pass an explicit policy with a bound measured against the
            exact engine on the served stream to tighten it (the frozen
            bounded records in ``BENCH_async.json`` hold one such
            measurement).
        max_live_nodes: serve in bounded-state mode with this budget
            (None = exact unbounded mode).
        fault_profile: severity → session-fault tuple mapping.

    Returns:
        The per-severity curve with recovery-path counters.
    """
    pipeline = pipeline or GNNPipeline(seed=seed)
    if getattr(pipeline, "model", None) is None:
        runner = HardenedRunner(pipeline)
        fit_result = runner.fit(train)
        if not fit_result.ok:
            raise RuntimeError(
                f"GNN pipeline failed to fit after {fit_result.attempts} "
                f"attempt(s): {fit_result.error_type}: {fit_result.error_message}"
            )
    if audit is None:
        tolerance = 1e-6 if max_live_nodes is None else 100.0
        audit = AuditPolicy(every=1, tolerance=tolerance, seed=seed)
    result = IncrementalRobustnessResult(
        severities=tuple(float(s) for s in severities),
        seed=seed,
        window_us=int(window_us),
    )
    for level, severity in enumerate(result.severities):
        faults = fault_profile(severity)
        point = SessionFaultPoint(severity=severity, accuracy=float("nan"))
        correct = 0
        for r, sample in enumerate(test):
            inject = faults[r % len(faults)] if faults else None
            fault_seed = int(
                np.random.SeedSequence([seed, level, r]).generate_state(1)[0]
            )
            session = pipeline.open_session(
                audit=audit, max_live_nodes=max_live_nodes
            )
            windows = _windows_of(sample.stream, result.window_us)
            predictions = _serve_recording(
                pipeline, session, windows, inject, fault_seed, point
            )
            point.windows += len(predictions)
            correct += sum(1 for p in predictions if p == sample.label)
        point.accuracy = correct / point.windows if point.windows else float("nan")
        result.points.append(point)
    return result
