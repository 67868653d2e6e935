"""Fault injection and graceful degradation.

The reliability subsystem turns the paper's qualitative noise/fault
robustness assessment into a measurement, and hardens the experiment
infrastructure so that measurement can run unattended:

* :mod:`~repro.reliability.faults` — composable, seeded corruption
  models spanning the sensor array (dead/stuck/hot pixels), the link
  (uniform and bursty drops, AER bit flips) and the clock (jitter,
  out-of-order delivery);
* :mod:`~repro.reliability.runner` — a hardened wrapper around the
  paradigm pipelines with per-recording validation + quarantine and
  skip-and-record stage failures;
* :mod:`~repro.reliability.sweep` — the in-process robustness sweep
  producing accuracy-degradation curves and the retained-accuracy
  scores that regenerate the Table-I robustness cell.
"""

from .faults import (
    AERBitFlips,
    BurstyDrop,
    DeadPixels,
    FaultChain,
    FaultModel,
    HotPixels,
    OutOfOrderCorruption,
    PolarityFlip,
    StuckPixels,
    TimestampJitter,
    UniformDrop,
    apply_fault,
)
from .runner import (
    HardenedRunner,
    RecordingOutcome,
    RecordingReport,
    RunReport,
    StageResult,
    validate_sample,
)
from .sweep import (
    RobustnessSweepResult,
    SweepPoint,
    default_fault_profile,
    rate_sweep,
    robustness_scores,
    run_paradigm_curve,
    run_robustness_sweep,
)

__all__ = [
    "FaultModel",
    "FaultChain",
    "DeadPixels",
    "StuckPixels",
    "HotPixels",
    "UniformDrop",
    "BurstyDrop",
    "TimestampJitter",
    "OutOfOrderCorruption",
    "PolarityFlip",
    "AERBitFlips",
    "apply_fault",
    "HardenedRunner",
    "RecordingOutcome",
    "RecordingReport",
    "RunReport",
    "StageResult",
    "validate_sample",
    "default_fault_profile",
    "SweepPoint",
    "RobustnessSweepResult",
    "run_paradigm_curve",
    "run_robustness_sweep",
    "robustness_scores",
    "rate_sweep",
]
