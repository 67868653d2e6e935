"""Per-stage circuit breakers for the streaming executor.

A stage that keeps failing (a crashed model, a poisoned preprocessing
step, a NaN-emitting head) must be isolated quickly: every failed call
burns service time the queue cannot spare under overload.  The classic
remedy is the circuit-breaker state machine:

* **closed** — calls flow normally; consecutive failures are counted,
  and reaching the threshold *trips* the breaker;
* **open** — calls are refused outright (the executor routes straight to
  the fallback chain) for a cooldown measured in refused calls;
* **half-open** — after the cooldown, a seeded coin decides which calls
  may *probe* the stage; enough consecutive probe successes re-close the
  breaker, any probe failure re-opens it.

Both thrown exceptions and structurally bad outputs (NaN / None — see
:func:`is_bad_output`) count as failures, so a model that "succeeds"
with garbage trips the breaker just like one that raises.

Everything is deterministic: probe decisions come from a generator
seeded per breaker, and every state change is recorded as a
:class:`BreakerTransition` for the
:class:`~repro.streaming.report.StreamReport`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

__all__ = [
    "BreakerState",
    "BreakerPolicy",
    "BreakerTransition",
    "CircuitBreaker",
    "is_bad_output",
]


class BreakerState(str, Enum):
    """The three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/recovery parameters of one circuit breaker.

    Attributes:
        failure_threshold: consecutive failures that trip a closed
            breaker open.
        cooldown_calls: refused calls an open breaker waits before
            moving to half-open.
        probe_probability: chance that a call arriving at a half-open
            breaker is admitted as a probe (seeded, so deterministic).
        success_threshold: consecutive probe successes that re-close a
            half-open breaker.
    """

    failure_threshold: int = 3
    cooldown_calls: int = 4
    probe_probability: float = 0.5
    success_threshold: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_calls < 1:
            raise ValueError("cooldown_calls must be >= 1")
        if not 0.0 < self.probe_probability <= 1.0:
            raise ValueError("probe_probability must be in (0, 1]")
        if self.success_threshold < 1:
            raise ValueError("success_threshold must be >= 1")


@dataclass(frozen=True)
class BreakerTransition:
    """One state change of one breaker.

    Attributes:
        stage: breaker/stage name.
        from_state: state before the transition.
        to_state: state after the transition.
        at_window: index of the window whose call caused it.
        reason: human-readable trigger description.
    """

    stage: str
    from_state: BreakerState
    to_state: BreakerState
    at_window: int
    reason: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "stage": self.stage,
            "from": self.from_state.value,
            "to": self.to_state.value,
            "at_window": self.at_window,
            "reason": self.reason,
        }


def is_bad_output(value: Any) -> bool:
    """Whether a stage output should count as a NaN-trip failure.

    ``None`` and non-finite floats are bad; arrays are bad when any
    element is non-finite.  Integers (the usual class prediction) and
    other objects pass.
    """
    if value is None:
        return True
    if isinstance(value, (float, np.floating)):
        return not np.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and not bool(np.all(np.isfinite(value)))
    return False


@dataclass
class CircuitBreaker:
    """Closed/open/half-open breaker guarding one executor stage.

    Attributes:
        stage: name of the guarded stage.
        policy: trip/recovery parameters.
        seed: seed of the half-open probe generator.
        state: current :class:`BreakerState`.
        transitions: every state change, in order — the breaker's only
            record; the executor counts it into the run's registry.
    """

    stage: str
    policy: BreakerPolicy = field(default_factory=BreakerPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        self.state = BreakerState.CLOSED
        self.transitions: list[BreakerTransition] = []
        self._consecutive_failures = 0
        self._cooldown_remaining = 0
        self._probe_successes = 0
        # zlib.crc32 is stable across processes (str.__hash__ is salted).
        self._rng = np.random.default_rng(
            np.random.SeedSequence(
                [zlib.crc32(self.stage.encode("utf-8")), self.seed]
            )
        )

    # ------------------------------------------------------------------
    def _move(self, to: BreakerState, at_window: int, reason: str) -> None:
        transition = BreakerTransition(self.stage, self.state, to, at_window, reason)
        self.transitions.append(transition)
        self.state = to

    def allow(self, at_window: int) -> bool:
        """Whether the stage may be called for this window.

        Open breakers refuse and count down their cooldown; the call
        that exhausts it moves the breaker to half-open and immediately
        takes part in the probe lottery.  Half-open breakers admit a
        seeded-random subset of calls as probes.
        """
        if self.state is BreakerState.OPEN:
            self._cooldown_remaining -= 1
            if self._cooldown_remaining > 0:
                return False
            self._probe_successes = 0
            self._move(
                BreakerState.HALF_OPEN, at_window, "cooldown elapsed"
            )
        if self.state is BreakerState.HALF_OPEN:
            return float(self._rng.random()) < self.policy.probe_probability
        return True

    def record_success(self, at_window: int) -> None:
        """Report a successful (finite-output) stage call."""
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.policy.success_threshold:
                self._move(
                    BreakerState.CLOSED,
                    at_window,
                    f"{self._probe_successes} probe successes",
                )

    def record_failure(
        self, at_window: int, *, nan_output: bool = False, reason: str = ""
    ) -> None:
        """Report a failed stage call (exception or NaN output)."""
        self._consecutive_failures += 1
        detail = reason or ("non-finite output" if nan_output else "stage error")
        if self.state is BreakerState.HALF_OPEN:
            self._cooldown_remaining = self.policy.cooldown_calls
            self._probe_successes = 0
            self._move(BreakerState.OPEN, at_window, f"probe failed: {detail}")
        elif (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.policy.failure_threshold
        ):
            self._cooldown_remaining = self.policy.cooldown_calls
            self._move(
                BreakerState.OPEN,
                at_window,
                f"{self._consecutive_failures} consecutive failures: {detail}",
            )

    # ------------------------------------------------------------------
    @property
    def recovered(self) -> bool:
        """Whether every open episode later re-closed through probes."""
        if not self.transitions:
            return True
        return self.state is BreakerState.CLOSED
