"""Unit and property tests of the streaming building blocks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventStream, Resolution
from repro.streaming import (
    BoundedWindowQueue,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    ShedController,
    ShedLedger,
    ShedPolicy,
    ShedTier,
    StreamReport,
    WindowTicket,
    is_bad_output,
    spatial_shed,
    subsample_events,
)


def make_stream(n, width=32, height=32, max_dt=500, seed=0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(0, max_dt, n))
    return EventStream.from_arrays(
        t,
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
        Resolution(width, height),
    )


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        b = CircuitBreaker("s", BreakerPolicy(failure_threshold=3))
        for w in range(2):
            b.record_failure(w)
        assert b.state is BreakerState.CLOSED
        b.record_failure(2)
        assert b.state is BreakerState.OPEN
        assert [t.to_state for t in b.transitions] == [BreakerState.OPEN]

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("s", BreakerPolicy(failure_threshold=2))
        b.record_failure(0)
        b.record_success(1)
        b.record_failure(2)
        assert b.state is BreakerState.CLOSED

    def test_cooldown_then_half_open_then_close(self):
        policy = BreakerPolicy(
            failure_threshold=1,
            cooldown_calls=3,
            probe_probability=1.0,
            success_threshold=2,
        )
        b = CircuitBreaker("s", policy)
        b.record_failure(0)
        assert b.state is BreakerState.OPEN
        # Cooldown: the first two calls are refused outright.
        assert not b.allow(1)
        assert not b.allow(2)
        # The third exhausts the cooldown and is admitted as a probe.
        assert b.allow(3)
        assert b.state is BreakerState.HALF_OPEN
        b.record_success(3)
        assert b.state is BreakerState.HALF_OPEN
        assert b.allow(4)
        b.record_success(4)
        assert b.state is BreakerState.CLOSED
        assert b.recovered

    def test_probe_failure_reopens(self):
        policy = BreakerPolicy(
            failure_threshold=1, cooldown_calls=1, probe_probability=1.0
        )
        b = CircuitBreaker("s", policy)
        b.record_failure(0)
        assert b.allow(1)  # straight to half-open probe
        b.record_failure(1)
        assert b.state is BreakerState.OPEN
        assert not b.recovered

    def test_probe_lottery_is_deterministic(self):
        policy = BreakerPolicy(failure_threshold=1, cooldown_calls=1)
        decisions = []
        for _ in range(2):
            b = CircuitBreaker("stage", policy, seed=7)
            b.record_failure(0)
            decisions.append([b.allow(w) for w in range(1, 40)])
        assert decisions[0] == decisions[1]

    def test_distinct_stages_get_distinct_probe_streams(self):
        policy = BreakerPolicy(failure_threshold=1, cooldown_calls=1)
        seqs = {}
        for name in ("a", "b"):
            b = CircuitBreaker(name, policy, seed=0)
            b.record_failure(0)
            seqs[name] = tuple(b.allow(w) for w in range(1, 60))
        assert seqs["a"] != seqs["b"]

    def test_nan_trip_counted(self):
        b = CircuitBreaker("s", BreakerPolicy(failure_threshold=1))
        b.record_failure(0, nan_output=True)
        assert b.state is BreakerState.OPEN
        assert "non-finite" in b.transitions[0].reason

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(probe_probability=0.0)


class TestIsBadOutput:
    @pytest.mark.parametrize(
        "value,bad",
        [
            (None, True),
            (float("nan"), True),
            (float("inf"), True),
            (np.float64("nan"), True),
            (np.array([1.0, float("nan")]), True),
            (0, False),
            (3, False),
            (1.5, False),
            (np.array([1, 2]), False),
            (np.array([1.0, 2.0]), False),
            ("label", False),
        ],
    )
    def test_cases(self, value, bad):
        assert is_bad_output(value) is bad


# ----------------------------------------------------------------------
# Shedding transforms: every tier yields a valid, time-ordered substream
# ----------------------------------------------------------------------
class TestShedTransforms:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 400),
        keep=st.floats(0.0, 1.0),
        seed=st.integers(0, 20),
    )
    def test_subsample_is_valid_ordered_substream(self, n, keep, seed):
        s = make_stream(n, seed=seed)
        out = subsample_events(s, keep)
        assert out.validate() == []
        assert len(out) <= len(s)
        assert np.all(np.diff(out.t) >= 0)
        # Every kept event exists in the source (it is a true substream).
        if len(out):
            source = {tuple(e) for e in s.raw.tolist()}
            assert all(tuple(e) in source for e in out.raw.tolist())

    def test_subsample_keep_fraction_proportional(self):
        s = make_stream(1000)
        out = subsample_events(s, 0.25)
        assert len(out) == pytest.approx(250, abs=2)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 400),
        factor=st.integers(2, 8),
        refractory=st.integers(0, 2000),
        seed=st.integers(0, 20),
    )
    def test_spatial_shed_is_valid_and_keeps_resolution(
        self, n, factor, refractory, seed
    ):
        s = make_stream(n, seed=seed)
        out = spatial_shed(s, factor, refractory)
        assert out.resolution == s.resolution
        assert out.validate() == []
        assert len(out) <= len(s)
        assert np.all(np.diff(out.t) >= 0)
        # Re-projected coordinates sit on super-pixel corners.
        assert np.all(out.x % factor == 0)
        assert np.all(out.y % factor == 0)

    def test_spatial_shed_rejects_factor_one(self):
        with pytest.raises(ValueError):
            spatial_shed(make_stream(10), 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 10))
    def test_controller_apply_every_tier_valid_and_accounted(self, n, seed):
        s = make_stream(n, seed=seed)
        for tier in (ShedTier.SUBSAMPLE, ShedTier.DOWNSAMPLE, ShedTier.DROP_OLDEST):
            controller = ShedController(
                ShedPolicy(), target_events_per_window=max(1.0, n / 4)
            )
            controller.tier = tier
            ledger = ShedLedger()
            out = controller.apply(s, ledger)
            # DROP_OLDEST transforms the arriving window as DOWNSAMPLE.
            recorded = min(tier, ShedTier.DOWNSAMPLE).name
            assert ledger.windows_touched == {
                t.name: int(t.name == recorded) for t in ShedTier if t is not ShedTier.NONE
            }
            assert out.validate() == []
            assert np.all(np.diff(out.t) >= 0)
            assert ledger.total_events_shed == len(s) - len(out)


# ----------------------------------------------------------------------
# Shed controller escalation
# ----------------------------------------------------------------------
class TestShedController:
    def test_escalates_one_tier_per_crossing(self):
        c = ShedController(ShedPolicy(high_watermark=4, low_watermark=1))
        assert c.update(4, 1.0, 0) is ShedTier.SUBSAMPLE
        assert c.update(5, 1.0, 1) is ShedTier.DOWNSAMPLE
        assert c.update(6, 1.0, 2) is ShedTier.DROP_OLDEST
        assert c.update(9, 1.0, 3) is ShedTier.DROP_OLDEST  # saturates

    def test_deescalates_below_low_watermark(self):
        c = ShedController(ShedPolicy(high_watermark=4, low_watermark=1))
        c.update(4, 1.0, 0)
        c.update(5, 1.0, 1)
        assert c.update(1, 1.0, 2) is ShedTier.SUBSAMPLE
        assert c.update(0, 1.0, 3) is ShedTier.NONE

    def test_holds_tier_between_watermarks(self):
        c = ShedController(ShedPolicy(high_watermark=4, low_watermark=1))
        c.update(4, 1.0, 0)
        assert c.update(2, 1.0, 1) is ShedTier.SUBSAMPLE

    def test_burstiness_preempts(self):
        c = ShedController(ShedPolicy(high_watermark=8, low_watermark=2))
        # Depth below high watermark, but the window itself is bursty.
        assert c.update(3, 10.0, 0) is ShedTier.SUBSAMPLE
        assert c.transitions[0].reason.startswith("burstiness")

    def test_transitions_logged(self):
        c = ShedController(ShedPolicy(high_watermark=4, low_watermark=1))
        c.update(4, 1.0, 5)
        c.update(0, 1.0, 6)
        assert [(t.from_tier, t.to_tier) for t in c.transitions] == [
            ("NONE", "SUBSAMPLE"),
            ("SUBSAMPLE", "NONE"),
        ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ShedPolicy)]
    )
    def test_policy_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ShedPolicy(**{field: value})

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_event_budget(self, target):
        with pytest.raises(ValueError, match="target_events_per_window"):
            ShedController(ShedPolicy(), target_events_per_window=target)

    def test_ledger_rejects_added_events(self):
        ledger = ShedLedger()
        with pytest.raises(ValueError):
            ledger.record(ShedTier.SUBSAMPLE, 5, 6)


# ----------------------------------------------------------------------
# Bounded queue
# ----------------------------------------------------------------------
class TestBoundedWindowQueue:
    def _ticket(self, i):
        return WindowTicket(i, float(i), float(i) + 100.0, make_stream(5))

    def test_evicts_oldest_when_full(self):
        q = BoundedWindowQueue(2)
        assert q.push(self._ticket(0)) is None
        assert q.push(self._ticket(1)) is None
        evicted = q.push(self._ticket(2))
        assert evicted is not None and evicted.index == 0
        assert [t.index for t in list(q._items)] == [1, 2]
        assert q.max_depth == 2

    def test_fifo_order(self):
        q = BoundedWindowQueue(4)
        for i in range(3):
            q.push(self._ticket(i))
        assert q.peek().index == 0
        assert q.pop().index == 0
        assert q.drop_oldest().index == 1
        assert q.depth == 1

    def test_drop_oldest_on_empty(self):
        assert BoundedWindowQueue(1).drop_oldest() is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedWindowQueue(0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5, 1.0])
    def test_capacity_must_be_an_int(self, capacity):
        # A nan bound compares False against every depth and so would
        # never evict; a float bound is rejected outright.
        with pytest.raises(ValueError, match="capacity"):
            BoundedWindowQueue(capacity)


# ----------------------------------------------------------------------
# Report accounting
# ----------------------------------------------------------------------
class TestStreamReport:
    def test_balanced_report_has_no_errors(self):
        r = StreamReport(window_us=1000, offered=4, processed=2, expired=1, failed=1)
        r.offered_events = 40
        r.processed_events = 20
        r.expired_events = 10
        r.failed_events = 5
        r.ledger.record(ShedTier.SUBSAMPLE, 10, 5)
        r.served_by = {"primary": 2}
        assert r.accounting_errors() == []
        assert r.delivered_fraction == 0.5
        assert r.shed_event_fraction == pytest.approx(5 / 40)

    def test_unbalanced_windows_detected(self):
        r = StreamReport(window_us=1000, offered=3, processed=1)
        errors = r.accounting_errors()
        assert any("window accounting" in e for e in errors)

    def test_unbalanced_events_detected(self):
        r = StreamReport(window_us=1000, offered=1, processed=1)
        r.served_by = {"primary": 1}
        r.offered_events = 10
        r.processed_events = 3
        errors = r.accounting_errors()
        assert any("event accounting" in e for e in errors)

    def test_served_by_must_match_processed(self):
        r = StreamReport(window_us=1000, offered=1, processed=1)
        errors = r.accounting_errors()
        assert any("served_by" in e for e in errors)

    def test_latency_percentiles(self):
        r = StreamReport(window_us=1000)
        assert np.isnan(r.p50_latency_us)
        r.latencies_us = [10.0, 20.0, 30.0]
        assert r.p50_latency_us == 20.0
        assert r.p99_latency_us <= 30.0
        assert r.to_dict()["p50_latency_us"] == 20.0
