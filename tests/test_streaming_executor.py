"""Executor, sweep and burst-demo tests for repro.streaming."""

import numpy as np
import pytest

from repro.core import (
    ComparisonResult,
    NotFittedError,
    OVERLOAD_AXIS,
    PipelineMetrics,
    SNNPipeline,
    attach_row,
)
from repro.datasets import make_gestures_dataset
from repro.events import EVENT_DTYPE, EventStream, Resolution
from repro.streaming import (
    BreakerPolicy,
    LAST_GOOD_STAGE,
    ServiceModel,
    ShedPolicy,
    StreamingExecutor,
    TransientOutage,
    calibrate_service,
    degradation_violations,
    make_bursty_stream,
    overload_scores,
    run_overload_demo,
    run_streaming_sweep,
    validate_report,
)

RES = Resolution(32, 32)


def steady_windows(num_windows, events_per_window=20, window_us=1000, seed=0):
    stream = make_bursty_stream(
        resolution=RES,
        num_windows=num_windows,
        window_us=window_us,
        base_events_per_window=events_per_window,
        burst_factor=1.0,
        burst_windows=(0, 0),
        seed=seed,
    )
    from repro.events.ops import split_by_time

    return list(split_by_time(stream, window_us))


def count_mod(stream):
    return int(len(stream) % 4)


class TestServiceModel:
    def test_costs(self):
        m = ServiceModel(base_us=100.0, per_event_us=2.0)
        assert m.service_us(50) == 200.0
        assert m.sustainable_events_per_window(1100) == 500.0

    def test_free_events_have_no_budget(self):
        assert ServiceModel(10.0, 0.0).sustainable_events_per_window(1000) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceModel(base_us=-1.0)

    @pytest.mark.parametrize(
        "costs",
        [
            {"base_us": float("nan")},
            {"per_event_us": float("nan")},
            {"base_us": float("inf")},
            {"per_event_us": float("inf")},
        ],
        ids=["base_nan", "per_event_nan", "base_inf", "per_event_inf"],
    )
    def test_rejects_non_finite_costs(self, costs):
        with pytest.raises(ValueError):
            ServiceModel(**costs)


class TestStreamingExecutor:
    def test_healthy_underload_processes_everything(self):
        windows = steady_windows(30)
        ex = StreamingExecutor(
            ("clf", count_mod),
            window_us=1000,
            service=ServiceModel(base_us=10.0, per_event_us=1.0),
        )
        report = ex.run(windows)
        assert report.offered == 30
        assert report.processed == 30
        assert report.expired == report.shed_windows == report.failed == 0
        assert report.accounting_errors() == []
        assert report.ledger.total_events_shed == 0
        assert report.served_by == {"clf": 30}
        assert len(report.predictions) == 30

    def test_accepts_whole_stream(self):
        stream = make_bursty_stream(
            num_windows=10, window_us=1000, base_events_per_window=10,
            burst_factor=1.0, burst_windows=(0, 0), seed=2,
        )
        ex = StreamingExecutor(
            count_mod, window_us=1000, service=ServiceModel(5.0, 0.5)
        )
        report = ex.run(stream)
        assert report.offered == 10
        assert report.accounting_errors() == []

    def test_unfitted_pipeline_raises_up_front(self):
        ex = StreamingExecutor(
            SNNPipeline(), window_us=1000, service=ServiceModel(5.0, 0.5)
        )
        with pytest.raises(NotFittedError):
            ex.run(steady_windows(3))

    def test_fitted_pipeline_streams(self):
        ds = make_gestures_dataset(num_per_class=2, duration_us=50_000, seed=3)
        pipe = SNNPipeline(seed=0)
        pipe.fit(ds)
        stream = ds.samples[0].stream
        ex = StreamingExecutor(
            pipe, window_us=10_000, service=ServiceModel(100.0, 0.1)
        )
        report = ex.run(stream)
        assert report.processed == report.offered > 0
        assert report.accounting_errors() == []
        assert all(isinstance(v, int) for v in report.predictions.values())

    def test_failing_primary_falls_back(self):
        def broken(stream):
            raise RuntimeError("boom")

        ex = StreamingExecutor(
            ("broken", broken),
            window_us=1000,
            fallbacks=[("backup", count_mod)],
            service=ServiceModel(5.0, 0.5),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_calls=3),
        )
        report = ex.run(steady_windows(20))
        assert report.processed == 20
        assert report.failed == 0
        assert report.served_by["backup"] == 20
        assert any(
            t.to_state.value == "open" for t in ex.breakers["broken"].transitions
        )
        assert report.accounting_errors() == []

    def test_nan_output_trips_breaker(self):
        ex = StreamingExecutor(
            ("nanny", lambda s: float("nan")),
            window_us=1000,
            fallbacks=[("backup", count_mod)],
            service=ServiceModel(5.0, 0.5),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_calls=8),
        )
        report = ex.run(steady_windows(10))
        assert report.stage_stats["nanny"].nan_trips >= 2
        assert "non-finite" in ex.breakers["nanny"].transitions[0].reason
        assert report.processed == 10

    def test_last_good_serves_when_all_stages_fail(self):
        outage = TransientOutage(count_mod, fail_from_call=3, fail_calls=100)
        ex = StreamingExecutor(
            ("flaky", outage),
            window_us=1000,
            service=ServiceModel(5.0, 0.5),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_calls=4),
        )
        report = ex.run(steady_windows(12))
        assert report.served_by[LAST_GOOD_STAGE] > 0
        assert report.processed == 12
        assert report.failed == 0
        assert report.accounting_errors() == []

    def test_outage_trips_probes_and_recloses(self):
        """A finite outage opens the primary's breaker, windows flow on
        the fallback, and after probation the primary serves again."""
        outage = TransientOutage(
            count_mod, fail_from_call=5, fail_calls=3, mode="nan"
        )
        ex = StreamingExecutor(
            ("primary", outage),
            window_us=1000,
            fallbacks=[("backup", count_mod)],
            service=ServiceModel(5.0, 0.5),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_calls=3),
        )
        report = ex.run(steady_windows(40))
        states = [
            (t.stage, t.to_state.value) for t in report.breaker_transitions
        ]
        assert ("primary", "open") in states
        assert ("primary", "half_open") in states  # probation was entered
        assert ("primary", "closed") in states  # and passed
        assert report.breaker_states["primary"] == "closed"
        reclosed_at = max(
            t.at_window
            for t in report.breaker_transitions
            if t.stage == "primary" and t.to_state.value == "closed"
        )
        # The fallback carried windows while the primary was open, and
        # the primary served the four windows before the outage and
        # every window after it re-closed.
        assert report.served_by["backup"] > 0
        assert report.served_by["primary"] >= 4 + (39 - reclosed_at)
        assert report.processed == 40
        assert report.failed == 0
        assert report.accounting_errors() == []

    def test_no_last_good_means_failed_windows(self):
        def broken(stream):
            raise RuntimeError("boom")

        ex = StreamingExecutor(
            broken,
            window_us=1000,
            service=ServiceModel(5.0, 0.5),
            use_last_good=False,
        )
        report = ex.run(steady_windows(6))
        assert report.failed == 6
        assert report.processed == 0
        assert report.accounting_errors() == []

    def test_overload_sheds_and_stays_balanced(self):
        windows = steady_windows(60, events_per_window=50)
        ex = StreamingExecutor(
            count_mod,
            window_us=1000,
            # ~4x overloaded: 50-event windows cost 100 + 50*60 = 3100 us.
            service=ServiceModel(base_us=100.0, per_event_us=60.0),
            queue_capacity=8,
            shed_policy=ShedPolicy(high_watermark=4, low_watermark=1),
        )
        report = ex.run(windows)
        assert report.accounting_errors() == []
        assert report.ledger.total_events_shed > 0
        assert len(report.tiers_engaged) >= 2
        assert report.processed < report.offered
        assert report.max_queue_depth >= 4
        assert report.tier_transitions  # escalations were logged

    def test_corrupt_window_is_quarantined_not_fatal(self):
        good = steady_windows(3)
        arr = np.zeros(2, dtype=EVENT_DTYPE)
        arr["t"] = [0, 2**62]
        arr["x"] = arr["y"] = 1
        arr["p"] = 1
        bad = EventStream(arr, RES)
        ex = StreamingExecutor(
            count_mod, window_us=1000, service=ServiceModel(5.0, 0.5)
        )
        report = ex.run([good[0], bad, good[1]])
        assert report.offered == 3
        assert report.processed == 2
        assert report.failed == 1
        assert report.accounting_errors() == []

    def test_run_is_deterministic(self):
        reports = [run_overload_demo(seed=5)[0].to_dict() for _ in range(2)]
        assert reports[0] == reports[1]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            StreamingExecutor(count_mod, window_us=0)
        with pytest.raises(ValueError):
            StreamingExecutor(count_mod, window_us=10, queue_capacity=0)
        ex = StreamingExecutor(count_mod, window_us=10)
        with pytest.raises(ValueError):
            ex.run([], load_factor=0.0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5, 4.0, True])
    def test_rejects_non_int_queue_capacity(self, capacity):
        with pytest.raises(ValueError, match="queue_capacity"):
            StreamingExecutor(count_mod, window_us=1000, queue_capacity=capacity)

    def test_queue_capacity_bounds_depth(self):
        # A 60-window burst at load 4 on a slow service keeps the queue
        # full, so its peak depth is exactly the (numpy int) bound.
        ex = StreamingExecutor(
            count_mod,
            window_us=1000,
            service=ServiceModel(100.0, 200.0),
            queue_capacity=np.int64(4),
        )
        report = ex.run(steady_windows(60), load_factor=4.0)
        assert report.max_queue_depth == 4
        assert report.accounting_errors() == []

    @pytest.mark.parametrize(
        "window_us", [float("inf"), float("nan"), -1, 0.5, 2.5, np.float64(1000.25)]
    )
    def test_rejects_non_finite_window(self, window_us):
        with pytest.raises(ValueError, match="window_us"):
            StreamingExecutor(count_mod, window_us=window_us)

    @pytest.mark.parametrize("load_factor", [float("nan"), float("inf")])
    def test_rejects_non_finite_load_factor(self, load_factor):
        ex = StreamingExecutor(count_mod, window_us=1000)
        ex.run(steady_windows(5))
        before = ex.snapshot()
        with pytest.raises(ValueError):
            ex.run(steady_windows(5), load_factor=load_factor)
        assert ex.snapshot() == before  # rejected before any state changed


class TestBurstDemo:
    """The seeded 10x burst acceptance demo."""

    def test_demo_meets_acceptance_criteria(self):
        report, ex = run_overload_demo(seed=0, burst_factor=10.0)
        # Exact conservation of windows and events.
        assert validate_report(report) == []
        assert report.failed == 0
        assert (
            report.processed + report.expired + report.shed_windows
            == report.offered
            == 200
        )
        # At least two shedding tiers engaged.
        assert len(report.tiers_engaged) >= 2
        # Every breaker that opened later recovered through its probes.
        opened = [
            b for b in ex.breakers.values()
            if any(t.to_state.value == "open" for t in b.transitions)
        ]
        assert opened, "the transient outage should have tripped a breaker"
        assert all(b.recovered for b in ex.breakers.values())
        for b in opened:
            moves = [(t.from_state.value, t.to_state.value) for t in b.transitions]
            assert ("half_open", "closed") in moves, b.stage
        # The burst actually stressed the system.
        assert report.expired > 0 or report.shed_windows > 0
        assert report.max_queue_depth >= 8

    def test_demo_report_serialises(self):
        import json

        report, _ = run_overload_demo(seed=1)
        blob = json.dumps(report.to_dict())
        assert "DROP_OLDEST" in blob


class TestStreamingSweep:
    def _small_sweep(self):
        stream = make_bursty_stream(
            num_windows=60, burst_factor=1.0, burst_windows=(0, 0), seed=1
        )
        return run_streaming_sweep(stream, 10_000, (0.5, 2.0, 6.0), seed=0)

    def test_curves_cover_paradigms_and_balance(self):
        result = self._small_sweep()
        assert set(result.curves) == {"SNN", "CNN", "GNN"}
        assert degradation_violations(result) == []
        for name in result.curves:
            assert len(result.delivered(name)) == 3

    def test_scores_in_unit_interval_and_ordered_by_headroom(self):
        result = self._small_sweep()
        scores = overload_scores(result)
        assert all(0.0 <= s <= 1.0 for s in scores.values())
        # More capacity headroom (GNN) must not score worse than less (CNN).
        assert scores["GNN"] >= scores["CNN"]

    def test_attach_to_comparison_adds_overload_row(self):
        result = self._small_sweep()
        comparison = ComparisonResult(
            metrics={p: PipelineMetrics(paradigm=p) for p in ("SNN", "CNN", "GNN")}
        )
        attach_row(comparison, OVERLOAD_AXIS, overload_scores(result))
        assert OVERLOAD_AXIS in comparison.extra_axes
        assert set(comparison.ratings["overload"]) == {"SNN", "CNN", "GNN"}
        assert np.isfinite(comparison.metrics["SNN"].overload)
        # Attaching twice must not duplicate the row.
        attach_row(comparison, OVERLOAD_AXIS, overload_scores(result))
        assert comparison.extra_axes.count(OVERLOAD_AXIS) == 1

    def test_degradation_violations_flags_rising_curve(self):
        result = self._small_sweep()
        # Artificially make a curve rise.
        pts = result.curves["SNN"]
        pts[0].report.processed = 0
        pts[0].report.served_by = {}
        pts[0].report.offered = 10
        pts[0].report.expired = 10
        pts[0].report.offered_events = 0
        violations = degradation_violations(result)
        assert any("delivered fraction rises" in v for v in violations)

    def test_sweep_validates_inputs(self, monkeypatch):
        from repro.streaming import sweep

        def no_runs(*args, **kwargs):
            raise AssertionError("a paradigm ran before validation")

        monkeypatch.setattr(sweep, "run_paradigm_stream", no_runs)
        stream = make_bursty_stream(num_windows=5, seed=0)
        with pytest.raises(ValueError, match="empty"):
            run_streaming_sweep(stream, 10_000, ())
        with pytest.raises(ValueError, match="ascending"):
            run_streaming_sweep(stream, 10_000, (2.0, 1.0))


class TestCalibrateService:
    def test_headroom_sets_utilisation(self):
        stream = make_bursty_stream(
            num_windows=50, base_events_per_window=100,
            burst_factor=1.0, burst_windows=(0, 0), seed=0,
        )
        service = calibrate_service(stream, 10_000, headroom=2.0)
        # A mean-rate window should cost about half the window period.
        cost = service.service_us(100)
        assert cost == pytest.approx(5000.0, rel=0.05)

    def test_validation(self):
        stream = make_bursty_stream(num_windows=5, seed=0)
        with pytest.raises(ValueError):
            calibrate_service(stream, 1000, headroom=0.0)

    @pytest.mark.parametrize("headroom", [float("nan"), float("inf")])
    def test_rejects_non_finite_headroom(self, headroom):
        # Either would price events at 0 us and so switch off the
        # executor's SUBSAMPLE budget without an error.
        stream = make_bursty_stream(num_windows=5, seed=0)
        with pytest.raises(ValueError, match="headroom"):
            calibrate_service(stream, 1000, headroom=headroom)
