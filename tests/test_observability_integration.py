"""Integration tests: observability wired through streaming, core, reliability.

The tentpole acceptance story lives here: one registry is the single
source of truth, so the executor's ``StreamReport`` scalars, the trace
tree's span counts and the exported snapshot must all reconcile exactly
— and two identical seeded virtual-time runs must serialize to the
same bytes.
"""

import numpy as np
import pytest

from repro.core import NotFittedError, ParadigmPipeline
from repro.datasets import make_shapes_dataset, train_test_split
from repro.events import Resolution
from repro.observability import (
    Instrumentation,
    ProfilingHooks,
    to_json,
    validate_snapshot,
)
from repro.reliability import HardenedRunner, UniformDrop
from repro.streaming import (
    BreakerPolicy,
    ServiceModel,
    ShedPolicy,
    StreamingExecutor,
    TransientOutage,
    make_bursty_stream,
    run_overload_demo,
)


class TestStreamingEndToEnd:
    @pytest.fixture(scope="class")
    def demo(self):
        report, executor = run_overload_demo(seed=0)
        return report, executor

    def test_report_is_a_view_over_the_registry(self, demo):
        report, executor = demo
        assert report.accounting_errors() == []
        reg = executor.obs.registry

        def win(outcome):
            return reg.counter_value("stream_windows_total", {"outcome": outcome})

        assert win("offered") == report.offered
        assert win("processed") == report.processed
        assert win("expired") == report.expired
        assert win("shed") == report.shed_windows
        assert win("failed_ingest") + win("failed_serve") == report.failed
        assert (
            reg.counter_value("stream_events_total", {"outcome": "offered"})
            == report.offered_events
        )
        assert (
            reg.counter_total("stream_shed_events_total")
            == report.ledger.total_events_shed
        )
        assert reg.counter_total("stream_breaker_transitions_total") == len(
            report.breaker_transitions
        )

    def test_span_counts_reconcile_with_report(self, demo):
        report, executor = demo
        counts = executor.obs.tracer.span_counts()
        reg = executor.obs.registry
        failed_serve = reg.counter_value(
            "stream_windows_total", {"outcome": "failed_serve"}
        )
        assert counts["ingest"] == report.offered
        assert counts.get("expire", 0) == report.expired
        assert counts["serve"] == report.processed + failed_serve
        for stage in ("flaky_primary", "fallback", "shed"):
            calls = reg.counter_value("stream_stage_calls_total", {"stage": stage})
            assert counts.get(f"call:{stage}", 0) == calls

    def test_snapshot_valid_and_latency_count_matches(self, demo):
        report, executor = demo
        snap = executor.snapshot()
        assert validate_snapshot(snap) == []
        latency = [
            h for h in snap["metrics"]["histograms"] if h["name"] == "stream_latency_us"
        ]
        assert sum(h["count"] for h in latency) == report.processed

    def test_seeded_runs_byte_identical(self, demo):
        _, executor = demo
        first = to_json(executor.snapshot())
        report2, executor2 = run_overload_demo(seed=0)
        assert to_json(executor2.snapshot()) == first
        report3, executor3 = run_overload_demo(seed=1)
        assert to_json(executor3.snapshot()) != first


class TestExecutorHooks:
    def test_hooks_fire_through_the_executor(self):
        calls = {"start": 0, "end": 0, "window": [], "shed": [], "trip": []}
        hooks = ProfilingHooks(
            on_stage_start=lambda s, i: calls.__setitem__("start", calls["start"] + 1),
            on_stage_end=lambda s, i, ok: calls.__setitem__("end", calls["end"] + 1),
            on_window=lambda i, o: calls["window"].append(o),
            on_shed=lambda t, n: calls["shed"].append((t, n)),
            on_trip=lambda s, f, t: calls["trip"].append((s, f, t)),
        )
        window_us = 10_000
        stream = make_bursty_stream(
            num_windows=120,
            window_us=window_us,
            base_events_per_window=200,
            burst_factor=8.0,
            burst_windows=(40, 80),
            seed=0,
        )
        executor = StreamingExecutor(
            ("primary", TransientOutage(lambda s: 0, fail_from_call=10, fail_calls=6)),
            window_us=window_us,
            fallbacks=[("fallback", lambda s: 1)],
            service=ServiceModel(base_us=1000.0, per_event_us=45.0),
            queue_capacity=12,
            shed_policy=ShedPolicy(high_watermark=8, low_watermark=2),
            breaker_policy=BreakerPolicy(
                failure_threshold=3,
                cooldown_calls=4,
                probe_probability=0.6,
                success_threshold=2,
            ),
            seed=0,
            hooks=hooks,
        )
        report = executor.run(stream, load_factor=1.0)
        assert report.accounting_errors() == []
        # Every offered window reaches exactly one terminal outcome hook.
        assert len(calls["window"]) == report.offered
        reg = executor.obs.registry
        assert calls["start"] == calls["end"]
        assert calls["start"] == reg.counter_total("stream_stage_calls_total")
        # The outage trips the breaker; the burst engages shedding.
        assert ("primary", "closed", "open") in calls["trip"]
        assert len(calls["trip"]) == len(report.breaker_transitions)
        assert calls["shed"]
        assert sum(n for _, n in calls["shed"]) == report.ledger.total_events_shed


class TinyPipeline(ParadigmPipeline):
    """Minimal template-method subclass for instrumentation checks."""

    name = "TINY"

    def __init__(self, fail_predict=False):
        self.model = None
        self.fail_predict = fail_predict

    def _fit(self, train):
        self.model = object()

    def _predict(self, stream):
        self._require_fitted()
        if self.fail_predict:
            raise RuntimeError("scripted failure")
        return 1

    def _measure(self, test, temporal_labels=()):
        self._require_fitted()
        return {"acc": 1.0}


class TestPipelineInstrumentation:
    def test_stages_counted_timed_and_traced(self):
        obs = Instrumentation()
        pipe = TinyPipeline().instrument(obs)
        assert pipe.instrumentation is obs
        pipe.fit(None)
        assert pipe.predict(None) == 1
        pipe.predict(None)
        assert pipe.measure(None) == {"acc": 1.0}
        reg = obs.registry

        def stage_calls(stage):
            return reg.counter_value(
                "pipeline_stage_calls_total", {"paradigm": "TINY", "stage": stage}
            )

        assert stage_calls("fit") == 1
        assert stage_calls("predict") == 2
        assert stage_calls("measure") == 1
        assert reg.counter_total("pipeline_stage_failures_total") == 0
        assert obs.tracer.span_counts() == {
            "TINY.fit": 1,
            "TINY.predict": 2,
            "TINY.measure": 1,
        }
        durations = [
            h
            for h in obs.snapshot()["metrics"]["histograms"]
            if h["name"] == "pipeline_stage_duration_us"
        ]
        assert sum(h["count"] for h in durations) == 4

    def test_failures_counted_and_reraised(self):
        obs = Instrumentation()
        pipe = TinyPipeline(fail_predict=True).instrument(obs)
        pipe.fit(None)
        with pytest.raises(RuntimeError, match="scripted failure"):
            pipe.predict(None)
        labels = {"paradigm": "TINY", "stage": "predict"}
        assert obs.registry.counter_value("pipeline_stage_failures_total", labels) == 1
        # The span still closed: its duration was recorded.
        assert len(obs.tracer.find("TINY.predict")) == 1

    def test_not_fitted_still_raises_when_instrumented(self):
        obs = Instrumentation()
        pipe = TinyPipeline().instrument(obs)
        with pytest.raises(NotFittedError):
            pipe.predict(None)
        labels = {"paradigm": "TINY", "stage": "predict"}
        assert obs.registry.counter_value("pipeline_stage_failures_total", labels) == 1

    def test_uninstrumented_pipeline_untouched(self):
        pipe = TinyPipeline()
        assert pipe.instrumentation is None
        pipe.fit(None)
        assert pipe.predict(None) == 1


class TestRunnerInstrumentation:
    @pytest.fixture(scope="class")
    def shapes_split(self):
        ds = make_shapes_dataset(
            num_per_class=4,
            resolution=Resolution(24, 24),
            duration_us=30_000,
            seed=0,
        )
        return train_test_split(ds, 0.4, np.random.default_rng(0))

    def test_guard_counters_records_and_hooks_reconcile(self, shapes_split):
        train, test = shapes_split
        windows, stage_ends = [], []
        obs = Instrumentation(
            hooks=ProfilingHooks(
                on_window=lambda i, o: windows.append((i, o)),
                on_stage_end=lambda stage, i, ok: stage_ends.append((stage, ok)),
            )
        )
        runner = HardenedRunner(TinyPipeline(), instrumentation=obs)
        assert runner.pipeline.instrumentation is obs
        assert runner.fit(train).ok
        report = runner.evaluate(test, fault=UniformDrop(0.3), seed=3)
        reg = obs.registry
        # One fit + one predict per non-quarantined record, each counted
        # once by the pipeline's own stage wrapper.
        counts = report.outcome_counts()

        def calls(stage):
            labels = {"paradigm": "TINY", "stage": stage}
            return reg.counter_value("pipeline_stage_calls_total", labels)

        predicts = calls("predict")
        assert calls("fit") == 1
        assert predicts == len(report.records) - counts["quarantined"]
        assert reg.counter_total("pipeline_stage_failures_total") == 0
        assert stage_ends == [("fit", True)] + [("predict", True)] * int(predicts)
        # Per-outcome record counters mirror the report exactly.
        for outcome, want in counts.items():
            got = reg.counter_value("runner_records_total", {"outcome": outcome})
            assert got == want, outcome
        assert len(windows) == len(report.records)
        assert [i for i, _ in windows] == [r.index for r in report.records]
        # One span per stage call.
        span_counts = obs.tracer.span_counts()
        assert span_counts["TINY.fit"] == 1
        assert span_counts["TINY.predict"] == predicts
        assert validate_snapshot(obs.snapshot()) == []

    def test_guard_failures_and_retries_counted(self, shapes_split):
        # A failing stage is counted once and recorded, never retried.
        train, test = shapes_split
        obs = Instrumentation()
        runner = HardenedRunner(TinyPipeline(fail_predict=True), instrumentation=obs)
        assert runner.fit(train).ok
        record = runner.predict_sample(test.samples[0], 0, test.resolution)
        assert record.outcome.value == "failed"
        assert record.error_message == "scripted failure"
        reg = obs.registry
        labels = {"paradigm": "TINY", "stage": "predict"}
        assert reg.counter_value("pipeline_stage_calls_total", labels) == 1
        assert reg.counter_value("pipeline_stage_failures_total", labels) == 1
        assert obs.tracer.span_counts()["TINY.predict"] == 1
        assert reg.counter_value("runner_records_total", {"outcome": "failed"}) == 1
