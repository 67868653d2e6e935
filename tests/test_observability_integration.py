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
from repro.observability import Instrumentation, to_json, validate_snapshot
from repro.reliability import HardenedRunner, UniformDrop
from repro.streaming import run_overload_demo


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

    def test_registry_trace_and_report_are_one_account(self, demo):
        """Every fact of the run is in the registry once and reconciles
        with the trace, the report, the shed ledger and the breakers'
        transition logs."""
        report, executor = demo
        reg = executor.obs.registry
        spans = executor.obs.tracer.span_counts()
        for stage, stats in report.stage_stats.items():
            calls = reg.counter_value("stream_stage_calls_total", {"stage": stage})
            assert spans.get(f"call:{stage}", 0) == calls == stats.calls, stage
        assert any(stats.calls for stats in report.stage_stats.values())

        def win(outcome):
            return reg.counter_value("stream_windows_total", {"outcome": outcome})

        outcomes = ("processed", "expired", "shed", "failed_ingest", "failed_serve")
        assert sum(win(o) for o in outcomes) == win("offered") == report.offered

        transitions = {}
        for t in report.breaker_transitions:
            key = (t.stage, t.to_state.value)
            transitions[key] = transitions.get(key, 0) + 1
        assert transitions, "the demo's outage should move a breaker"
        counted = {
            (c["labels"]["stage"], c["labels"]["to"]): c["value"]
            for c in reg.snapshot()["counters"]
            if c["name"] == "stream_breaker_transitions_total"
        }
        assert counted == transitions

        assert report.ledger.total_events_shed > 0
        for tier, events in report.ledger.events_shed.items():
            labels = {"tier": tier}
            assert reg.counter_value("stream_shed_events_total", labels) == events
            assert (
                reg.counter_value("stream_shed_windows_total", labels)
                == report.ledger.windows_touched[tier]
            )

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
        obs = Instrumentation()
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
        # Per-outcome record counters mirror the report exactly.
        for outcome, want in counts.items():
            got = reg.counter_value("runner_records_total", {"outcome": outcome})
            assert got == want, outcome
        assert reg.counter_total("runner_records_total") == len(report.records)
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
