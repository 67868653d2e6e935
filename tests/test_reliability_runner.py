"""Tests for the hardened runner (repro.reliability.runner)."""

import json

import numpy as np
import pytest

from repro.core import (
    CNNPipeline,
    GNNPipeline,
    NotFittedError,
    ParadigmPipeline,
    SNNPipeline,
)
from repro.datasets import make_shapes_dataset, train_test_split
from repro.datasets.base import EventDataset, EventSample
from repro.events import EventStream, Resolution
from repro.nn import is_grad_enabled, is_stable_matmul, no_grad, stable_matmul
from repro.reliability import (
    HardenedRunner,
    OutOfOrderCorruption,
    RecordingOutcome,
    UniformDrop,
    validate_sample,
)

RES = Resolution(24, 24)


@pytest.fixture(scope="module")
def shapes_split():
    ds = make_shapes_dataset(
        num_per_class=6, resolution=RES, duration_us=40_000, seed=0
    )
    return train_test_split(ds, 0.3, np.random.default_rng(0))


def corrupt_dataset(test, index=1, seed=7):
    """Copy of ``test`` with one recording made structurally invalid."""
    broken = OutOfOrderCorruption(0.2)(test.samples[index].stream, seed=seed)
    samples = list(test.samples)
    samples[index] = EventSample(broken, samples[index].label)
    return EventDataset(samples, test.class_names, "corrupted")


class StubPipeline(ParadigmPipeline):
    """Scriptable pipeline for exercising the runner's failure paths."""

    name = "SNN"

    def __init__(self, fail=False, prediction=0):
        self.fail = fail
        self.prediction = prediction
        self.calls = 0
        self.model = None

    def fit(self, train):
        self.model = object()

    def predict(self, stream):
        self._require_fitted()
        self.calls += 1
        if self.fail:
            raise RuntimeError("scripted failure")
        return self.prediction

    def measure(self, test, temporal_labels=()):
        self._require_fitted()
        raise RuntimeError("not used")


class TestNotFittedError:
    """Satellite: all three pipelines raise NotFittedError before fit."""

    @pytest.mark.parametrize(
        "pipeline",
        [
            SNNPipeline(num_steps=4, hidden=4),
            CNNPipeline(base_width=2),
            GNNPipeline(hidden=4),
        ],
        ids=["SNN", "CNN", "GNN"],
    )
    def test_predict_and_measure_raise(self, pipeline, shapes_split):
        _, test = shapes_split
        with pytest.raises(NotFittedError, match="not fitted"):
            pipeline.predict(test.samples[0].stream)
        with pytest.raises(NotFittedError, match="not fitted"):
            pipeline.measure(test)

    def test_not_fitted_is_a_runtime_error(self):
        assert issubclass(NotFittedError, RuntimeError)

    def test_evaluate_propagates_not_fitted(self, shapes_split):
        _, test = shapes_split
        runner = HardenedRunner(StubPipeline())
        with pytest.raises(NotFittedError):
            runner.evaluate(test)


class TestValidateSample:
    def test_clean_sample_passes(self, shapes_split):
        _, test = shapes_split
        assert validate_sample(test.samples[0], test.resolution) == []

    def test_out_of_order_flagged(self, shapes_split):
        _, test = shapes_split
        bad = corrupt_dataset(test)
        problems = validate_sample(bad.samples[1], test.resolution)
        assert problems and "out-of-order" in problems[0]

    def test_resolution_mismatch_flagged(self):
        stream = EventStream.empty(Resolution(8, 8))
        problems = validate_sample(EventSample(stream, 0), Resolution(16, 16))
        assert problems and "resolution" in problems[0]


class TestQuarantine:
    def test_corrupted_recording_quarantined_not_fatal(self, shapes_split):
        _, test = shapes_split
        bad = corrupt_dataset(test, index=1)
        runner = HardenedRunner(StubPipeline())
        runner.fit(bad)
        report = runner.evaluate(bad)
        assert report.quarantined_indices == [1]
        counts = report.outcome_counts()
        assert counts["quarantined"] == 1
        assert counts["ok"] == len(bad) - 1
        assert report.records[1].problems

    def test_quarantine_survives_resorting_faults(self, shapes_split):
        # TimestampJitter-style faults re-sort events; pre-existing
        # corruption must still be quarantined at every severity.
        _, test = shapes_split
        bad = corrupt_dataset(test, index=2)
        runner = HardenedRunner(StubPipeline())
        runner.fit(bad)
        report = runner.evaluate(bad, fault=UniformDrop(0.3), seed=5)
        assert report.quarantined_indices == [2]

    def test_fit_excludes_invalid_recordings(self, shapes_split):
        train, _ = shapes_split
        bad = corrupt_dataset(train, index=0)

        seen = {}

        class CountingStub(StubPipeline):
            def fit(self, ds):
                seen["n"] = len(ds)
                super().fit(ds)

        runner = HardenedRunner(CountingStub())
        result = runner.fit(bad)
        assert result.ok
        assert seen["n"] == len(bad) - 1


class TestRetryAndTimeout:
    """The runner neither retries nor times out: each stage runs once."""

    def test_persistent_failure_recorded(self, shapes_split):
        _, test = shapes_split
        pipeline = StubPipeline(fail=True)
        runner = HardenedRunner(pipeline)
        runner.fit(test)
        report = runner.evaluate(test.subset([0, 1]))
        for record in report.records:
            assert record.outcome is RecordingOutcome.FAILED
            assert record.error_type == "RuntimeError"
        assert pipeline.calls == len(report.records)  # one call per record
        assert np.isnan(report.accuracy())

    def test_failed_stage_restores_engine_flags(self, shapes_split):
        _, test = shapes_split

        class RaisesInsideEngineContexts(StubPipeline):
            def predict(self, stream):
                with no_grad(), stable_matmul():
                    raise RuntimeError("failure inside the engine contexts")

        runner = HardenedRunner(RaisesInsideEngineContexts())
        runner.fit(test)
        report = runner.evaluate(test.subset([0]))
        assert report.records[0].outcome is RecordingOutcome.FAILED
        assert is_grad_enabled() is True
        assert is_stable_matmul() is False


class TestRunReport:
    def test_accuracy_over_evaluated_records(self, shapes_split):
        _, test = shapes_split
        label0 = test.samples[0].label
        runner = HardenedRunner(StubPipeline(prediction=label0))
        runner.fit(test)
        report = runner.evaluate(test)
        expected = float(np.mean(test.labels() == label0))
        assert report.accuracy() == pytest.approx(expected)

    def test_to_dict_is_json_serialisable(self, shapes_split):
        _, test = shapes_split
        bad = corrupt_dataset(test, index=0)
        runner = HardenedRunner(StubPipeline())
        runner.fit(bad)
        report = runner.evaluate(bad, fault=UniformDrop(0.2), seed=3)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["pipeline"] == "SNN"
        assert payload["seed"] == 3
        assert "UniformDrop" in payload["fault"]
        assert payload["outcome_counts"]["quarantined"] == 1

    def test_fault_injection_is_deterministic(self, shapes_split):
        _, test = shapes_split
        runner = HardenedRunner(StubPipeline())
        runner.fit(test)
        a = runner.evaluate(test, fault=UniformDrop(0.5), seed=11)
        b = runner.evaluate(test, fault=UniformDrop(0.5), seed=11)
        def strip_timing(report):
            return [{**r.to_dict(), "elapsed_s": None} for r in report.records]

        assert strip_timing(a) == strip_timing(b)
