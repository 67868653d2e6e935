"""Tests for the robustness sweep (repro.reliability.sweep).

Covers the acceptance criterion of the reliability subsystem: a sweep
over a dataset containing deliberately corrupted recordings completes
without raising, quarantines exactly the corrupted ones in its
RunReport, and produces monotone-trending accuracy-degradation curves
for all three paradigms with a fixed seed (deterministic across runs).
"""

import numpy as np
import pytest

from repro.core import (
    AXES,
    CNNPipeline,
    ComparisonResult,
    GNNPipeline,
    PipelineMetrics,
    ROBUSTNESS_AXIS,
    SNNPipeline,
    attach_row,
    rate_values,
    render_table,
    to_markdown,
)
from repro.datasets import make_shapes_dataset, train_test_split
from repro.datasets.base import EventDataset, EventSample
from repro.events import Resolution
from repro.gnn import GraphBuildConfig
from repro.reliability import (
    OutOfOrderCorruption,
    RobustnessSweepResult,
    RunReport,
    SweepPoint,
    rate_sweep,
    robustness_scores,
    run_robustness_sweep,
)

SEVERITIES = (0.0, 0.5, 1.0)
CORRUPTED = (1, 5)


def fast_pipelines(seed=0):
    return {
        "SNN": SNNPipeline(num_steps=10, pool=3, hidden=24, epochs=8, seed=seed),
        "CNN": CNNPipeline(base_width=4, epochs=8, seed=seed),
        "GNN": GNNPipeline(
            config=GraphBuildConfig(
                radius=4.0, time_scale_us=3000.0, max_events=150, max_degree=8
            ),
            hidden=8,
            epochs=8,
            seed=seed,
        ),
    }


@pytest.fixture(scope="module")
def corrupted_split():
    ds = make_shapes_dataset(
        num_per_class=8, resolution=Resolution(24, 24), duration_us=40_000, seed=0
    )
    train, test = train_test_split(ds, 0.4, np.random.default_rng(0))
    samples = list(test.samples)
    for offset, index in enumerate(CORRUPTED):
        sample = samples[index]
        broken = OutOfOrderCorruption(0.2)(sample.stream, seed=1000 + offset)
        samples[index] = EventSample(broken, sample.label, sample.metadata)
    test = EventDataset(samples, test.class_names, "corrupted")
    return train, test


@pytest.fixture(scope="module")
def sweep(corrupted_split):
    train, test = corrupted_split
    return run_robustness_sweep(train, test, fast_pipelines(), SEVERITIES, seed=0)


class TestAcceptance:
    def test_completes_for_all_paradigms(self, sweep):
        assert set(sweep.curves) == {"SNN", "CNN", "GNN"}
        for points in sweep.curves.values():
            assert [p.severity for p in points] == list(SEVERITIES)

    def test_quarantines_exactly_the_corrupted_recordings(self, sweep):
        # At EVERY severity — including ones whose faults re-sort time.
        for points in sweep.curves.values():
            for point in points:
                assert tuple(point.report.quarantined_indices) == CORRUPTED

    def test_curves_trend_monotone_down(self, sweep):
        for name in sweep.curves:
            curve = sweep.accuracies(name)
            assert all(np.isfinite(curve))
            assert curve[0] + 1e-9 >= curve[-1], (name, curve)

    def test_deterministic_across_two_runs(self, sweep, corrupted_split):
        train, test = corrupted_split
        rerun = run_robustness_sweep(
            train, test, fast_pipelines(), SEVERITIES, seed=0
        )
        for name in sweep.curves:
            assert sweep.accuracies(name) == rerun.accuracies(name)
        assert robustness_scores(sweep) == robustness_scores(rerun)

    def test_scores_in_unit_interval(self, sweep):
        scores = robustness_scores(sweep)
        assert set(scores) == {"SNN", "CNN", "GNN"}
        for value in scores.values():
            assert 0.0 <= value <= 1.0


class TestValidation:
    """Bad input fails with ValueError before any pipeline is fitted."""

    def test_rejects_unordered_severities(self, corrupted_split):
        train, test = corrupted_split
        pipelines = fast_pipelines()
        with pytest.raises(ValueError, match="ascending"):
            run_robustness_sweep(train, test, pipelines, (0.5, 0.0))
        assert all(p.model is None for p in pipelines.values())

    def test_rejects_empty_severities(self, corrupted_split):
        train, test = corrupted_split
        pipelines = fast_pipelines()
        with pytest.raises(ValueError, match="empty"):
            run_robustness_sweep(train, test, pipelines, ())
        assert all(p.model is None for p in pipelines.values())

    def test_rejects_partial_pipelines(self, corrupted_split):
        train, test = corrupted_split
        snn = SNNPipeline()
        with pytest.raises(ValueError, match="pipelines"):
            run_robustness_sweep(train, test, {"SNN": snn}, SEVERITIES)
        assert snn.model is None


def synthetic_result(scores):
    """A minimal sweep result with the given clean/stressed accuracies."""
    result = RobustnessSweepResult(severities=(0.0, 1.0), seed=0)
    for name, (clean, stressed) in scores.items():
        result.curves[name] = [
            SweepPoint(0.0, clean, RunReport(pipeline=name, fault="", seed=0)),
            SweepPoint(1.0, stressed, RunReport(pipeline=name, fault="", seed=0)),
        ]
    return result


class TestScoring:
    def test_retained_accuracy_definition(self):
        result = synthetic_result(
            {"SNN": (0.8, 0.4), "CNN": (0.9, 0.9), "GNN": (0.5, 0.0)}
        )
        scores = robustness_scores(result)
        assert scores["SNN"] == pytest.approx(0.5)
        assert scores["CNN"] == pytest.approx(1.0)
        assert scores["GNN"] == pytest.approx(0.0)

    def test_improvement_clips_to_one(self):
        result = synthetic_result({"SNN": (0.5, 0.7), "CNN": (1, 1), "GNN": (1, 1)})
        assert robustness_scores(result)["SNN"] == pytest.approx(1.0)

    def test_nan_clean_accuracy_scores_nan(self):
        result = synthetic_result(
            {"SNN": (float("nan"), 0.5), "CNN": (1, 1), "GNN": (1, 1)}
        )
        assert np.isnan(robustness_scores(result)["SNN"])

    def test_rate_sweep_orders_paradigms(self):
        result = synthetic_result(
            {"SNN": (0.8, 0.8), "CNN": (0.8, 0.4), "GNN": (0.8, 0.1)}
        )
        ratings = rate_sweep(result)
        assert ratings["SNN"].value == "++"
        assert ratings["GNN"].value == "-"


def synthetic_comparison():
    """A comparison result without the expensive training runs."""
    metrics = {name: PipelineMetrics(paradigm=name) for name in ("SNN", "CNN", "GNN")}
    result = ComparisonResult(metrics=metrics)
    for axis in AXES:
        values = {name: metrics[name].value(axis) for name in metrics}
        result.ratings[axis.key] = rate_values(
            values, axis.higher_is_better, axis.tie_tolerance
        )
    return result


class TestComparisonIntegration:
    def test_attach_adds_robustness_row(self):
        comparison = synthetic_comparison()
        n_axes_before = len(comparison.axes)
        result = synthetic_result(
            {"SNN": (0.8, 0.6), "CNN": (0.8, 0.7), "GNN": (0.8, 0.2)}
        )
        updated = attach_row(comparison, ROBUSTNESS_AXIS, robustness_scores(result))
        assert len(updated.axes) == n_axes_before + 1
        assert updated.axes[-1].key == "robustness"
        assert "robustness" in updated.ratings
        table = render_table(updated)
        assert "robustness" in table.lower()
        assert "robustness" in to_markdown(updated).lower()

    def test_attach_requires_every_paradigm(self):
        with pytest.raises(ValueError):
            attach_row(synthetic_comparison(), ROBUSTNESS_AXIS, {"GNN": 1.0})

    def test_default_table_unchanged_without_attach(self):
        comparison = synthetic_comparison()
        assert len(comparison.axes) == len(AXES)
        assert "robustness" not in render_table(comparison).lower()
