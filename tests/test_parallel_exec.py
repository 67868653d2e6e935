"""Tests for shard planning, execution and merging (repro.parallel).

Covers the worker-count-independent shard plan, the virtual clock,
the metric/snapshot merge rules (counters sum, gauges max, histograms
bucket-checked), shard-count reconciliation, and serial/process
equivalence of the executor.
"""

import pytest

from repro.observability import Instrumentation, validate_snapshot
from repro.parallel import (
    Cell,
    DeterministicClock,
    ParallelConfig,
    Shard,
    merge_metrics,
    merge_snapshots,
    plan_shards,
    reconcile_shards,
    run_shards,
)

PARADIGMS = ("SNN", "CNN", "GNN")


class TestPlanShards:
    def test_cell_grouping_one_shard_per_cell(self):
        shards = plan_shards(PARADIGMS, (1, 2), group_by="cell")
        assert len(shards) == 6
        assert all(len(s.cells) == 1 for s in shards)
        assert [s.index for s in shards] == list(range(6))
        # Paradigm-major flattening with a running cell index.
        assert shards[0].cells[0] == Cell("SNN", 1, index=0)
        assert shards[3].cells[0] == Cell("CNN", 2, index=3)

    def test_paradigm_grouping_one_shard_per_row(self):
        shards = plan_shards(PARADIGMS, (0.0, 0.5), group_by="paradigm")
        assert len(shards) == 3
        assert [c.condition for c in shards[0].cells] == [0.0, 0.5]
        assert {s.cells[0].paradigm for s in shards} == set(PARADIGMS)

    def test_empty_conditions_yield_unconditioned_cells(self):
        shards = plan_shards(PARADIGMS, (), group_by="cell")
        assert len(shards) == 3
        assert all(s.cells[0].condition is None for s in shards)

    def test_rejects_unknown_grouping(self):
        with pytest.raises(ValueError, match="group_by"):
            plan_shards(PARADIGMS, (), group_by="recording")

    def test_plan_never_sees_worker_count(self):
        import inspect

        assert "n_workers" not in inspect.signature(plan_shards).parameters


class TestParallelConfig:
    def test_resolution(self, monkeypatch):
        from repro.parallel import sharding

        assert ParallelConfig(n_workers=1).resolve() == "serial"
        # Auto runs serially where a pool cannot help (one CPU) or
        # cannot start (no fork), and on processes otherwise.
        expected = (
            "serial"
            if (sharding.os.cpu_count() or 1) <= 1 or sharding._fork_context() is None
            else "process"
        )
        assert ParallelConfig(n_workers=4).resolve() == expected
        assert ParallelConfig(n_workers=4, backend="serial").resolve() == "serial"
        assert ParallelConfig(n_workers=1, backend="process").resolve() == "process"
        with monkeypatch.context() as patch:
            patch.setattr(sharding.os, "cpu_count", lambda: 1)
            assert ParallelConfig(n_workers=4).resolve() == "serial"
        with monkeypatch.context() as patch:
            patch.setattr(sharding, "_fork_context", lambda: None)
            assert ParallelConfig(n_workers=4).resolve() == "serial"

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(n_workers=0)
        for backend in ("threads", "thread"):
            with pytest.raises(ValueError):
                ParallelConfig(backend=backend)


class TestDeterministicClock:
    def test_fixed_step_ticks(self):
        clock = DeterministicClock()
        first, second, third = clock(), clock(), clock()
        assert second - first == third - second
        # Two fresh clocks produce identical sequences.
        a, b = DeterministicClock(), DeterministicClock()
        assert [a() for _ in range(5)] == [b() for _ in range(5)]


def _sample_registry(counter_value, gauge_value):
    obs = Instrumentation(clock=DeterministicClock())
    obs.registry.counter("widget_total", labels={"kind": "a"}).inc(counter_value)
    obs.registry.gauge("depth").set(gauge_value)
    obs.registry.histogram("size_units", buckets=(1.0, 10.0)).observe(3.0)
    return obs


class TestMerge:
    def test_counters_sum_and_gauges_max(self):
        m1 = _sample_registry(2, 5.0).registry.snapshot()
        m2 = _sample_registry(3, 4.0).registry.snapshot()
        merged = merge_metrics([m1, m2])
        counters = {s["name"]: s["value"] for s in merged["counters"]}
        gauges = {s["name"]: s["value"] for s in merged["gauges"]}
        assert counters["widget_total"] == 5
        assert gauges["depth"] == 5.0

    def test_histograms_merge_elementwise(self):
        m1 = _sample_registry(1, 1.0).registry.snapshot()
        m2 = _sample_registry(1, 1.0).registry.snapshot()
        merged = merge_metrics([m1, m2])
        hist = merged["histograms"][0]
        assert hist["count"] == 2
        assert sum(hist["counts"]) == 2

    def test_bucket_mismatch_is_an_error(self):
        obs = Instrumentation(clock=DeterministicClock())
        obs.registry.histogram("size_units", buckets=(1.0, 10.0)).observe(3.0)
        other = Instrumentation(clock=DeterministicClock())
        other.registry.histogram("size_units", buckets=(2.0, 20.0)).observe(3.0)
        with pytest.raises(ValueError, match="bucket"):
            merge_metrics([obs.registry.snapshot(), other.registry.snapshot()])

    def test_merged_snapshot_is_valid_and_ordered(self):
        snaps = [_sample_registry(1, 2.0).snapshot() for _ in range(3)]
        merged = merge_snapshots(snaps)
        assert validate_snapshot(merged) == []
        names = [s["name"] for s in merged["metrics"]["counters"]]
        assert names == sorted(names)

    def test_merge_is_deterministic_in_input_order(self):
        a = _sample_registry(1, 2.0).snapshot()
        b = _sample_registry(4, 1.0).snapshot()
        assert merge_snapshots([a, b])["metrics"] == merge_snapshots([a, b])["metrics"]


class TestReconcileShards:
    def _snapshot(self, shards, cells):
        obs = Instrumentation(clock=DeterministicClock())
        obs.registry.counter("parallel_shards_total").inc(shards)
        obs.registry.counter("parallel_cells_total").inc(cells)
        return obs.snapshot()

    def test_accepts_matching_counts(self):
        assert reconcile_shards(self._snapshot(3, 6), 3, 6) == []

    def test_flags_count_mismatches(self):
        assert reconcile_shards(self._snapshot(2, 6), 3, 6)
        assert reconcile_shards(self._snapshot(3, 5), 3, 6)


def _echo_worker(task):
    # Module-level so the process backend can pickle it by reference.
    return {"shard": task["shard"].index, "value": task["value"] * 2}


def _shared_worker(task, shared):
    return {"shard": task["shard"].index, "value": task["value"] + shared["offset"]}


def _boom_worker(task):
    raise RuntimeError("shard failed")


class TestRunShards:
    def _tasks(self):
        shards = plan_shards(PARADIGMS, (1, 2), group_by="cell")
        return [{"shard": s, "value": s.index} for s in shards]

    def test_all_backends_agree_in_plan_order(self):
        serial = run_shards(self._tasks(), _echo_worker, ParallelConfig(n_workers=1))
        auto = run_shards(self._tasks(), _echo_worker, ParallelConfig(n_workers=2))
        procs = run_shards(
            self._tasks(), _echo_worker, ParallelConfig(n_workers=2, backend="process")
        )
        assert serial == auto == procs
        assert [r["shard"] for r in serial] == list(range(6))

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_shared_context_reaches_every_worker(self, backend):
        results = run_shards(
            self._tasks(),
            _shared_worker,
            ParallelConfig(n_workers=2, backend=backend),
            shared={"offset": 100},
        )
        assert [r["value"] for r in results] == [100 + i for i in range(6)]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_worker_errors_propagate(self, backend):
        with pytest.raises(RuntimeError, match="shard failed"):
            run_shards(
                self._tasks(), _boom_worker, ParallelConfig(n_workers=1, backend=backend)
            )

    def test_worker_errors_propagate_from_process_pool(self):
        with pytest.raises(RuntimeError, match="shard failed"):
            run_shards(
                self._tasks(),
                _boom_worker,
                ParallelConfig(n_workers=2, backend="process"),
            )
