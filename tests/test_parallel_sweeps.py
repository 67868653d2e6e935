"""End-to-end tests of the unified sweep API (repro.parallel.api).

The acceptance criterion of the sharded executor: for every sweep kind
(comparison, robustness, streaming) the results AND the merged
observability snapshot are byte-identical across worker counts
{1, 2, 4}; the comparison matches the plain serial ``run_comparison``
loop; bad input fails before any shard runs; the frozen config
dataclasses construct pipelines identical to the positional keyword
API.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    CNNPipeline,
    GNNConfig,
    GNNPipeline,
    SNNConfig,
    SNNPipeline,
    make_pipeline,
    run_comparison,
)
from repro.datasets import make_shapes_dataset, train_test_split
from repro.events import Resolution
from repro.observability import Instrumentation, to_json
from repro.parallel import ParallelConfig, SweepSpec, reconcile_shards, run_sweep
from repro.reliability import UniformDrop
from repro.streaming.sweep import make_bursty_stream

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def split():
    ds = make_shapes_dataset(num_per_class=3, resolution=Resolution(16, 16), seed=3)
    return train_test_split(ds, 0.4, np.random.default_rng(0))


@pytest.fixture(scope="module")
def configs():
    return {
        "SNN": SNNConfig(num_steps=6, hidden=8, epochs=2),
        "CNN": CNNConfig(base_width=4, epochs=2),
        "GNN": GNNConfig(max_events=60, hidden=6, epochs=2),
    }


@pytest.fixture(scope="module")
def stream():
    return make_bursty_stream(
        resolution=Resolution(16, 16), num_windows=30, seed=5
    )


@pytest.fixture(scope="module")
def comparison_runs(split, configs):
    train, test = split
    runs = {}
    for n in WORKER_COUNTS:
        spec = SweepSpec(
            kind="comparison",
            train=train,
            test=test,
            pipelines=configs,
            parallel=ParallelConfig(n_workers=n),
        )
        runs[n] = run_sweep(spec)
    # ``auto`` resolves to serial on a single-CPU host, so the forked
    # pool is also exercised explicitly, whatever the host.
    runs["process"] = run_sweep(
        SweepSpec(
            kind="comparison",
            train=train,
            test=test,
            pipelines=configs,
            parallel=ParallelConfig(n_workers=4, backend="process"),
        )
    )
    return runs


@pytest.fixture(scope="module")
def robustness_runs(split, configs):
    train, test = split
    runs = {}
    for n in WORKER_COUNTS:
        spec = SweepSpec(
            kind="robustness",
            train=train,
            test=test,
            conditions=(0.0, 0.4),
            pipelines=configs,
            seed=0,
            parallel=ParallelConfig(n_workers=n),
        )
        runs[n] = run_sweep(spec)
    return runs


@pytest.fixture(scope="module")
def streaming_runs(stream):
    runs = {}
    for n in WORKER_COUNTS:
        spec = SweepSpec(
            kind="streaming",
            stream=stream,
            window_us=10_000,
            conditions=(0.5, 2.0),
            seed=0,
            parallel=ParallelConfig(n_workers=n),
        )
        runs[n] = run_sweep(spec)
    return runs


def _comparison_bytes(result):
    return repr({name: vars(m) for name, m in sorted(result.metrics.items())})


def _curve_bytes(result):
    return repr(
        {k: [p.to_dict() for p in v] for k, v in sorted(result.curves.items())}
    )


class TestComparisonBitIdentity:
    def test_results_identical_across_worker_counts(self, comparison_runs):
        reference = _comparison_bytes(comparison_runs[1].result)
        for n in WORKER_COUNTS[1:]:
            assert _comparison_bytes(comparison_runs[n].result) == reference

    def test_matches_serial_reference_loop(self, split, configs, comparison_runs):
        train, test = split
        reference = run_comparison(train, test, pipelines=dict(configs))
        assert _comparison_bytes(comparison_runs[1].result) == _comparison_bytes(
            reference
        )

    def test_snapshots_byte_identical(self, comparison_runs):
        reference = to_json(comparison_runs[1].snapshot)
        for n in WORKER_COUNTS[1:]:
            assert to_json(comparison_runs[n].snapshot) == reference

    def test_merged_snapshot_reconciles(self, comparison_runs):
        for res in comparison_runs.values():
            assert (
                reconcile_shards(res.snapshot, res.num_shards, res.num_cells) == []
            )

    def test_explicit_process_backend_matches_serial(self, comparison_runs):
        serial, process = comparison_runs[1], comparison_runs["process"]
        assert _comparison_bytes(process.result) == _comparison_bytes(
            serial.result
        )
        assert to_json(process.snapshot) == to_json(serial.snapshot)

    def test_shard_plan_shape(self, comparison_runs):
        res = comparison_runs[1]
        assert res.num_shards == 3
        assert res.num_cells == 3

    def test_condition_replication_over_seeds(self, split, configs):
        train, test = split
        spec = SweepSpec(
            kind="comparison",
            train=train,
            test=test,
            conditions=(0, 1),
            pipelines=configs,
            parallel=ParallelConfig(n_workers=2),
        )
        res = run_sweep(spec)
        assert isinstance(res.result, list) and len(res.result) == 2
        assert res.num_cells == 6


class TestRobustnessBitIdentity:
    def test_curves_identical_across_worker_counts(self, robustness_runs):
        reference = _curve_bytes(robustness_runs[1].result)
        for n in WORKER_COUNTS[1:]:
            assert _curve_bytes(robustness_runs[n].result) == reference

    def test_snapshots_byte_identical(self, robustness_runs):
        reference = to_json(robustness_runs[1].snapshot)
        for n in WORKER_COUNTS[1:]:
            assert to_json(robustness_runs[n].snapshot) == reference

    def test_merged_snapshot_reconciles(self, robustness_runs):
        for res in robustness_runs.values():
            assert (
                reconcile_shards(res.snapshot, res.num_shards, res.num_cells) == []
            )


class TestStreamingBitIdentity:
    def test_curves_identical_across_worker_counts(self, streaming_runs):
        reference = _curve_bytes(streaming_runs[1].result)
        for n in WORKER_COUNTS[1:]:
            assert _curve_bytes(streaming_runs[n].result) == reference

    def test_snapshots_byte_identical(self, streaming_runs):
        reference = to_json(streaming_runs[1].snapshot)
        for n in WORKER_COUNTS[1:]:
            assert to_json(streaming_runs[n].snapshot) == reference


def _drop_only_profile(severity):
    return UniformDrop(probability=0.5 * severity) if severity else None


class TestResumeCrashSafety:
    def _spec(self, split, configs, checkpoint_dir):
        train, test = split
        return SweepSpec(
            kind="robustness",
            train=train,
            test=test,
            conditions=(0.0, 0.4),
            pipelines=configs,
            seed=0,
            options={"checkpoint_dir": checkpoint_dir},
            parallel=ParallelConfig(n_workers=1),
        )

    def test_truncated_state_file_resumes_cleanly(self, split, configs, tmp_path):
        first = run_sweep(self._spec(split, configs, tmp_path))
        state = tmp_path / "seed-0" / "sweep_state.json"
        assert state.exists()
        payload = state.read_text()
        # Simulate a writer killed mid-write: a truncated JSON document.
        state.write_text(payload[: len(payload) // 2])
        second = run_sweep(self._spec(split, configs, tmp_path))  # must not raise
        # The models cannot be trusted without the state, so they are
        # refitted; the measured curves are unchanged.
        for name in first.result.curves:
            assert first.result.accuracies(name) == second.result.accuracies(name)
        # State writes are tmp+rename; no stray temp files may survive.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_garbage_state_file_resumes_cleanly(self, split, configs, tmp_path):
        state = tmp_path / "seed-0" / "sweep_state.json"
        state.parent.mkdir(parents=True, exist_ok=True)
        state.write_text("[1, 2, 3]")  # valid JSON, wrong shape
        result = run_sweep(self._spec(split, configs, tmp_path))
        assert set(result.result.curves) == {"SNN", "CNN", "GNN"}

    def test_resume_ignores_other_seeds_state(self, split, configs, tmp_path):
        run_sweep(self._spec(split, configs, tmp_path))  # seed 0
        other = dataclasses.replace(self._spec(split, configs, tmp_path), seed=1)
        fresh = dataclasses.replace(other, options={})
        assert _curve_bytes(run_sweep(other).result) == _curve_bytes(
            run_sweep(fresh).result
        )

    def test_same_spec_resumes_every_point_and_model(
        self, split, configs, tmp_path
    ):
        first = run_sweep(self._spec(split, configs, tmp_path))
        obs = Instrumentation()
        resumed = run_sweep(
            dataclasses.replace(
                self._spec(split, configs, tmp_path), instrumentation=obs
            )
        )
        assert _curve_bytes(resumed.result) == _curve_bytes(first.result)
        assert obs.registry.counter_total("runner_records_total") == 0
        assert obs.registry.counter_total("pipeline_stage_calls_total") == 0

    def test_state_with_per_record_attempts_still_resumes(
        self, split, configs, tmp_path
    ):
        # State files written while the runner retried stages carry an
        # "attempts" count in every record and a "timeout" outcome count.
        first = run_sweep(self._spec(split, configs, tmp_path))
        state_path = tmp_path / "seed-0" / "sweep_state.json"
        state = json.loads(state_path.read_text())
        for point in state["points"].values():
            point["report"]["outcome_counts"]["timeout"] = 0
            for record in point["report"]["records"]:
                record["attempts"] = 1
        state_path.write_text(json.dumps(state))
        obs = Instrumentation()
        resumed = run_sweep(
            dataclasses.replace(
                self._spec(split, configs, tmp_path), instrumentation=obs
            )
        )
        assert _curve_bytes(resumed.result) == _curve_bytes(first.result)
        assert obs.registry.counter_total("runner_records_total") == 0

    @pytest.mark.parametrize("keep_state", [True, False], ids=["state", "no-state"])
    @pytest.mark.parametrize("change", ["pipelines", "fault_profile", "data"])
    def test_resume_after_different_spec_equals_fresh_run(
        self, split, configs, tmp_path, change, keep_state
    ):
        """Points and models of another spec are redone, not restored.

        Without the state file only the fitted models are left behind,
        and those must be refitted too.
        """
        run_sweep(self._spec(split, configs, tmp_path))
        if not keep_state:
            (tmp_path / "seed-0" / "sweep_state.json").unlink()
        other = self._spec(split, configs, tmp_path)
        if change == "pipelines":
            other.pipelines = {
                name: dataclasses.replace(config, epochs=config.epochs + 4)
                for name, config in configs.items()
            }
        elif change == "fault_profile":
            other.options["fault_profile"] = _drop_only_profile
        else:
            other.test = other.test.subset(range(len(other.test) - 1))
        fresh = dataclasses.replace(
            other,
            options={k: v for k, v in other.options.items() if k != "checkpoint_dir"},
        )
        assert _curve_bytes(run_sweep(other).result) == _curve_bytes(
            run_sweep(fresh).result
        )


class TestConfigConstructors:
    @pytest.mark.parametrize(
        "config,cls",
        [
            (SNNConfig(num_steps=6, hidden=8, epochs=2), SNNPipeline),
            (CNNConfig(base_width=4, epochs=2), CNNPipeline),
            (GNNConfig(max_events=60, hidden=6, epochs=2), GNNPipeline),
        ],
    )
    def test_from_config_matches_kwargs(self, config, cls):
        built = cls.from_config(config)
        direct = cls(**config.kwargs())
        assert type(built) is cls
        for key, value in config.kwargs().items():
            assert getattr(direct, key) == getattr(built, key)

    def test_make_pipeline_dispatch(self):
        assert isinstance(make_pipeline(SNNConfig()), SNNPipeline)
        assert isinstance(make_pipeline(CNNConfig()), CNNPipeline)
        assert isinstance(make_pipeline(GNNConfig()), GNNPipeline)
        with pytest.raises(ValueError, match="not a pipeline config"):
            make_pipeline(object())

    def test_existing_kwargs_keep_working(self):
        legacy = SNNPipeline(num_steps=6, hidden=8, epochs=2, seed=4)
        assert legacy.num_steps == 6 and legacy.seed == 4


class TestValidation:
    def test_shared_instrumentation_requires_serial(self, split, configs):
        train, test = split
        spec = SweepSpec(
            kind="comparison",
            train=train,
            test=test,
            pipelines=configs,
            instrumentation=Instrumentation(),
            parallel=ParallelConfig(n_workers=2),
        )
        with pytest.raises(ValueError, match="serial backend"):
            run_sweep(spec)

    def test_instances_rejected_on_process_backend(self, split):
        train, test = split
        spec = SweepSpec(
            kind="comparison",
            train=train,
            test=test,
            pipelines={
                "SNN": SNNPipeline(epochs=1),
                "CNN": CNNPipeline(epochs=1),
                "GNN": GNNPipeline(epochs=1),
            },
            parallel=ParallelConfig(n_workers=2, backend="process"),
        )
        with pytest.raises(ValueError, match="config dataclasses"):
            run_sweep(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            run_sweep(SweepSpec(kind="ablation"))

    @pytest.mark.parametrize(
        "kind,override,match",
        [
            ("streaming", {"options": {"queue_capacty": 1}}, "queue_capacity"),
            ("robustness", {"options": {"fault_profle": None}}, "fault_profile"),
            ("comparison", {"options": {"fault_profile": None}}, "keys: none"),
            ("comparison", {"train": None}, "needs train"),
            ("comparison", {"test": None}, "needs test"),
            ("robustness", {"train": None, "test": None}, "needs train and test"),
            ("streaming", {"stream": None}, "needs stream"),
        ],
    )
    def test_bad_input_fails_before_any_shard(
        self, split, configs, stream, monkeypatch, kind, override, match
    ):
        from repro.parallel import api

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran before validation")

        monkeypatch.setattr(api, "run_shards", no_shards)
        train, test = split
        valid = {
            "comparison": {"train": train, "test": test, "pipelines": configs},
            "robustness": {
                "train": train,
                "test": test,
                "conditions": (0.0,),
                "pipelines": configs,
            },
            "streaming": {"stream": stream, "conditions": (1.0,)},
        }[kind]
        with pytest.raises(ValueError, match=match):
            run_sweep(SweepSpec(kind=kind, **{**valid, **override}))
