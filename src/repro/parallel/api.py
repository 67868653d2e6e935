"""Unified sweep entry point: one spec, three kinds, sharded.

:func:`run_sweep` is the single calling convention behind the
repository's three measurement grids — the Table-I comparison
(``kind="comparison"``), the fault-robustness sweep
(``kind="robustness"``) and the streaming overload sweep
(``kind="streaming"``).  A :class:`SweepSpec` names the grid (paradigm
factories × conditions), the seeds, the instrumentation and the
``parallel=`` knob; the executor plans deterministic shards
(:func:`~repro.parallel.sharding.plan_shards`), runs them serially or
on a persistent forked process pool, and folds per-shard results and
observability snapshots into one reconciled :class:`SweepResult`.

Determinism contract: with the default per-shard instrumentation, the
results **and** the merged snapshot are byte-identical for any
``n_workers`` — the shard plan ignores the worker count, every shard
seeds and times itself (:class:`~repro.parallel.merge.DeterministicClock`)
from its grid position alone, and the merge runs in shard-plan order.
Every sweep of the repository runs through :func:`run_sweep`;
:func:`repro.core.comparison.run_comparison` stays as the plain serial
loop the comparison results are checked against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.comparison import PARADIGMS, assemble_comparison, measure_paradigm
from ..core.presets import default_configs, make_pipeline
from ..observability import Instrumentation
from .merge import DeterministicClock, merge_snapshots, reconcile_shards
from .sharding import ParallelConfig, Shard, plan_shards, run_shards

__all__ = ["SweepSpec", "SweepResult", "run_sweep"]

logger = logging.getLogger(__name__)

# Sweep kind → the ``SweepSpec.options`` keys it accepts.
_OPTIONS = {
    "comparison": (),
    "robustness": ("fault_profile", "checkpoint_dir"),
    "streaming": (
        "fallbacks",
        "service_models",
        "shed_policy",
        "breaker_policy",
        "queue_capacity",
    ),
}


def _write_state(state_path: Path, digest: str, done: Mapping[str, Any]) -> None:
    """Atomically persist sweep resume state (tmp file + rename).

    The points are stored with the :func:`_spec_digest` of the spec that
    produced them.  A crash mid-write leaves the previous checkpoint
    intact instead of a truncated JSON file that a resume would then
    have to discard.
    """
    state_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = state_path.with_name(f"{state_path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps({"digest": digest, "points": done}))
        os.replace(tmp, state_path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _load_state(state_path: Path, digest: str) -> dict[str, dict[str, Any]] | None:
    """Finished points of an earlier run of the same spec, or None.

    None means nothing in the directory can be trusted: no state file,
    an unreadable or malformed one (killed writer, bad disk), or one
    written for a different spec.  The caller then redoes every point
    and refits every model.  All but the first case are logged; none is
    surfaced as a ``JSONDecodeError``.
    """
    if not state_path.exists():
        return None
    try:
        state = json.loads(state_path.read_text())
    except (ValueError, OSError) as exc:
        problem = f"unreadable: {exc}"
    else:
        if not isinstance(state, dict) or not isinstance(state.get("points"), dict):
            problem = "malformed"
        elif state.get("digest") != digest:
            problem = "written for a different spec"
        else:
            return state["points"]
    logger.warning(
        "ignoring sweep state %s (%s); redoing its points and refitting "
        "its models",
        state_path,
        problem,
    )
    return None


def _factory_repr(factory: Any) -> str:
    """A description of a pipeline factory that is stable across runs.

    Configs are dataclasses and describe themselves; a pipeline
    instance's default repr carries its address, so it is described by
    its class and its public settings instead.
    """
    if not hasattr(factory, "fit"):
        return repr(factory)
    settings = sorted(
        (key, value)
        for key, value in vars(factory).items()
        if not key.startswith("_") and key != "model"
    )
    return f"{type(factory).__name__}{settings!r}"


def _spec_digest(
    factories: Mapping[str, Any],
    train: Any,
    test: Any,
    severities: Sequence[float],
    fault_profile: Any,
) -> str:
    """SHA-256 over what a robustness sweep's points and models depend on.

    The pipeline factories, the fault model of every severity and the
    train/test events and labels (the seed already selects the state
    directory).
    """
    digest = hashlib.sha256()
    for name in PARADIGMS:
        digest.update(f"{name}={_factory_repr(factories[name])}\0".encode())
    for severity in severities:
        digest.update(f"{severity!r}={fault_profile(severity)!r}\0".encode())
    for dataset in (train, test):
        digest.update(f"dataset of {len(dataset)}\0".encode())
        for sample in dataset:
            stream = sample.stream
            digest.update(
                f"{sample.label} {stream.resolution!r} {len(stream)}\0".encode()
            )
            for column in (stream.t, stream.x, stream.y, stream.p):
                digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


@dataclass
class SweepSpec:
    """One description for every paradigm-grid measurement.

    Attributes:
        kind: ``"comparison"``, ``"robustness"`` or ``"streaming"``.
        train / test: the dataset split (comparison and robustness).
        stream: the workload stream (streaming).
        window_us: streaming window length.
        conditions: the swept grid columns — replication seeds for
            comparison (empty = one run per paradigm as configured),
            fault severities for robustness, load factors for
            streaming.
        pipelines: paradigm name → factory.  Config dataclasses
            (:mod:`repro.core.presets`) work on every backend;
            pipeline instances / predictor callables work on the
            serial backend but not on the process backend, which
            needs picklable, re-constructible descriptions.  None
            selects the paradigm defaults of the kind.
        temporal_labels: comparison-only; labels distinguishable only
            through event timing.
        seed: master seed of the sweep.
        options: kind-specific extras — robustness:
            ``fault_profile``, ``checkpoint_dir`` (resume state and
            models go to its ``seed-{seed}`` subdirectory, and are
            reused only by a spec with the same pipelines, fault
            profile and data); streaming: ``fallbacks``,
            ``service_models``, ``shed_policy``, ``breaker_policy``,
            ``queue_capacity``; comparison takes none.  Any other key
            raises ``ValueError``.
        parallel: sharded-execution knobs.
        instrumentation: optional user-owned
            :class:`~repro.observability.Instrumentation` shared by
            every shard — serial backend only.  When None (the
            default) each shard records into its own
            deterministically-clocked instrumentation and the merged
            snapshot lands in :attr:`SweepResult.snapshot`.
    """

    kind: str
    train: Any = None
    test: Any = None
    stream: Any = None
    window_us: int = 10_000
    conditions: Sequence[Any] = ()
    pipelines: Mapping[str, Any] | None = None
    temporal_labels: tuple[int, ...] = ()
    seed: int = 0
    options: dict[str, Any] = field(default_factory=dict)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    instrumentation: Instrumentation | None = None


@dataclass
class SweepResult:
    """Everything one :func:`run_sweep` call produced.

    Attributes:
        kind: the spec's kind.
        result: the kind's native result object —
            :class:`~repro.core.comparison.ComparisonResult` (or a
            list of them, one per condition),
            :class:`~repro.reliability.sweep.RobustnessSweepResult` or
            :class:`~repro.streaming.sweep.StreamingSweepResult` —
            byte-identical across backends and worker counts.
        snapshot: the reconciled observability snapshot (passes
            ``validate_snapshot`` and the shard-count invariants).
        num_shards: shard-plan size.
        num_cells: total grid cells.
    """

    kind: str
    result: Any
    snapshot: dict[str, Any]
    num_shards: int
    num_cells: int


# ----------------------------------------------------------------------
# Shard workers (module-level: picklable by reference for the pool)
# ----------------------------------------------------------------------
def _shard_obs(
    task: dict[str, Any],
) -> tuple[Instrumentation, bool, DeterministicClock | None]:
    """The shard's observability sink and whether this shard owns it.

    Owned sinks run on a :class:`DeterministicClock` (also returned, so
    shard work can time itself off the same virtual clock), making the
    spans and duration histograms a shard emits depend only on its
    work — the backbone of serial/parallel byte-identity.  A shared
    user-owned sink keeps the wall clock (None is returned).  Every
    shard books itself into the shard-count invariants either way.
    """
    shared = task.get("shared_obs")
    clock = None if shared is not None else DeterministicClock()
    obs = shared if shared is not None else Instrumentation(clock=clock)
    shard: Shard = task["shard"]
    obs.registry.counter(
        "parallel_shards_total", help="work shards executed"
    ).inc()
    obs.registry.counter(
        "parallel_cells_total", help="grid cells executed"
    ).inc(len(shard.cells))
    return obs, shared is None, clock


def _materialise(factory: Any, condition: Any = None):
    """Turn a pipeline factory (config or instance) into an instance."""
    if hasattr(factory, "fit"):  # already a pipeline instance
        if condition is not None:
            raise ValueError(
                "replicating over conditions requires config dataclasses "
                "(repro.core.presets), not pipeline instances"
            )
        return factory
    config = factory
    if condition is not None:
        config = dataclasses.replace(config, seed=int(condition))
    return make_pipeline(config)


def _execute_shard(
    task: dict[str, Any], shared: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Run one shard (any kind); the worker-pool entry point.

    ``task`` is the small per-shard payload; ``shared`` the heavy
    context common to every shard of the sweep (datasets, factories),
    passed by reference on the serial backend and shipped once as a
    blob on the process backend.
    """
    if shared is not None:
        task = {**shared, **task}
    kind = task["kind"]
    if kind == "comparison":
        return _comparison_shard(task)
    if kind == "robustness":
        return _robustness_shard(task)
    if kind == "streaming":
        return _streaming_shard(task)
    raise ValueError(f"unknown shard kind {kind!r}")


def _comparison_shard(task: dict[str, Any]) -> dict[str, Any]:
    """One comparison cell: construct, fit and measure one pipeline."""
    obs, own, _ = _shard_obs(task)
    cells = []
    for cell in task["shard"].cells:
        pipeline = _materialise(task["pipelines"][cell.paradigm], cell.condition)
        pipeline.instrument(obs)
        metrics = measure_paradigm(
            pipeline, task["train"], task["test"], task["temporal_labels"]
        )
        cells.append((cell.paradigm, cell.condition, metrics))
    return {
        "snapshot": obs.snapshot() if own else None,
        "cells": cells,
    }


def _robustness_shard(task: dict[str, Any]) -> dict[str, Any]:
    """One robustness row: fit one paradigm, evaluate every severity."""
    from ..reliability.sweep import run_paradigm_curve

    obs, own, clock = _shard_obs(task)
    shard: Shard = task["shard"]
    name = shard.cells[0].paradigm
    pipeline = _materialise(task["pipelines"][name])

    state_path = task["state_path"]  # serial backend only: incremental writes
    done = task["done"]
    fresh: dict[str, dict[str, Any]] = {}

    def on_point(key: str, point) -> None:
        fresh[key] = point.to_dict()
        if state_path is not None:
            done[key] = fresh[key]
            _write_state(state_path, task["digest"], done)

    points = run_paradigm_curve(
        name,
        pipeline,
        task["train"],
        task["test"],
        severities=[c.condition for c in shard.cells],
        seed=task["seed"],
        fault_profile=task["fault_profile"],
        checkpoint_dir=task["checkpoint_dir"],
        instrumentation=obs,
        done=done,
        on_point=on_point,
        clock=clock,
    )
    return {
        "snapshot": obs.snapshot() if own else None,
        "paradigm": name,
        "points": points,
        "fresh": fresh,
    }


def _streaming_shard(task: dict[str, Any]) -> dict[str, Any]:
    """One streaming row: run one paradigm across every load factor."""
    from ..streaming.sweep import run_paradigm_stream

    obs, own, _ = _shard_obs(task)
    shard: Shard = task["shard"]
    name = shard.cells[0].paradigm
    with obs.tracer.span(f"stream.{name}"):
        points = run_paradigm_stream(
            name,
            task["predictor"],
            task["stream"],
            task["window_us"],
            load_factors=[c.condition for c in shard.cells],
            fallbacks=task["fallbacks"],
            service=task["service"],
            shed_policy=task["shed_policy"],
            breaker_policy=task["breaker_policy"],
            queue_capacity=task["queue_capacity"],
            seed=task["seed"],
        )
    return {
        "snapshot": obs.snapshot() if own else None,
        "paradigm": name,
        "points": points,
    }


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _normalise_factories(
    spec: SweepSpec, backend: str, label: str, defaults: Mapping[str, Any]
) -> dict[str, Any]:
    """Validate and resolve the per-paradigm factories of a spec."""
    factories = dict(spec.pipelines) if spec.pipelines is not None else dict(defaults)
    if set(factories) != set(PARADIGMS):
        raise ValueError(f"{label} must cover exactly {PARADIGMS}")
    if backend == "process" and spec.kind != "streaming":
        for name, factory in factories.items():
            if hasattr(factory, "fit"):
                raise ValueError(
                    f"the process backend needs picklable config dataclasses "
                    f"(repro.core.presets), but {label}[{name!r}] is a "
                    f"pipeline instance — pass its config or use the "
                    f"serial backend"
                )
    return factories


def _collect(
    spec: SweepSpec,
    shards: tuple[Shard, ...],
    tasks: list[dict[str, Any]],
    parallel: ParallelConfig,
    shared: dict[str, Any],
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Run the shard plan and reconcile the merged snapshot."""
    outs = run_shards(tasks, _execute_shard, parallel, shared=shared)
    if spec.instrumentation is not None:
        snapshot = spec.instrumentation.snapshot()
    else:
        snapshot = merge_snapshots([out["snapshot"] for out in outs])
    num_cells = sum(len(s.cells) for s in shards)
    problems = reconcile_shards(snapshot, len(shards), num_cells)
    if problems:
        raise RuntimeError(
            "merged snapshot failed reconciliation: " + "; ".join(problems)
        )
    return outs, snapshot


def _run_comparison(spec: SweepSpec, parallel: ParallelConfig) -> SweepResult:
    backend = parallel.resolve()
    factories = _normalise_factories(
        spec, backend, "pipelines", default_configs(spec.seed)
    )
    conditions = tuple(spec.conditions)
    shards = plan_shards(PARADIGMS, conditions, group_by="cell")
    shared = {
        "kind": "comparison",
        "shared_obs": spec.instrumentation,
        "pipelines": factories,
        "train": spec.train,
        "test": spec.test,
        "temporal_labels": tuple(spec.temporal_labels),
    }
    tasks = [{"shard": shard} for shard in shards]
    outs, snapshot = _collect(spec, shards, tasks, parallel, shared)

    measured = [cell for out in outs for cell in out["cells"]]
    if conditions:
        by_condition: dict[Any, dict[str, Any]] = {c: {} for c in conditions}
        for name, condition, metrics in measured:
            by_condition[condition][name] = metrics
        result: Any = [assemble_comparison(by_condition[c]) for c in conditions]
    else:
        result = assemble_comparison(
            {name: metrics for name, _, metrics in measured}
        )
    return SweepResult(
        kind="comparison",
        result=result,
        snapshot=snapshot,
        num_shards=len(shards),
        num_cells=sum(len(s.cells) for s in shards),
    )


def _run_robustness(spec: SweepSpec, parallel: ParallelConfig) -> SweepResult:
    from ..reliability.sweep import (
        RobustnessSweepResult,
        default_fault_profile,
        _model_path,
    )

    backend = parallel.resolve()
    severities = tuple(float(s) for s in spec.conditions)
    if not severities:
        raise ValueError("severities must not be empty")
    if list(severities) != sorted(severities):
        raise ValueError("severities must be ascending")
    factories = _normalise_factories(
        spec, backend, "pipelines", default_configs(spec.seed)
    )

    options = spec.options
    fault_profile = options.get("fault_profile", default_fault_profile)
    checkpoint_dir = options.get("checkpoint_dir")
    # Points and models depend on the seed, so each seed resumes from
    # its own subdirectory and never picks up another seed's state.
    checkpoint_dir = (
        Path(checkpoint_dir) / f"seed-{spec.seed}" if checkpoint_dir else None
    )
    state_path = checkpoint_dir / "sweep_state.json" if checkpoint_dir else None
    digest = done = None
    if state_path is not None:
        digest = _spec_digest(
            factories, spec.train, spec.test, severities, fault_profile
        )
        done = _load_state(state_path, digest)
        if done is None:
            # Models left here were fitted for another (or an unknown)
            # spec: drop them so the shards refit, and claim the
            # directory for this spec before any new model lands in it.
            for name in PARADIGMS:
                _model_path(checkpoint_dir, name).unlink(missing_ok=True)
            done = {}
            _write_state(state_path, digest, done)

    shards = plan_shards(PARADIGMS, severities, group_by="paradigm")
    shared = {
        "kind": "robustness",
        "shared_obs": spec.instrumentation,
        "pipelines": factories,
        "train": spec.train,
        "test": spec.test,
        "seed": spec.seed,
        "fault_profile": fault_profile,
        "checkpoint_dir": checkpoint_dir,
        # Incremental state writes only in-process; pool workers
        # return their fresh points and the coordinator persists
        # atomically below.
        "state_path": state_path if backend == "serial" else None,
        "digest": digest,
        "done": done,
    }
    tasks = [{"shard": shard} for shard in shards]
    outs, snapshot = _collect(spec, shards, tasks, parallel, shared)

    result = RobustnessSweepResult(severities=severities, seed=spec.seed)
    for out in outs:
        result.curves[out["paradigm"]] = out["points"]
    if state_path is not None and any(out["fresh"] for out in outs):
        for out in outs:
            done.update(out["fresh"])
        _write_state(state_path, digest, done)
    return SweepResult(
        kind="robustness",
        result=result,
        snapshot=snapshot,
        num_shards=len(shards),
        num_cells=sum(len(s.cells) for s in shards),
    )


def _run_streaming(spec: SweepSpec, parallel: ParallelConfig) -> SweepResult:
    from ..streaming.sweep import (
        CAPACITY_HEADROOM,
        StreamingSweepResult,
        _default_predictors,
        calibrate_service,
    )

    backend = parallel.resolve()
    load_factors = tuple(float(f) for f in spec.conditions)
    if not load_factors:
        raise ValueError("load_factors must not be empty")
    if list(load_factors) != sorted(load_factors):
        raise ValueError("load_factors must be ascending")
    predictors = _normalise_factories(
        spec, backend, "predictors", _default_predictors()
    )

    options = spec.options
    fallbacks = options.get("fallbacks")
    service_models = options.get("service_models")
    shards = plan_shards(PARADIGMS, load_factors, group_by="paradigm")
    shared = {
        "kind": "streaming",
        "shared_obs": spec.instrumentation,
        "stream": spec.stream,
        "window_us": int(spec.window_us),
        "shed_policy": options.get("shed_policy"),
        "breaker_policy": options.get("breaker_policy"),
        "queue_capacity": options.get("queue_capacity", 16),
        "seed": spec.seed,
    }
    tasks = []
    for shard in shards:
        name = shard.cells[0].paradigm
        tasks.append(
            {
                "shard": shard,
                "predictor": predictors[name],
                "fallbacks": (
                    tuple(fallbacks.get(name, ())) if fallbacks else ()
                ),
                "service": (
                    service_models[name]
                    if service_models is not None
                    else calibrate_service(
                        spec.stream, int(spec.window_us), CAPACITY_HEADROOM[name]
                    )
                ),
            }
        )
    outs, snapshot = _collect(spec, shards, tasks, parallel, shared)

    result = StreamingSweepResult(
        load_factors=load_factors, window_us=int(spec.window_us), seed=spec.seed
    )
    for out in outs:
        result.curves[out["paradigm"]] = out["points"]
    return SweepResult(
        kind="streaming",
        result=result,
        snapshot=snapshot,
        num_shards=len(shards),
        num_cells=sum(len(s.cells) for s in shards),
    )


def run_sweep(spec: SweepSpec, parallel: ParallelConfig | None = None) -> SweepResult:
    """Execute one sweep spec on the sharded executor.

    Args:
        spec: the grid description (see :class:`SweepSpec`).
        parallel: overrides ``spec.parallel`` when given.

    Returns:
        The reconciled :class:`SweepResult`.  For any fixed spec the
        ``result`` and (with per-shard instrumentation) the
        ``snapshot`` are byte-identical across backends and worker
        counts.

    Raises:
        ValueError: before any shard runs, on an unknown kind, an
            ``options`` key the kind does not accept, a missing
            ``train``/``test`` (comparison, robustness) or ``stream``
            (streaming), an invalid grid, a shared ``instrumentation``
            combined with the process backend, or pipeline instances
            on the process backend.
        RuntimeError: when the merged snapshot fails reconciliation or
            a pipeline fails to fit.
    """
    if spec.kind not in _OPTIONS:
        raise ValueError(f"kind must be one of {tuple(_OPTIONS)}, got {spec.kind!r}")
    accepted = _OPTIONS[spec.kind]
    unknown = sorted(set(spec.options) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown {spec.kind} options {unknown}; accepted keys: "
            f"{list(accepted) if accepted else 'none'}"
        )
    required = ("stream",) if spec.kind == "streaming" else ("train", "test")
    missing = [name for name in required if getattr(spec, name) is None]
    if missing:
        raise ValueError(f"a {spec.kind} sweep needs {' and '.join(missing)}")
    parallel = parallel if parallel is not None else spec.parallel
    if spec.instrumentation is not None and parallel.resolve() != "serial":
        raise ValueError(
            "a shared instrumentation requires the serial backend "
            "(n_workers=1); per-shard instrumentation is merged "
            "automatically when instrumentation is None"
        )
    if spec.kind == "comparison":
        return _run_comparison(spec, parallel)
    if spec.kind == "robustness":
        return _run_robustness(spec, parallel)
    return _run_streaming(spec, parallel)
