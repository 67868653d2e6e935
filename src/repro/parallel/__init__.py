"""Sharded parallel execution of the paradigm sweeps.

The comparison, robustness and streaming grids are embarrassingly
parallel (paradigm × condition × recording).  This package runs all
three behind one API:

* :mod:`~repro.parallel.sharding` — deterministic work-shard planning
  (the plan depends only on the grid, never on the worker count) and
  two backends: serial (the reference) and a persistent forked process
  pool;
* :mod:`~repro.parallel.merge` — a deterministic fold of per-shard
  metrics, reports and observability snapshots into one reconciled
  result that passes ``validate_snapshot`` and the shard-count
  invariants;
* :mod:`~repro.parallel.api` — :class:`SweepSpec` / :func:`run_sweep`,
  the one entry point of every sweep.

Determinism contract: for any fixed spec, results and merged snapshots
are byte-identical across backends and worker counts.
"""

from .api import SweepResult, SweepSpec, run_sweep
from .merge import (
    DeterministicClock,
    merge_metrics,
    merge_snapshots,
    reconcile_shards,
)
from .sharding import (
    Cell,
    ParallelConfig,
    Shard,
    plan_shards,
    run_shards,
)

__all__ = [
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "ParallelConfig",
    "Cell",
    "Shard",
    "plan_shards",
    "run_shards",
    "DeterministicClock",
    "merge_metrics",
    "merge_snapshots",
    "reconcile_shards",
]
