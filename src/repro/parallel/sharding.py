"""Deterministic work sharding over (paradigm × condition) grids.

A sweep is a grid of cells — one (paradigm, condition) evaluation each
— and this module splits that grid into :class:`Shard`\\ s and runs them
on a backend.  Two properties make parallel runs byte-identical to
serial ones:

* **worker-count independence** — the shard plan depends only on the
  grid (:func:`plan_shards` never sees ``n_workers``), so the same grid
  always produces the same shards in the same order, whether they run
  on one process or eight;
* **per-shard seeding** — every randomised quantity inside a shard is
  seeded from the spec (its master seed or pipeline configs) and the
  cell's own paradigm and condition, never from execution order or
  wall time.

Backends: ``"serial"`` runs shards in-process in plan order (the
reference every other backend must match byte for byte);
``"process"`` fans them out on a persistent forked
``ProcessPoolExecutor`` that is spawned once and reused across sweeps.
``"auto"`` picks ``serial`` for one worker, on a single-CPU machine or
where fork is unavailable (a pool would only add spawn + pickle
overhead there, or cannot start), and ``process`` otherwise.

For the process backend, heavy per-sweep context (datasets, pipeline
configs) is pickled **once** into a shared blob handed to every task;
each pool child unpickles it on first use and caches it by token, so
per-shard submissions carry only the small shard descriptor.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "Cell",
    "Shard",
    "ParallelConfig",
    "plan_shards",
    "run_shards",
    "shutdown_pools",
]

_BACKENDS = ("auto", "serial", "process")


@dataclass(frozen=True)
class Cell:
    """One grid cell: a (paradigm, condition) evaluation.

    Attributes:
        paradigm: pipeline name ("SNN" / "CNN" / "GNN").
        condition: the swept value (severity, load factor, seed), or
            None for single-condition grids.
        index: position in the flattened paradigm-major grid — the
            seed-derivation anchor, independent of sharding.
    """

    paradigm: str
    condition: Any = None
    index: int = 0


@dataclass(frozen=True)
class Shard:
    """A deterministic slice of the grid, executed by one worker.

    Attributes:
        index: position in the shard plan (merge order).
        cells: the grid cells of this shard, in grid order.
    """

    index: int
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class ParallelConfig:
    """Execution knobs of the sharded executor.

    Attributes:
        n_workers: worker-pool width; 1 means serial.
        backend: ``"serial"``, ``"process"``, or ``"auto"`` — serial
            for one worker, on one CPU or without fork, processes
            otherwise.
    """

    n_workers: int = 1
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")

    def resolve(self) -> str:
        """The concrete backend this configuration runs on."""
        if self.backend != "auto":
            return self.backend
        if (
            self.n_workers <= 1
            or (os.cpu_count() or 1) <= 1
            or _fork_context() is None
        ):
            return "serial"
        return "process"


def plan_shards(
    paradigms: Sequence[str],
    conditions: Sequence[Any] = (),
    group_by: str = "paradigm",
) -> tuple[Shard, ...]:
    """Split a (paradigm × condition) grid into deterministic shards.

    The plan is a pure function of the grid — never of the worker
    count — which is the invariant behind serial/parallel
    byte-identity: per-shard state (instrumentation, seeds) is
    identical no matter how many workers drain the plan.

    Args:
        paradigms: grid rows, in canonical order.
        conditions: grid columns (empty = one unconditioned cell per
            paradigm).
        group_by: ``"paradigm"`` keeps a whole row in one shard (for
            sweeps that train once per paradigm and evaluate every
            condition on the fitted model); ``"cell"`` makes every
            cell its own shard (for grids whose cells are independent
            fit+measure runs).

    Returns:
        Shards in plan order, covering every cell exactly once.
    """
    if group_by not in ("paradigm", "cell"):
        raise ValueError("group_by must be 'paradigm' or 'cell'")
    cells: list[Cell] = []
    for name in paradigms:
        if conditions:
            for condition in conditions:
                cells.append(Cell(name, condition, index=len(cells)))
        else:
            cells.append(Cell(name, None, index=len(cells)))

    if group_by == "cell":
        return tuple(Shard(i, (cell,)) for i, cell in enumerate(cells))
    shards: list[Shard] = []
    for name in paradigms:
        row = tuple(c for c in cells if c.paradigm == name)
        shards.append(Shard(len(shards), row))
    return tuple(shards)


def _fork_context() -> multiprocessing.context.BaseContext | None:
    """The fork start-method context, or None where unavailable."""
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except ValueError:
        pass
    return None


_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()
_SHARED_TOKENS = itertools.count()

# Child-side cache of unpickled shared contexts, keyed by token.  Bounded
# so long-lived pool children do not pin every sweep's datasets.
_SHARED_CTX: OrderedDict[str, Any] = OrderedDict()
_SHARED_CTX_LIMIT = 4


def _process_pool(workers: int, context) -> ProcessPoolExecutor:
    """A persistent fork pool of the given width, spawned once and reused.

    Amortises pool start-up across sweep cells: the first sweep pays the
    fork cost, later sweeps submit straight into warm children.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            _POOLS[workers] = pool
        return pool


def _evict_pool(workers: int) -> None:
    with _POOLS_LOCK:
        pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every persistent process pool (idempotent).

    Registered atexit; callable explicitly by tests or long-running
    hosts that want to reclaim the workers early.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def _invoke_with_shared(worker, token: str, blob: bytes, task: Any) -> Any:
    """Pool-child trampoline: unpickle the shared context once per token."""
    ctx = _SHARED_CTX.get(token)
    if ctx is None:
        ctx = pickle.loads(blob)
        _SHARED_CTX[token] = ctx
        while len(_SHARED_CTX) > _SHARED_CTX_LIMIT:
            _SHARED_CTX.popitem(last=False)
    return worker(task, ctx)


def run_shards(
    tasks: Sequence[Any],
    worker: Callable[..., Any],
    parallel: ParallelConfig,
    shared: Any = None,
) -> list[Any]:
    """Execute one task per shard and return results in plan order.

    Args:
        tasks: per-shard payloads, in shard-plan order (picklable for
            the process backend).
        worker: module-level callable mapping a payload to a result
            (must be picklable by reference for the process backend).
            Called as ``worker(task)``, or ``worker(task, shared)``
            when a shared context is given.
        parallel: backend selection.
        shared: optional context common to every task.  The serial
            backend passes it by reference (zero copies); the process
            backend pickles it once into a blob that each pool child
            unpickles and caches, instead of re-pickling the heavy
            fields into every per-shard payload.

    Returns:
        Worker results, ordered like ``tasks`` regardless of
        completion order.  Worker exceptions propagate unchanged.
    """
    backend = parallel.resolve()
    context = _fork_context() if backend == "process" else None
    if backend == "process" and context is None:
        backend = "serial"  # no-fork-platform fallback
    if backend == "serial":
        if shared is None:
            return [worker(task) for task in tasks]
        return [worker(task, shared) for task in tasks]
    workers = min(parallel.n_workers, max(len(tasks), 1))
    pool = _process_pool(workers, context)
    if shared is None:
        futures = [pool.submit(worker, task) for task in tasks]
    else:
        token = f"{os.getpid()}:{next(_SHARED_TOKENS)}"
        blob = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        futures = [
            pool.submit(_invoke_with_shared, worker, token, blob, task)
            for task in tasks
        ]
    try:
        return [future.result() for future in futures]
    except BrokenProcessPool:
        # A dead child poisons the whole executor; drop it so the next
        # call gets a fresh pool instead of failing forever.
        _evict_pool(workers)
        raise
    except BaseException:
        for future in futures:
            future.cancel()
        raise
