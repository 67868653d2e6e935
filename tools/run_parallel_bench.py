#!/usr/bin/env python
"""Benchmark the sharded executor and append to BENCH_parallel.json.

Runs the same comparison grid through three legs — serial with cold
per-shard caches (the baseline), serial with the shared
representation-cache tier (``CacheConfig(shared=True)``), and the
forked process pool at 4 workers — verifies each leg against the
baseline, and appends one run record (timestamp, git revision, per-leg
wall times and speedups, CPU count, bit-identity flags, cold vs shared
cache stats) to the JSON trajectory file at the repository root.
Exits non-zero if any leg diverges from the baseline.

Bit-identity is leg-specific by design: the process leg must match the
serial results *and* the merged instrumentation snapshot byte for
byte; the shared-cache leg must match the serial results byte for
byte, while its snapshot legitimately drops the per-shard
``repr_cache_*`` counters (the shared tier is counted once by the
coordinator, never bound to shard instrumentation — that is what keeps
its miss totals scheduling-independent).

The speedups are reported as measured: on a single-CPU machine a
process pool cannot beat serial wall-clock on the same work
(``cpu_count`` is part of the record for exactly that reason).  The
shared-cache leg measures what one sweep-wide cache saves on any CPU
count — the encoder recomputation the cold legs repeat per shard.

Usage:
    python tools/run_parallel_bench.py            # full grid
    python tools/run_parallel_bench.py --quick    # CI-sized grid
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core import CNNConfig, GNNConfig, SNNConfig
from repro.datasets import make_shapes_dataset, train_test_split
from repro.events import Resolution
from repro.observability import to_json
from repro.parallel import CacheConfig, ParallelConfig, SweepSpec, run_sweep


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_grid(quick: bool):
    if quick:
        ds = make_shapes_dataset(
            num_per_class=3, resolution=Resolution(16, 16), seed=3
        )
        configs = {
            "SNN": SNNConfig(num_steps=6, hidden=8, epochs=2),
            "CNN": CNNConfig(base_width=4, epochs=2),
            "GNN": GNNConfig(max_events=60, hidden=6, epochs=2),
        }
        conditions = (0, 1)
    else:
        ds = make_shapes_dataset(
            num_per_class=4, resolution=Resolution(24, 24), seed=3
        )
        configs = {
            "SNN": SNNConfig(num_steps=10, hidden=16, epochs=4),
            "CNN": CNNConfig(base_width=6, epochs=4),
            "GNN": GNNConfig(max_events=120, hidden=8, epochs=4),
        }
        conditions = (0, 1, 2)
    train, test = train_test_split(ds, 0.4, np.random.default_rng(0))
    return train, test, configs, conditions


def timed_run(
    train,
    test,
    configs,
    conditions,
    parallel: ParallelConfig,
    cache=None,
    repeats: int = 1,
):
    """Run the sweep ``repeats`` times; return (best wall time, result).

    The minimum over repeats is the standard low-noise timing
    estimator: every source of interference (scheduler, allocator,
    GC) only ever adds time.  The sweeps are deterministic, so every
    repeat returns the identical result object content.
    """
    spec = SweepSpec(
        kind="comparison",
        train=train,
        test=test,
        conditions=conditions,
        pipelines=configs,
        parallel=parallel,
        cache=cache if cache is not None else CacheConfig(),
    )
    best_s, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        out = run_sweep(spec)
        elapsed = time.perf_counter() - start
        if elapsed < best_s:
            best_s = elapsed
        result = out
    return best_s, result


def comparison_bytes(result) -> str:
    results = result if isinstance(result, list) else [result]
    return repr(
        [
            {name: vars(m) for name, m in sorted(r.metrics.items())}
            for r in results
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized grid")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repeats per leg; the minimum is recorded",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_parallel.json",
        help="trajectory file to append to",
    )
    args = parser.parse_args(argv)

    train, test, configs, conditions = build_grid(args.quick)
    num_cells = 3 * len(conditions)
    print(
        f"grid: 3 paradigms x {len(conditions)} seeds = {num_cells} cells"
        f" (min of {args.repeats} repeats per leg)"
    )

    serial_s, serial = timed_run(
        train, test, configs, conditions, ParallelConfig(n_workers=1),
        repeats=args.repeats,
    )
    print(f"serial backend:                 {serial_s:8.2f}s")
    serial_shared_s, serial_shared = timed_run(
        train, test, configs, conditions, ParallelConfig(n_workers=1),
        cache=CacheConfig(shared=True),
        repeats=args.repeats,
    )
    print(f"serial + shared cache:          {serial_shared_s:8.2f}s")
    process4_s, process4 = timed_run(
        train, test, configs, conditions,
        ParallelConfig(n_workers=4, backend="process"),
        repeats=args.repeats,
    )
    print(f"process backend (4 workers):    {process4_s:8.2f}s")

    serial_bytes = comparison_bytes(serial.result)
    identity = {
        # Shared-cache leg: results must match; the snapshot drops the
        # per-shard repr_cache_* counters by design (coordinator-owned
        # cache), so only the results are compared.
        "serial_shared": comparison_bytes(serial_shared.result) == serial_bytes,
        # Process leg: results and merged snapshot must both match.
        "process4": comparison_bytes(process4.result) == serial_bytes
        and to_json(process4.snapshot) == to_json(serial.snapshot),
    }
    bit_identical = all(identity.values())

    def ratio(base, leg):
        return base / leg if leg > 0 else float("inf")

    speedups = {
        "serial_shared": ratio(serial_s, serial_shared_s),
        "process4": ratio(serial_s, process4_s),
    }
    cpu_count = os.cpu_count() or 1
    for leg, s in speedups.items():
        print(f"speedup {leg:<15} {s:5.2f}x  bit-identical: {identity[leg]}")
    print(f"({cpu_count} CPU(s) available)")

    run = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_revision(),
        "quick": bool(args.quick),
        "repeats": args.repeats,
        "results": {
            "grid": {
                "paradigms": 3,
                "seeds": len(conditions),
                "cells": num_cells,
            },
            "serial_s": serial_s,
            "serial_shared_s": serial_shared_s,
            "process4_s": process4_s,
            # Kept for trajectory continuity with earlier records, where
            # "parallel4"/"speedup" meant the process leg.
            "parallel4_s": process4_s,
            "speedup": speedups["process4"],
            "speedup_serial_shared": speedups["serial_shared"],
            "cpu_count": cpu_count,
            "bit_identical": bit_identical,
            "bit_identical_legs": identity,
            "cache_stats_cold": serial.cache_stats,
            "cache_stats_shared": serial_shared.cache_stats,
        },
    }
    if args.output.exists():
        data = json.loads(args.output.read_text())
    else:
        data = {"runs": []}
    data["runs"].append(run)
    args.output.write_text(json.dumps(data, indent=2) + "\n")
    print(f"appended run ({run['git_rev']}) to {args.output}")

    if not bit_identical:
        failed = [leg for leg, ok in identity.items() if not ok]
        print(
            f"FAIL: legs not bit-identical to serial: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
