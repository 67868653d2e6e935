#!/usr/bin/env python
"""Run the incremental-serving robustness sweep (session-fault curve).

Trains a GNN pipeline on a synthetic gestures dataset, then serves a
held-out split window by window through auditing incremental sessions
while injecting mid-window session faults (state corruption, NaN
features, clock skew) at each severity.  Writes the degradation curve,
the recovery-path counters (audits tripped, restores, crashes,
fallbacks) and the retained-accuracy scores to JSON.  Exits non-zero
when the sweep fails its own acceptance criteria: a dirty clean point
(faults or trips at severity 0), a stressed point that never exercised
the recovery machinery, a non-finite score, or an invalid observability
snapshot — so CI can use it as a smoke test.

Usage:
    PYTHONPATH=src python tools/run_incremental_sweep.py          # full-size
    PYTHONPATH=src python tools/run_incremental_sweep.py --quick  # CI-sized
    PYTHONPATH=src python tools/run_incremental_sweep.py \
        --max-live-nodes 512   # bounded-state serving mode
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core import GNNPipeline
from repro.datasets import make_gestures_dataset
from repro.gnn import GraphBuildConfig
from repro.observability import Instrumentation, to_json, validate_snapshot
from repro.reliability import (
    run_incremental_robustness,
    session_robustness_scores,
)


def make_pipeline(quick: bool, seed: int) -> GNNPipeline:
    if quick:
        return GNNPipeline(
            config=GraphBuildConfig(
                radius=4.0, time_scale_us=3000.0, max_events=150, max_degree=8
            ),
            hidden=8,
            epochs=2,
            seed=seed,
        )
    return GNNPipeline(seed=seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-live-nodes",
        type=int,
        default=None,
        help="serve in bounded-state mode with this live-node budget",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "incremental_robustness.json"
    )
    parser.add_argument(
        "--metrics-output",
        type=Path,
        default=None,
        help="where the sweep's instrumentation snapshot artifact goes "
        "(default: incremental_robustness_metrics.json next to --output)",
    )
    args = parser.parse_args()
    if args.metrics_output is None:
        args.metrics_output = args.output.with_name(
            "incremental_robustness_metrics.json"
        )

    if args.quick:
        train = make_gestures_dataset(
            num_per_class=2, duration_us=50_000, seed=args.seed
        )
        test = make_gestures_dataset(
            num_per_class=1, duration_us=50_000, seed=args.seed + 100
        )
        severities = (0.0, 1.0)
    else:
        train = make_gestures_dataset(
            num_per_class=6, duration_us=60_000, seed=args.seed
        )
        test = make_gestures_dataset(
            num_per_class=3, duration_us=60_000, seed=args.seed + 100
        )
        severities = (0.0, 0.5, 1.0)

    pipeline = make_pipeline(args.quick, args.seed)
    instrumentation = Instrumentation()  # wall clock: batch sweep
    pipeline.instrument(instrumentation)
    t0 = time.time()
    result = run_incremental_robustness(
        train,
        test,
        severities=severities,
        pipeline=pipeline,
        seed=args.seed,
        max_live_nodes=args.max_live_nodes,
    )
    elapsed = time.time() - t0
    scores = session_robustness_scores(result)

    failures: list[str] = []
    snapshot = instrumentation.snapshot()
    failures += [f"metrics snapshot invalid: {p}" for p in validate_snapshot(snapshot)]
    registry = instrumentation.registry
    if registry.counter_total("incremental_events_total") == 0:
        failures.append("no per-event serving work reached the sessions")
    args.metrics_output.write_text(to_json(snapshot))

    clean, stressed = result.points[0], result.points[-1]
    if clean.faults_injected or clean.audits_tripped or clean.crashes:
        failures.append(
            "clean point is dirty: "
            f"{clean.faults_injected} faults, {clean.audits_tripped} trips, "
            f"{clean.crashes} crashes at severity 0"
        )
    if not np.isfinite(clean.accuracy):
        failures.append("clean point has no finite accuracy")
    if stressed.faults_injected == 0:
        failures.append("stressed point injected no session faults")
    if stressed.audits_tripped == 0:
        failures.append("stressed point: no divergence audit ever tripped")
    if stressed.restores == 0:
        failures.append("stressed point: no checkpoint restore ever ran")
    if not np.isfinite(scores["GNN"]) or not 0.0 <= scores["GNN"] <= 1.0:
        failures.append(f"GNN retained score out of range: {scores['GNN']}")

    payload = {
        "elapsed_s": round(elapsed, 2),
        "max_live_nodes": args.max_live_nodes,
        **result.to_dict(),
        "session_robustness_scores": {
            k: (round(v, 4) if np.isfinite(v) else None) for k, v in scores.items()
        },
        "failures": failures,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"incremental robustness sweep finished in {elapsed:.1f}s -> {args.output}")
    mode = (
        f"bounded (max_live_nodes={args.max_live_nodes})"
        if args.max_live_nodes
        else "exact"
    )
    print(f"  serving mode: {mode}")
    for p in result.points:
        print(
            f"  severity {p.severity:.2f}: accuracy {p.accuracy:.3f} over "
            f"{p.windows} windows ({p.faults_injected} faults, "
            f"{p.audits_tripped} trips, {p.crashes} crashes, "
            f"{p.restores} restores, {p.fallbacks} fallbacks)"
        )
    print(f"  GNN retained score: {scores['GNN']:.3f}")
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("clean point clean; faulted points recovered through the session's defences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
