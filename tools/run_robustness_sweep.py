#!/usr/bin/env python
"""Run the robustness sweep and regenerate the Table-I robustness cell.

Trains the three paradigm pipelines on a synthetic shapes dataset whose
test split deliberately contains corrupted recordings, sweeps the
default fault profile across severities through the hardened runner,
and writes the accuracy-degradation curves + retained-accuracy scores
to JSON.  Exits non-zero when the sweep fails its own acceptance
criteria (corrupted recordings not quarantined exactly, or a
degradation curve trending upward), so CI can use it as a smoke test.

Usage:
    python tools/run_robustness_sweep.py                 # full-size run
    python tools/run_robustness_sweep.py --quick         # CI-sized run
    python tools/run_robustness_sweep.py --output /tmp/robustness.json
    python tools/run_robustness_sweep.py --checkpoint-dir /tmp/sweep  # resumable
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core import CNNPipeline, GNNPipeline, SNNPipeline
from repro.datasets import make_shapes_dataset, train_test_split
from repro.datasets.base import EventDataset, EventSample
from repro.events import Resolution
from repro.gnn import GraphBuildConfig
from repro.observability import Instrumentation, to_json, validate_snapshot
from repro.parallel import SweepSpec, run_sweep
from repro.reliability import OutOfOrderCorruption, robustness_scores


def make_pipelines(quick: bool, seed: int):
    if quick:
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
    return {
        "SNN": SNNPipeline(seed=seed),
        "CNN": CNNPipeline(seed=seed),
        "GNN": GNNPipeline(seed=seed),
    }


def corrupt_recordings(test: EventDataset, indices, seed: int) -> EventDataset:
    """Deliberately break the given test recordings (out-of-order time)."""
    samples = list(test.samples)
    for offset, index in enumerate(indices):
        sample = samples[index]
        broken = OutOfOrderCorruption(fraction=0.2)(sample.stream, seed=seed + offset)
        samples[index] = EventSample(broken, sample.label, sample.metadata)
    return EventDataset(samples, test.class_names, f"{test.name}-corrupted")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "robustness_sweep.json"
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="persist model checkpoints + completed points here (resumable)",
    )
    parser.add_argument(
        "--metrics-output",
        type=Path,
        default=None,
        help="where the sweep's instrumentation snapshot artifact goes "
        "(default: robustness_metrics.json next to --output)",
    )
    args = parser.parse_args()
    if args.metrics_output is None:
        args.metrics_output = args.output.with_name("robustness_metrics.json")

    if args.quick:
        dataset = make_shapes_dataset(
            num_per_class=8, resolution=Resolution(24, 24), duration_us=40_000,
            seed=args.seed,
        )
        severities = (0.0, 0.5, 1.0)
    else:
        dataset = make_shapes_dataset(
            num_per_class=20, resolution=Resolution(32, 32), duration_us=60_000,
            seed=args.seed,
        )
        severities = (0.0, 0.25, 0.5, 0.75, 1.0)
    train, test = train_test_split(dataset, 0.4, np.random.default_rng(args.seed))
    corrupted_indices = (1, len(test) - 1)
    test = corrupt_recordings(test, corrupted_indices, seed=args.seed + 1000)

    t0 = time.time()
    instrumentation = Instrumentation()  # wall clock: batch sweep, not virtual time
    result = run_sweep(
        SweepSpec(
            kind="robustness",
            train=train,
            test=test,
            conditions=severities,
            pipelines=make_pipelines(args.quick, args.seed),
            seed=args.seed,
            options={"checkpoint_dir": args.checkpoint_dir},
            instrumentation=instrumentation,
        )
    ).result
    elapsed = time.time() - t0
    scores = robustness_scores(result)

    failures: list[str] = []
    snapshot = instrumentation.snapshot()
    failures += [f"metrics snapshot invalid: {p}" for p in validate_snapshot(snapshot)]
    registry = instrumentation.registry
    if registry.counter_total("guard_calls_total") == 0:
        failures.append("metrics snapshot recorded no guarded stage calls")
    if args.checkpoint_dir is None:
        # Cached sweep points come from a previous process, so their
        # records never hit this run's counters — reconcile only when
        # every point was evaluated here.
        recorded = {}
        for points in result.curves.values():
            for point in points:
                for outcome, count in point.report.outcome_counts().items():
                    recorded[outcome] = recorded.get(outcome, 0) + count
        for outcome, want in sorted(recorded.items()):
            got = int(
                registry.counter_value("runner_records_total", {"outcome": outcome})
            )
            if got != want:
                failures.append(
                    f"runner_records_total{{outcome={outcome}}} {got} != "
                    f"report total {want}"
                )
    args.metrics_output.write_text(to_json(snapshot))
    expected_quarantine = sorted(corrupted_indices)
    for name, points in result.curves.items():
        for point in points:
            got = sorted(point.report.quarantined_indices)
            if got != expected_quarantine:
                failures.append(
                    f"{name}@{point.severity}: quarantined {got}, "
                    f"expected exactly {expected_quarantine}"
                )
        curve = [p.accuracy for p in points]
        if curve[0] + 1e-9 < curve[-1]:
            failures.append(f"{name}: degradation curve trends upward: {curve}")

    payload = {
        "elapsed_s": round(elapsed, 2),
        "severities": list(severities),
        "corrupted_test_indices": list(expected_quarantine),
        "curves": {
            name: [round(p.accuracy, 4) for p in points]
            for name, points in result.curves.items()
        },
        "outcome_counts": {
            name: [p.report.outcome_counts() for p in points]
            for name, points in result.curves.items()
        },
        "robustness_scores": {k: round(v, 4) for k, v in scores.items()},
        "guarded_stage_calls": int(registry.counter_total("guard_calls_total")),
        "failures": failures,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"robustness sweep finished in {elapsed:.1f}s -> {args.output}")
    print(
        f"  observability: "
        f"{int(registry.counter_total('guard_calls_total'))} guarded calls, "
        f"{int(registry.counter_total('runner_records_total'))} records "
        f"-> {args.metrics_output}"
    )
    for name, points in result.curves.items():
        curve = ", ".join(f"{p.severity:.2f}:{p.accuracy:.3f}" for p in points)
        print(f"  {name}: {curve}  (retained {scores[name]:.3f})")
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("quarantine exact at every severity; curves degrade as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
