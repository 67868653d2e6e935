"""Per-event incremental GNN inference vs per-window full recompute.

The serving question behind the ROADMAP's first open item: once a
window's events are in, what does a decision cost?  The windowed path
pays a full graph rebuild plus a batch forward pass every time; the
per-event fast path (:class:`~repro.gnn.AsyncEventGNN`, wrapped in a
:class:`~repro.core.GNNIncrementalSession`) pays one hash insertion and
one local feature pass per event, with the decision free at the window
boundary.  This benchmark measures both on the same stream, asserts
they produce bit-identical scores (the serving invariant), and reports
per-event latency and MACs against the recompute figures.

Run standalone via ``tools/run_async_bench.py`` (appends a run record
to ``BENCH_async.json``), or under pytest for the shape assertions:

    PYTHONPATH=src python -m pytest benchmarks/bench_async_inference.py -s
"""

import time

import numpy as np

from repro.core.incremental import GNNIncrementalSession
from repro.events import EventStream, Resolution
from repro.gnn import (
    AsyncEventGNN,
    EventGNNClassifier,
    GraphBuildConfig,
)
from repro.gnn.models import build_event_graph
from repro.nn import no_grad

DEFAULT_N = 10_000
QUICK_N = 1_500

#: Workload geometry: a mid-size sensor, ~100 keps mean rate.
WIDTH = HEIGHT = 64
MEAN_DT_US = 10

#: Graph construction shared by both paths (max_events is set to the
#: stream length at run time so the windowed path serves every event).
RADIUS = 4.0
TIME_SCALE_US = 5000.0
MAX_DEGREE = 10
HIDDEN = 12
NUM_CLASSES = 4


def make_stream(n: int, seed: int = 0) -> EventStream:
    """Random but realistic event stream (uniform spatial, ~100 keps)."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(1, 2 * MEAN_DT_US, n))
    return EventStream.from_arrays(
        t,
        rng.integers(0, WIDTH, n),
        rng.integers(0, HEIGHT, n),
        rng.choice([-1, 1], n),
        Resolution(WIDTH, HEIGHT),
    )


def make_model(seed: int = 1) -> EventGNNClassifier:
    """An EdgeConv classifier of the GNNPipeline's default size.

    Weights are untrained — per-event cost is weight-independent, so a
    seeded random model benchmarks exactly what a fitted one would.
    """
    return EventGNNClassifier(
        NUM_CLASSES, hidden=HIDDEN, in_features=2, rng=np.random.default_rng(seed)
    )


def bench_async_inference(
    n: int, seed: int = 0, instrumentation=None
) -> dict:
    """One measured comparison on an ``n``-event window.

    Args:
        n: events in the served window.
        seed: stream seed.
        instrumentation: optional observability sink for the session's
            per-event latency histogram and MACs/events counters.

    Returns:
        A JSON-ready record with per-event and per-window latency/MACs
        and their ratios.
    """
    stream = make_stream(n, seed=seed)
    model = make_model()

    # Per-event fast path: one session, every event, decision at close.
    engine = AsyncEventGNN(
        model,
        radius=RADIUS,
        time_scale_us=TIME_SCALE_US,
        window_us=1 << 62,
        max_degree=MAX_DEGREE,
    )
    session = GNNIncrementalSession(engine, instrumentation=instrumentation)
    t0 = time.perf_counter()
    reports = session.process_stream(stream)
    async_s = time.perf_counter() - t0
    async_scores = session.scores()
    per_event_us = async_s / n * 1e6
    macs_per_event = float(np.mean([r.macs for r in reports]))

    # Per-window recompute: full graph rebuild + batch forward.
    config = GraphBuildConfig(
        radius=RADIUS,
        time_scale_us=TIME_SCALE_US,
        max_events=n,
        max_degree=MAX_DEGREE,
    )
    t0 = time.perf_counter()
    graph = build_event_graph(stream, config)
    with no_grad():
        batch_scores = model(graph).data[0]
    recompute_s = time.perf_counter() - t0
    recompute_us = recompute_s * 1e6
    recompute_macs = float(model.operation_count(graph))

    # The serving invariant: same events, same bits.
    if not np.array_equal(async_scores, batch_scores):
        raise AssertionError(
            "per-event scores diverged from the windowed recompute: "
            f"max |diff| = {np.abs(async_scores - batch_scores).max():.3e}"
        )

    return {
        "n_events": n,
        "num_edges": int(graph.num_edges),
        "per_event_latency_us": per_event_us,
        "per_event_macs": macs_per_event,
        "recompute_latency_us": recompute_us,
        "recompute_macs": recompute_macs,
        "latency_ratio": recompute_us / per_event_us,
        "macs_ratio": recompute_macs / macs_per_event,
        "async_total_s": async_s,
        "recompute_total_s": recompute_s,
    }


def bench_bounded_inference(
    n: int, capacity: int = 4096, seed: int = 0, num_samples: int = 20
) -> dict:
    """Bounded-state serving vs the exact unbounded engine, same stream.

    The bounded engine holds at most ``capacity`` live nodes (ring
    buffers, recycled edge log) while the exact engine keeps every node
    forever.  Both process the same ``n``-event stream; scores are
    compared at ``num_samples`` checkpoints, so the record carries the
    *measured* drift bound the bounded mode's users should feed into
    their :class:`~repro.core.AuditPolicy` tolerance — alongside the
    throughput and the peak/final state footprints that justify the
    bound in the first place.

    Returns:
        A JSON-ready record (``mode="bounded"``) with throughput, drift
        and state-size figures for both engines.
    """
    stream = make_stream(n, seed=seed)
    model = make_model()
    sample_at = sorted(set(np.linspace(1, n, num_samples, dtype=int).tolist()))

    def run(max_live_nodes):
        engine = AsyncEventGNN(
            model,
            radius=RADIUS,
            time_scale_us=TIME_SCALE_US,
            window_us=1 << 62,
            max_degree=MAX_DEGREE,
            max_live_nodes=max_live_nodes,
        )
        scores, sizes = [], []
        samples = set(sample_at)
        i = 0
        t0 = time.perf_counter()
        for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p):
            engine.process_event(int(x), int(y), int(t), int(p))
            i += 1
            if i in samples:
                scores.append(engine.scores().copy())
                sizes.append(engine.state_bytes())
        elapsed = time.perf_counter() - t0
        return engine, np.asarray(scores), sizes, elapsed

    bounded, b_scores, b_sizes, bounded_s = run(capacity)
    exact, e_scores, e_sizes, exact_s = run(None)
    drift = np.abs(b_scores - e_scores).max(axis=1)

    return {
        "mode": "bounded",
        "n_events": n,
        "capacity": capacity,
        "bounded_events_per_s": n / bounded_s,
        "exact_events_per_s": n / exact_s,
        "bounded_total_s": bounded_s,
        "exact_total_s": exact_s,
        "drift_max": float(drift.max()),
        "drift_final": float(drift[-1]),
        "bounded_state_bytes_peak": int(max(b_sizes)),
        "bounded_state_bytes_final": int(b_sizes[-1]),
        "bounded_state_flat": bool(len(set(b_sizes)) == 1),
        "exact_state_bytes_final": int(e_sizes[-1]),
        "expired_nodes_total": int(bounded.expired_nodes_total),
        "sample_points": [int(s) for s in sample_at],
    }


def format_bounded_table(record: dict) -> str:
    """Human-readable summary of one bounded-mode record."""
    ratio = record["exact_state_bytes_final"] / record["bounded_state_bytes_peak"]
    lines = [
        f"{'stream (events)':<24}{record['n_events']:>14,}",
        f"{'live-node budget':<24}{record['capacity']:>14,}",
        f"{'bounded throughput':<24}{record['bounded_events_per_s']:>9,.0f} ev/s",
        f"{'exact throughput':<24}{record['exact_events_per_s']:>9,.0f} ev/s",
        f"{'peak bounded state':<24}{record['bounded_state_bytes_peak']:>12,} B",
        f"{'final exact state':<24}{record['exact_state_bytes_final']:>12,} B",
        f"{'state ratio':<24}{ratio:>11.1f} x",
        f"{'state flat':<24}{str(record['bounded_state_flat']):>14}",
        f"{'max drift vs exact':<24}{record['drift_max']:>14.3e}",
        f"{'nodes expired':<24}{record['expired_nodes_total']:>14,}",
    ]
    return "\n".join(lines)


def format_table(record: dict) -> str:
    """Human-readable summary of one record."""
    lines = [
        f"{'window (events)':<24}{record['n_events']:>14,}",
        f"{'graph edges':<24}{record['num_edges']:>14,}",
        f"{'per-event latency':<24}{record['per_event_latency_us']:>11.1f} us",
        f"{'recompute latency':<24}{record['recompute_latency_us']:>11.1f} us",
        f"{'latency ratio':<24}{record['latency_ratio']:>11.1f} x",
        f"{'per-event MACs':<24}{record['per_event_macs']:>14,.0f}",
        f"{'recompute MACs':<24}{record['recompute_macs']:>14,.0f}",
        f"{'MACs ratio':<24}{record['macs_ratio']:>11.1f} x",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pytest shape assertions (quick-size)
# ----------------------------------------------------------------------
def test_bench_shapes():
    record = bench_async_inference(400, seed=0)
    assert record["per_event_latency_us"] > 0
    assert record["recompute_macs"] > record["per_event_macs"]
    assert record["latency_ratio"] > 1.0


def test_bounded_bench_shapes():
    record = bench_bounded_inference(400, capacity=64, seed=0, num_samples=5)
    assert record["mode"] == "bounded"
    assert record["expired_nodes_total"] > 0
    assert record["bounded_state_bytes_peak"] < record["exact_state_bytes_final"]
    assert np.isfinite(record["drift_max"])
    assert len(record["sample_points"]) == 5
