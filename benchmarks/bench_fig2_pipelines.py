"""FIG2 — Fig. 2: the three processing pipelines, panel by panel.

Left (SNN): LIF membrane dynamics and the surrogate-gradient family.
Centre (CNN): two-channel dense-frame construction, feature-map sparsity
and compressed feature-map storage.
Right (GNN): event-graph construction from the event point cloud.
"""

import numpy as np

from repro.analysis import ascii_series, ascii_table
from repro.camera import CameraConfig, EventCamera, MovingDisk
from repro.cnn import two_channel_frame
from repro.events import Resolution
from repro.gnn import EventGraph, make_causal, radius_graph
from repro.hw import compression_ratio
from repro.snn import (
    ATan,
    FastSigmoid,
    LIFParams,
    LIFState,
    SigmoidDerivative,
    Triangle,
    lif_step_np,
)

from conftest import emit

RES = Resolution(32, 32)


def record_disk(duration_us=40_000, seed=0):
    cam = EventCamera(RES, CameraConfig(sample_period_us=500, seed=seed))
    disk = MovingDisk(RES, radius=4.0, x0=6.0, y0=16.0, vx_px_per_s=500.0)
    events, _ = cam.record(disk, duration_us)
    return events


def test_fig2_left_lif_dynamics(benchmark):
    """LIF membrane trace: integrate, fire, reset — the RC circuit panel."""
    params = LIFParams(tau_us=10_000.0, threshold=1.0)

    def run():
        state = LIFState.zeros((1,), params)
        trace, spikes = [], []
        for t in range(60):
            current = np.array([0.25 if 10 <= t < 50 else 0.0])
            s = lif_step_np(state, current, params, 1000.0)
            trace.append(float(state.v[0]))
            spikes.append(float(s[0]))
        return np.array(trace), np.array(spikes)

    trace, spikes = benchmark(run)
    emit(
        "FIG2-SNN: LIF membrane potential under a current step",
        ascii_series(np.arange(0, 60, 6), trace[::6], label="membrane v(t)"),
    )
    assert spikes.sum() >= 2  # fires repeatedly under drive
    assert trace[-1] < 0.1  # decays back to rest after the step
    # Surrogate family: all peak at threshold.
    for sg in (FastSigmoid(), ATan(), Triangle(), SigmoidDerivative()):
        v = np.linspace(-1, 1, 201)
        assert sg.derivative(v).argmax() == 100


def test_fig2_centre_dense_frame(benchmark):
    """Two-channel frame from events + its sparsity + compressed size."""
    events = record_disk()
    frame = benchmark(two_channel_frame, events)
    zero_frac = float(np.mean(frame == 0))
    ratios = {
        scheme: compression_ratio(frame, scheme) for scheme in ("nullhop", "rle")
    }
    emit(
        "FIG2-CNN: two-channel dense frame",
        ascii_table(
            ["quantity", "value"],
            [
                ("events aggregated", len(events)),
                ("frame shape", frame.shape),
                ("zero fraction", f"{zero_frac:.3f}"),
                ("ON/OFF balance", f"{frame[0].sum():.0f}/{frame[1].sum():.0f}"),
                ("nullhop compression", f"{ratios['nullhop']:.2f}x"),
                ("rle compression", f"{ratios['rle']:.2f}x"),
            ],
        ),
    )
    assert frame.shape == (2, 32, 32)
    assert zero_frac > 0.4  # event frames are sparse
    assert ratios["nullhop"] > 1.5  # compression pays off on sparse maps
    assert frame[0].sum() > 0 and frame[1].sum() > 0  # both polarities present


def test_fig2_right_event_graph(benchmark):
    """Directed causal graph built from the event point cloud."""
    events = record_disk()
    sub = events[:: max(1, len(events) // 300)]
    points = sub.as_point_cloud(time_scale_us=2000.0)

    def build():
        edges = radius_graph(points, 4.0, method="kdtree")
        return make_causal(edges, points)

    edges = benchmark(build)
    graph = EventGraph.from_stream(sub, edges, 2000.0)
    attrs = graph.edge_attributes()
    emit(
        "FIG2-GNN: event graph from the (x, y, t) point cloud",
        ascii_table(
            ["quantity", "value"],
            [
                ("nodes (events)", graph.num_nodes),
                ("directed edges", graph.num_edges),
                ("mean degree", f"{graph.mean_degree:.2f}"),
                ("causal (past->future)", graph.is_causal()),
                ("mean |dt| on edges (scaled)", f"{np.abs(attrs[:,2]).mean():.2f}"),
                ("mean |dx|,|dy| on edges", f"{np.abs(attrs[:,0]).mean():.2f}, {np.abs(attrs[:,1]).mean():.2f}"),
            ],
        ),
    )
    assert graph.num_edges > graph.num_nodes  # connected structure
    assert graph.is_causal()
    # Edges genuinely carry temporal offsets (the Section IV mechanism).
    assert np.abs(attrs[:, 2]).mean() > 0
