"""The three paradigm pipelines, instrumented end to end.

Each pipeline owns the full path of Fig. 2 for its paradigm — event
preprocessing, model, training — plus the hardware cost model that
executes it, and produces the :class:`~repro.core.metrics.PipelineMetrics`
that fill one column of Table I:

* :class:`SNNPipeline` — spike-tensor binning → surrogate-gradient
  spiking MLP → time-multiplexed neuromorphic core model;
* :class:`CNNPipeline` — dense two-channel frames → small CNN →
  zero-skipping sparse accelerator model;
* :class:`GNNPipeline` — causal radius event-graph → graph convolutions
  → two-phase GNN accelerator model with asynchronous per-event updates.

Measured quantities follow one set of definitions (documented on each
metric) so the columns are comparable.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass

import numpy as np

from ..cnn.frames import REPRESENTATIONS, two_channel_frame
from ..cnn.models import make_small_cnn
from ..datasets.base import EventDataset
from ..events.stream import EventStream
from ..gnn.asynchronous import HashInserter
from ..gnn.models import EventGNNClassifier, GraphBuildConfig, build_event_graph
from ..hw.energy import ENERGY_45NM
from ..hw.gnn_accel import GNNAccelerator
from ..hw.neuromorphic import NeuromorphicCore, analytic_snn_counters
from ..hw.workload import (
    ConvLayerWorkload,
    GNNWorkload,
    GraphMemoryWorkload,
    SNNLayerWorkload,
)
from ..hw.zeroskip import ZeroSkipAccelerator
from ..nn import Adam, Tensor, cross_entropy, no_grad
from ..nn.layers import Conv2d, ReLU, Sequential
from ..observability import Instrumentation
from ..snn.encoding import events_to_spike_tensor
from ..snn.layers import SpikingMLP
from .metrics import PipelineMetrics

__all__ = [
    "NotFittedError",
    "ParadigmPipeline",
    "SNNPipeline",
    "CNNPipeline",
    "GNNPipeline",
]

#: Bytes per weight/state word assumed by the footprint metrics.
WORD_BYTES = 2


class NotFittedError(RuntimeError):
    """Raised when ``predict``/``measure`` is called before ``fit``.

    Subclasses ``RuntimeError`` so pre-existing ``except RuntimeError``
    handlers keep working, while fault-tolerant callers
    (:mod:`repro.reliability.runner`) can distinguish "the pipeline was
    never trained" — a configuration error that should abort a sweep —
    from per-recording failures that should merely be quarantined.
    """


class ParadigmPipeline(abc.ABC):
    """Common interface of the three paradigm pipelines.

    The public ``fit`` / ``predict`` / ``measure`` stages are template
    methods: subclasses implement ``_fit`` / ``_predict`` / ``_measure``
    and the base class runs them through one instrumented path, so an
    attached :class:`~repro.observability.Instrumentation` (see
    :meth:`instrument`) sees every stage call — spans, call/failure
    counters and duration histograms — without each paradigm
    re-implementing the bookkeeping.
    Without instrumentation the wrapper is a single ``None`` check.
    """

    name: str

    #: Observability sink; ``None`` (the default) disables the wrapper.
    _obs: Instrumentation | None = None

    @classmethod
    def from_config(cls, config) -> "ParadigmPipeline":
        """Construct a pipeline from its frozen config dataclass.

        The config (see :mod:`repro.core.presets`) is the frozen,
        comparable description of a pipeline.  Keyword construction
        keeps working unchanged; this is the structured alternative.
        """
        return cls(**config.kwargs())

    def instrument(self, instrumentation: Instrumentation | None) -> "ParadigmPipeline":
        """Attach an observability sink (``None`` detaches); returns self.

        Every subsequent ``fit`` / ``predict`` / ``measure`` call is
        counted (``pipeline_stage_calls_total{paradigm,stage}``), timed
        into ``pipeline_stage_duration_us`` and traced as a span named
        ``{paradigm}.{stage}``; failures increment
        ``pipeline_stage_failures_total`` and re-raise unchanged.
        """
        self._obs = instrumentation
        return self

    @property
    def instrumentation(self) -> Instrumentation | None:
        """The attached observability sink, if any."""
        return self._obs

    def _require_fitted(self) -> None:
        """Raise :class:`NotFittedError` unless ``fit`` has completed."""
        if getattr(self, "model", None) is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted; call fit() before "
                "predict()/measure()"
            )

    def _observed(self, stage: str, fn):
        """Run one stage through the metrics/tracing wrapper."""
        obs = self._obs
        if obs is None:
            return fn()
        labels = {"paradigm": self.name, "stage": stage}
        obs.registry.counter(
            "pipeline_stage_calls_total",
            labels=labels,
            help="pipeline stage invocations",
        ).inc()
        span = None
        try:
            with obs.tracer.span(f"{self.name}.{stage}") as span:
                return fn()
        except Exception:
            obs.registry.counter(
                "pipeline_stage_failures_total",
                labels=labels,
                help="pipeline stage calls that raised",
            ).inc()
            raise
        finally:
            if span is not None:
                obs.registry.histogram(
                    "pipeline_stage_duration_us",
                    labels=labels,
                    help="pipeline stage duration (us; wall or virtual per clock)",
                ).observe(span.duration_us)

    # ------------------------------------------------------------------
    # Public stages (instrumented templates around the _impl methods)
    # ------------------------------------------------------------------
    def fit(self, train: EventDataset) -> None:
        """Train the pipeline on a dataset."""
        return self._observed("fit", lambda: self._fit(train))

    def predict(self, stream: EventStream) -> int:
        """Classify one recording."""
        return self._observed("predict", lambda: self._predict(stream))

    def predict_batch(self, streams) -> list[int]:
        """Classify a batch of recordings in one instrumented stage.

        Serving-style entry point: the whole batch runs as a single
        ``predict_batch`` span/counter.

        Args:
            streams: an iterable of event streams.

        Returns:
            One predicted label per stream, in input order.
        """
        streams = list(streams)
        return self._observed(
            "predict_batch", lambda: self._predict_batch(streams)
        )

    def _predict_batch(self, streams: list[EventStream]) -> list[int]:
        """Batch classification; the default defers to ``_predict``."""
        return [self._predict(stream) for stream in streams]

    def measure(self, test: EventDataset, temporal_labels: tuple[int, ...] = ()) -> PipelineMetrics:
        """Evaluate the Table-I quantities on a test set.

        Args:
            test: held-out recordings.
            temporal_labels: labels whose separation requires temporal
                information (e.g. the two rotation directions); accuracy
                restricted to them is the "exploit temporal information"
                metric.
        """
        return self._observed("measure", lambda: self._measure(test, temporal_labels))

    # ------------------------------------------------------------------
    # Paradigm implementations (not abstract so pre-template subclasses
    # overriding the public methods directly keep working)
    # ------------------------------------------------------------------
    def _fit(self, train: EventDataset) -> None:
        """Paradigm-specific training."""
        raise NotImplementedError

    def _predict(self, stream: EventStream) -> int:
        """Paradigm-specific single-recording classification."""
        raise NotImplementedError

    def _measure(self, test: EventDataset, temporal_labels: tuple[int, ...] = ()) -> PipelineMetrics:
        """Paradigm-specific Table-I measurement."""
        raise NotImplementedError

    def accuracy(self, test: EventDataset) -> float:
        """Plain test accuracy."""
        preds = np.array([self.predict(s.stream) for s in test])
        return float(np.mean(preds == test.labels()))

    def _subset_accuracy(
        self, test: EventDataset, labels: tuple[int, ...]
    ) -> float:
        """Accuracy restricted to the given labels (nan when absent)."""
        if not labels:
            return float("nan")
        subset = [s for s in test if s.label in labels]
        if not subset:
            return float("nan")
        preds = np.array([self.predict(s.stream) for s in subset])
        truth = np.array([s.label for s in subset])
        return float(np.mean(preds == truth))


class SNNPipeline(ParadigmPipeline):
    """Spiking pipeline: event binning → spiking MLP → neuromorphic core.

    Args:
        num_steps: timesteps per recording window.
        pool: spatial pooling of the input events.
        hidden: hidden LIF neurons.
        dt_us: simulation timestep (also the decision latency bound).
        epochs, lr, batch_size: training hyper-parameters.
        update: neuron-state update discipline of the modelled core
            ("clock" or "event") — changes the hardware cost column,
            not the learned model.
        seed: initialisation / shuffling seed.
    """

    name = "SNN"

    def __init__(
        self,
        num_steps: int = 16,
        pool: int = 2,
        hidden: int = 32,
        dt_us: float = 1000.0,
        epochs: int = 12,
        lr: float = 5e-3,
        batch_size: int = 8,
        update: str = "clock",
        seed: int = 0,
    ) -> None:
        if update not in ("clock", "event"):
            raise ValueError("update must be 'clock' or 'event'")
        self.num_steps = num_steps
        self.pool = pool
        self.hidden = hidden
        self.dt_us = dt_us
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.update = update
        self.seed = seed
        self.model: SpikingMLP | None = None
        self._num_inputs = 0
        self._num_classes = 0

    def _encode(self, stream: EventStream) -> np.ndarray:
        tensor = events_to_spike_tensor(stream, self.num_steps, pool=self.pool)
        return tensor.reshape(self.num_steps, -1)

    def _fit(self, train: EventDataset) -> None:
        x = np.stack([self._encode(s.stream) for s in train], axis=1)  # (T, N, F)
        y = train.labels()
        self._num_inputs = x.shape[2]
        self._num_classes = train.num_classes
        rng = np.random.default_rng(self.seed)
        self.model = SpikingMLP(
            [self._num_inputs, self.hidden, self._num_classes],
            dt_us=self.dt_us,
            rng=rng,
        )
        opt = Adam(self.model.parameters(), lr=self.lr)
        n = x.shape[1]
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, self.batch_size):
                idx = order[lo : lo + self.batch_size]
                opt.zero_grad()
                loss = cross_entropy(self.model(Tensor(x[:, idx])), y[idx])
                loss.backward()
                opt.step()

    def _predict(self, stream: EventStream) -> int:
        self._require_fitted()
        x = self._encode(stream)[:, None, :]
        with no_grad():
            scores = self.model(Tensor(x)).data
        return int(scores.argmax())

    def _measure(self, test: EventDataset, temporal_labels: tuple[int, ...] = ()) -> PipelineMetrics:
        self._require_fitted()
        spike_tensors = [self._encode(s.stream) for s in test]
        input_density = float(np.mean([t.mean() for t in spike_tensors]))
        input_spikes_per_sample = float(np.mean([t.sum() for t in spike_tensors]))

        # Hidden activity: mean spikes per neuron per step.
        activities = []
        with no_grad():
            for t in spike_tensors[: min(len(spike_tensors), 10)]:
                counts = self.model.spike_counts(Tensor(t[:, None, :]))
                activities.append(counts[0])
        hidden_activity = float(np.mean(activities))

        # Synaptic operations per classification: every input spike fans
        # out to all hidden neurons, every hidden spike to all outputs.
        hidden_spikes = hidden_activity * self.hidden * self.num_steps
        ops = input_spikes_per_sample * self.hidden + hidden_spikes * self._num_classes
        ops += self.num_steps * (self.hidden + self._num_classes) * 2  # state updates

        # Hardware model: clocked neuromorphic core over the window.
        workload = SNNLayerWorkload(
            num_neurons=self.hidden,
            num_inputs=self._num_inputs,
            num_steps=self.num_steps,
            input_activity=min(1.0, input_density),
        )
        core = NeuromorphicCore(energy=ENERGY_45NM)
        report = core.run_layer(workload, update=self.update)
        # Response latency: the SNN is event-driven, so the output tracks
        # input within one state-update sweep of the core — the compute
        # time of a single timestep, not the (training-time) dt.
        one_step = SNNLayerWorkload(
            num_neurons=self.hidden,
            num_inputs=self._num_inputs,
            num_steps=1,
            input_activity=min(1.0, input_density),
        )
        step_latency_us = core.run_layer(one_step, update=self.update).latency_us

        params = sum(p.size for p in self.model.parameters())
        footprint = params * WORD_BYTES + (self.hidden + self._num_classes) * WORD_BYTES

        metrics = PipelineMetrics(paradigm="SNN")
        metrics.temporal_info = self._subset_accuracy(test, temporal_labels)
        metrics.data_sparsity = 1.0 - input_density
        metrics.data_preparation = 1.0  # one bin increment per event
        metrics.compute_sparsity = 1.0 - hidden_activity
        metrics.num_operations = ops
        metrics.accuracy = self.accuracy(test)
        metrics.memory_footprint = footprint
        metrics.memory_bandwidth = report.memory_accesses
        metrics.energy_efficiency = 1.0 / max(report.energy_pj * 1e-12, 1e-30)
        metrics.latency = step_latency_us
        metrics.extras = {
            "hidden_activity": hidden_activity,
            "input_spikes_per_sample": input_spikes_per_sample,
            "energy_pj_per_classification": report.energy_pj,
            "timestep_us": self.dt_us,
        }
        return metrics


class CNNPipeline(ParadigmPipeline):
    """Dense-frame pipeline: event frames → CNN → zero-skipping accel.

    Args:
        base_width: first conv block width.
        representation: name of the event → frame mapping from
            :data:`repro.cnn.frames.REPRESENTATIONS` (default the
            Fig. 2 two-channel count frame; timing-preserving options
            such as ``"time_surface"`` or ``"voxel"`` change which
            Section III-B aggregation the pipeline studies).
        epochs, lr, batch_size: training hyper-parameters.
        seed: initialisation seed.
    """

    name = "CNN"

    def __init__(
        self,
        base_width: int = 8,
        representation: str = "two_channel",
        epochs: int = 15,
        lr: float = 2e-3,
        batch_size: int = 8,
        seed: int = 0,
    ) -> None:
        if representation not in REPRESENTATIONS:
            raise ValueError(
                f"unknown representation {representation!r}; "
                f"options: {sorted(REPRESENTATIONS)}"
            )
        self.base_width = base_width
        self.representation = REPRESENTATIONS[representation]
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.seed = seed
        self.model: Sequential | None = None
        self._hw: tuple[int, int] = (0, 0)
        self._window_us = 0.0

    def _encode(self, stream: EventStream) -> np.ndarray:
        frame = self.representation(stream)
        # Per-frame max-magnitude normalisation keeps activations stable
        # (voxel grids are signed, so normalise by |.|).
        peak = np.abs(frame).max()
        return frame / peak if peak > 0 else frame

    def _fit(self, train: EventDataset) -> None:
        res = train.resolution
        self._hw = (res.height, res.width)
        self._window_us = float(
            np.mean([max(s.stream.duration, 1) for s in train])
        )
        x = np.stack([self._encode(s.stream) for s in train])
        y = train.labels()
        rng = np.random.default_rng(self.seed)
        self.model = make_small_cnn(
            self.representation.channels,
            train.num_classes,
            self._hw,
            base_width=self.base_width,
            rng=rng,
        )
        opt = Adam(self.model.parameters(), lr=self.lr)
        n = len(x)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, self.batch_size):
                idx = order[lo : lo + self.batch_size]
                opt.zero_grad()
                loss = cross_entropy(self.model(Tensor(x[idx])), y[idx])
                loss.backward()
                opt.step()
        self.model.eval()

    def _predict(self, stream: EventStream) -> int:
        self._require_fitted()
        with no_grad():
            scores = self.model(Tensor(self._encode(stream)[None])).data
        return int(scores.argmax())

    def _layer_sparsities(self, frames: np.ndarray) -> list[tuple[Conv2d, float]]:
        """Per-conv-layer (layer, input zero-fraction) pairs on a batch."""
        result: list[tuple[Conv2d, float]] = []
        x = Tensor(frames)
        with no_grad():
            for layer in self.model.layers:
                if isinstance(layer, Conv2d):
                    zero_frac = float(np.mean(x.data == 0.0))
                    result.append((layer, zero_frac))
                x = layer(x)
        return result

    def _measure(self, test: EventDataset, temporal_labels: tuple[int, ...] = ()) -> PipelineMetrics:
        self._require_fitted()
        frames = np.stack([self._encode(s.stream) for s in test])
        input_zero_frac = float(np.mean(frames == 0.0))
        events_per_sample = float(np.mean([len(s.stream) for s in test]))

        # Preparation: one increment per event plus the per-frame clear
        # of the dense buffer, amortised over the events it holds.
        h, w = self._hw
        channels = self.representation.channels
        prep = 1.0 + (channels * h * w) / max(events_per_sample, 1.0)

        # Feature-map sparsity after the ReLUs.
        relu_zero_fracs: list[float] = []
        x = Tensor(frames[: min(len(frames), 10)])
        with no_grad():
            for layer in self.model.layers:
                x = layer(x)
                if isinstance(layer, ReLU):
                    relu_zero_fracs.append(float(np.mean(x.data == 0.0)))
        compute_sparsity = float(np.mean(relu_zero_fracs))

        # Hardware model: zero-skipping accelerator per conv layer, with
        # the measured input sparsities; the final Linear is counted as
        # MACs without skipping.
        layer_stats = self._layer_sparsities(frames)
        accel = ZeroSkipAccelerator(num_macs=128)
        total_energy = 0.0
        total_mem = 0
        total_macs = 0
        spatial = (h, w)
        for conv, zero_frac in layer_stats:
            out_h = spatial[0] // 1  # 'same' padding conv keeps size
            workload = ConvLayerWorkload(
                c_in=conv.in_channels,
                c_out=conv.out_channels,
                kernel=conv.kernel_size,
                out_h=out_h,
                out_w=spatial[1],
                activation_sparsity=zero_frac,
            )
            report = accel.run_layer(workload)
            total_energy += report.energy_pj
            total_mem += report.memory_accesses
            total_macs += report.macs
            spatial = (spatial[0] // 2, spatial[1] // 2)  # the pool that follows
        head = self.model.layers[-1]
        head_macs = head.in_features * head.out_features
        total_macs += head_macs
        total_energy += head_macs * ENERGY_45NM.mac_pj + head_macs * ENERGY_45NM.sram_large_pj
        total_mem += head_macs

        params = sum(p.size for p in self.model.parameters())
        metrics = PipelineMetrics(paradigm="CNN")
        metrics.temporal_info = self._subset_accuracy(test, temporal_labels)
        metrics.data_sparsity = input_zero_frac
        metrics.data_preparation = prep
        metrics.compute_sparsity = compute_sparsity
        metrics.num_operations = float(total_macs)
        metrics.accuracy = self.accuracy(test)
        metrics.memory_footprint = params * WORD_BYTES
        metrics.memory_bandwidth = total_mem
        metrics.energy_efficiency = 1.0 / max(total_energy * 1e-12, 1e-30)
        metrics.latency = self._window_us  # frame accumulation bound
        metrics.extras = {
            "relu_zero_fractions": relu_zero_fracs,
            "energy_pj_per_classification": total_energy,
        }
        return metrics


class GNNPipeline(ParadigmPipeline):
    """Event-graph pipeline: causal radius graph → GNN → graph accelerator.

    Args:
        config: graph construction configuration.
        hidden: graph conv feature width.
        epochs, lr: training hyper-parameters.
        seed: initialisation seed.
    """

    name = "GNN"

    def __init__(
        self,
        config: GraphBuildConfig = GraphBuildConfig(
            radius=4.0, time_scale_us=5000.0, max_events=200, max_degree=10
        ),
        hidden: int = 12,
        epochs: int = 12,
        lr: float = 5e-3,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.hidden = hidden
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self.model: EventGNNClassifier | None = None
        self._resolution = None

    def _fit(self, train: EventDataset) -> None:
        from ..gnn.models import fit_gnn

        self._resolution = train.resolution
        self.model = EventGNNClassifier(
            train.num_classes,
            hidden=self.hidden,
            in_features=self.config.num_node_features,
            rng=np.random.default_rng(self.seed),
        )
        fit_gnn(
            self.model,
            train,
            self.config,
            epochs=self.epochs,
            lr=self.lr,
            rng=np.random.default_rng(self.seed),
        )

    def _predict(self, stream: EventStream) -> int:
        self._require_fitted()
        graph = build_event_graph(stream, self.config)
        with no_grad():
            return int(self.model(graph).data.argmax())

    # ------------------------------------------------------------------
    # Per-event incremental serving fast path
    # ------------------------------------------------------------------
    def open_session(self, *, max_live_nodes: int | None = None):
        """Open a per-event serving session over the fitted classifier.

        The session holds an :class:`~repro.gnn.AsyncEventGNN` built
        with this pipeline's graph configuration and an *unbounded*
        liveness window — the batch builder never expires nodes, so an
        unbounded window is what makes session scores at a window close
        bit-equal to windowed :meth:`predict` on the same events.  The
        pipeline's attached instrumentation (if any) receives the
        session's per-event metrics.

        Args:
            max_live_nodes: opt into the engine's bounded-state mode — a
                hard live-node budget with ring-buffer storage and
                oldest-first eviction.  Bounded sessions trade the exact
                bit-equality guarantee for flat memory.
        """
        from ..gnn.async_network import AsyncEventGNN
        from .incremental import GNNIncrementalSession

        self._require_fitted()
        engine = AsyncEventGNN(
            self.model,
            radius=self.config.radius,
            time_scale_us=self.config.time_scale_us,
            window_us=1 << 62,
            max_degree=self.config.max_degree,
            resolution=self._resolution,
            include_position=self.config.include_position,
            max_live_nodes=max_live_nodes,
        )
        return GNNIncrementalSession(
            engine, paradigm=self.name, instrumentation=self._obs
        )

    def _measure(self, test: EventDataset, temporal_labels: tuple[int, ...] = ()) -> PipelineMetrics:
        self._require_fitted()
        graphs = [build_event_graph(s.stream, self.config) for s in test]
        nodes = float(np.mean([g.num_nodes for g in graphs]))
        edges = float(np.mean([g.num_edges for g in graphs]))
        durations = float(np.mean([max(s.stream.duration, 1) for s in test]))

        # Data sparsity: occupancy of the equivalent dense spatiotemporal
        # volume (same definition as the SNN spike tensor: the graph IS
        # the set of non-zero voxels).
        res = test.resolution
        steps = max(1, int(durations / self.config.time_scale_us))
        dense_slots = res.num_pixels * 2 * steps
        data_sparsity = 1.0 - min(1.0, nodes / dense_slots)

        # Preparation: insertion candidates per event, measured with the
        # spatial-hash incremental builder on the test streams.
        inserter = HashInserter(
            radius=self.config.radius,
            time_scale_us=self.config.time_scale_us,
            window_us=50_000,
            max_neighbours=self.config.max_degree,
        )
        for s in test.samples[:3]:
            stream = s.stream
            if len(stream) > self.config.max_events:
                idx = np.linspace(0, len(stream) - 1, self.config.max_events).astype(int)
                stream = stream[np.unique(idx)]
            inserter.insert_stream(stream.x, stream.y, stream.t)
        prep = inserter.stats.candidates_per_event + 1.0

        # Computation sparsity: fraction of node-pair interactions the
        # graph structure skips relative to all-to-all.
        compute_sparsity = 1.0 - min(1.0, edges / max(nodes * nodes, 1.0))

        ops = float(np.mean([self.model.operation_count(g) for g in graphs]))

        workload = GNNWorkload(
            num_nodes=max(int(nodes), 1),
            num_edges=int(edges),
            feature_dim=self.hidden,
            num_layers=2,
        )
        accel = GNNAccelerator(features_in_dram=False)
        report = accel.run_graph(workload)
        event_report = accel.per_event_update(
            workload,
            degree=int(min(edges / max(nodes, 1), self.config.max_degree)),
            insertion_candidates=int(prep),
        )

        # Graph-storage rows: measure BOTH representations of the test
        # graphs (dense float64 vs compact quantized) through the hw
        # memory model, regardless of which one this pipeline runs on —
        # the Table I dense-vs-compact comparison reads these off the
        # GNN column (see repro.core.comparison.attach_graph_memory).
        graph_memory: dict[str, dict[str, float]] = {}
        for representation in ("dense", "compact"):
            if representation == self.config.representation:
                rep_graphs = graphs
            else:
                cfg = dataclasses.replace(
                    self.config, representation=representation
                )
                rep_graphs = [build_event_graph(s.stream, cfg) for s in test]
            storages = [GraphMemoryWorkload.from_graph(g) for g in rep_graphs]
            reports = [accel.memory_report(workload, st) for st in storages]
            graph_memory[representation] = {
                "bytes_per_event": float(
                    np.mean([st.bytes_per_event for st in storages])
                ),
                "peak_state_bytes": float(
                    max(st.storage_bytes for st in storages)
                ),
                "traffic_bytes_per_event": float(
                    np.mean([r["traffic_bytes_per_event"] for r in reports])
                ),
                "streams_resident": float(
                    min(r["streams_resident"] for r in reports)
                ),
            }

        params = sum(p.size for p in self.model.parameters())
        active = graph_memory.get(self.config.representation)
        graph_state = (
            active["peak_state_bytes"]
            if active is not None
            else nodes * self.hidden * WORD_BYTES
        )
        footprint = (
            params * WORD_BYTES
            + int(nodes) * self.hidden * WORD_BYTES
            + graph_state
        )

        metrics = PipelineMetrics(paradigm="GNN")
        metrics.temporal_info = self._subset_accuracy(test, temporal_labels)
        metrics.data_sparsity = data_sparsity
        metrics.data_preparation = prep
        metrics.compute_sparsity = compute_sparsity
        metrics.num_operations = ops
        metrics.accuracy = self.accuracy(test)
        metrics.memory_footprint = footprint
        metrics.memory_bandwidth = report.memory_accesses
        metrics.energy_efficiency = 1.0 / max(report.energy_pj * 1e-12, 1e-30)
        metrics.latency = event_report.latency_us  # asynchronous per-event bound
        if "dense" in graph_memory:
            metrics.graph_memory_dense = graph_memory["dense"]["bytes_per_event"]
        if "compact" in graph_memory:
            metrics.graph_memory_compact = graph_memory["compact"][
                "bytes_per_event"
            ]
        metrics.extras = {
            "mean_nodes": nodes,
            "mean_edges": edges,
            "energy_pj_per_classification": report.energy_pj,
            "per_event_energy_pj": event_report.energy_pj,
            "representation": self.config.representation,
            "graph_memory": graph_memory,
        }
        return metrics
