"""Tests for model checkpointing, dataset caching and SpikingConvNet."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import GNNPipeline, SNNPipeline
from repro.datasets import (
    cache_dataset,
    load_cached_dataset,
    make_shapes_dataset,
    train_test_split,
)
from repro.events import Resolution
from repro.gnn import GraphBuildConfig
from repro.nn import Tensor, load_state, save_state
from repro.snn import SpikingConvNet, events_to_spike_tensor


class TestModelCheckpointing:
    def _model(self, seed=0):
        rng = np.random.default_rng(seed)
        return nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 16, 3, rng=rng),
        )

    def test_roundtrip_restores_outputs(self, tmp_path):
        model = self._model(seed=1)
        x = Tensor(np.random.default_rng(2).standard_normal((2, 1, 4, 4)))
        before = model(x).data.copy()
        path = tmp_path / "ckpt.npz"
        save_state(model, path)

        fresh = self._model(seed=9)  # different init
        assert not np.allclose(fresh(x).data, before)
        load_state(fresh, path)
        np.testing.assert_allclose(fresh(x).data, before)

    def test_architecture_mismatch_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "ckpt.npz"
        save_state(model, path)
        other = nn.Sequential(nn.Linear(3, 3))
        with pytest.raises((KeyError, ValueError)):
            load_state(other, path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError, match="checkpoint"):
            load_state(self._model(), path)

    def test_spiking_model_checkpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        net = SpikingConvNet(2, 3, (8, 8), channel_widths=(4,), rng=rng)
        x = Tensor((np.random.default_rng(1).random((4, 2, 2, 8, 8)) < 0.3).astype(float))
        before = net(x).data.copy()
        path = tmp_path / "snn.npz"
        save_state(net, path)
        fresh = SpikingConvNet(2, 3, (8, 8), channel_widths=(4,), rng=np.random.default_rng(5))
        load_state(fresh, path)
        np.testing.assert_allclose(fresh(x).data, before)

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed, epochs: SNNPipeline(
                num_steps=6, pool=4, hidden=8, epochs=epochs, seed=seed
            ),
            lambda seed, epochs: GNNPipeline(
                config=GraphBuildConfig(
                    radius=4.0, time_scale_us=3000.0, max_events=100, max_degree=6
                ),
                hidden=4,
                epochs=epochs,
                seed=seed,
            ),
        ],
        ids=["snn-pipeline", "gnn-pipeline"],
    )
    def test_fitted_pipeline_roundtrip(self, make, tmp_path):
        """A fitted pipeline's model restores into a fresh one exactly."""
        ds = make_shapes_dataset(
            num_per_class=6, resolution=Resolution(24, 24), duration_us=40_000, seed=0
        )
        train, test = train_test_split(ds, 0.3, np.random.default_rng(0))
        fitted = make(seed=0, epochs=2)
        fitted.fit(train)
        path = tmp_path / "model.npz"
        save_state(fitted.model, path)

        # A zero-epoch fit builds the architecture from a different init.
        fresh = make(seed=5, epochs=0)
        fresh.fit(train)
        before = [p.data.copy() for p in fresh.model.parameters()]
        trained = [p.data for p in fitted.model.parameters()]
        assert any(not np.array_equal(a, b) for a, b in zip(before, trained))
        load_state(fresh.model, path)
        for restored, want in zip(fresh.model.parameters(), trained):
            np.testing.assert_array_equal(restored.data, want)
        assert [fresh.predict(s.stream) for s in test] == [
            fitted.predict(s.stream) for s in test
        ]


class TestDatasetCaching:
    def test_roundtrip(self, tmp_path):
        ds = make_shapes_dataset(
            num_per_class=2, resolution=Resolution(16, 16), duration_us=20_000, seed=3
        )
        cache_dataset(ds, tmp_path / "cache")
        loaded = load_cached_dataset(tmp_path / "cache")
        assert loaded.name == ds.name
        assert loaded.class_names == ds.class_names
        assert loaded.labels().tolist() == ds.labels().tolist()
        for a, b in zip(ds, loaded):
            assert a.stream == b.stream

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cached_dataset(tmp_path / "nowhere")


class TestSpikingConvNet:
    def test_forward_shapes(self):
        net = SpikingConvNet(2, 3, (16, 16), channel_widths=(4, 8))
        x = Tensor(np.zeros((5, 2, 2, 16, 16)))
        assert net(x).shape == (2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikingConvNet(2, 3, (16, 16), channel_widths=())
        with pytest.raises(ValueError):
            SpikingConvNet(2, 3, (10, 10), channel_widths=(4, 8))  # not /4
        net = SpikingConvNet(2, 3, (8, 8), channel_widths=(4,))
        with pytest.raises(ValueError):
            net(Tensor(np.zeros((2, 2, 8, 8))))

    def test_spike_activity_measured(self):
        net = SpikingConvNet(2, 2, (8, 8), channel_widths=(4,))
        rng = np.random.default_rng(0)
        x = Tensor((rng.random((4, 2, 2, 8, 8)) < 0.4).astype(float))
        acts = net.spike_activity(x)
        assert len(acts) == 1
        assert 0.0 <= acts[0] <= 1.0

    def test_trains_on_shapes_subset(self):
        ds = make_shapes_dataset(
            num_per_class=8, resolution=Resolution(16, 16), duration_us=40_000, seed=4
        )
        keep = [i for i, s in enumerate(ds) if s.label in (0, 2)]
        ds = ds.subset(keep)
        x = np.stack(
            [events_to_spike_tensor(s.stream, num_steps=8, pool=1) for s in ds], axis=1
        )
        y = (ds.labels() == 2).astype(np.int64)
        net = SpikingConvNet(2, 2, (16, 16), channel_widths=(6,), rng=np.random.default_rng(1))
        opt = nn.Adam(net.parameters(), lr=5e-3)
        for _ in range(25):
            opt.zero_grad()
            nn.cross_entropy(net(Tensor(x)), y).backward()
            opt.step()
        assert nn.accuracy(net(Tensor(x)).data, y) >= 0.85
