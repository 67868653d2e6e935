"""Tests for the content-addressed representation cache (repro.parallel.cache).

Covers the cache-key contract (canonical JSON makes keys insensitive to
dict/config field ordering, the SHA key discriminates on content, kind
and config), the LRU memory tier, the optional disk tier, the
instrumentation counters, and the pipeline integration that memoizes
encoder outputs across repeated predictions.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import SNNConfig, SNNPipeline
from repro.datasets import make_shapes_dataset
from repro.events import Resolution
from repro.observability import Instrumentation
from repro.parallel import (
    CacheConfig,
    RepresentationCache,
    canonical_json,
    config_digest,
    content_key,
)


@pytest.fixture(scope="module")
def stream():
    ds = make_shapes_dataset(num_per_class=1, resolution=Resolution(16, 16), seed=0)
    return ds[0].stream


@pytest.fixture(scope="module")
def other_stream():
    ds = make_shapes_dataset(num_per_class=1, resolution=Resolution(16, 16), seed=7)
    return ds[1].stream


class TestCanonicalJson:
    def test_dict_key_order_is_irrelevant(self):
        a = {"alpha": 1, "beta": {"x": 2.0, "y": [1, 2]}}
        b = {"beta": {"y": [1, 2], "x": 2.0}, "alpha": 1}
        assert canonical_json(a) == canonical_json(b)
        assert config_digest(a) == config_digest(b)

    def test_equal_configs_built_differently_share_a_digest(self):
        # The order-insensitivity bugfix: two equal configs constructed
        # with different keyword orderings must address the same entry.
        a = SNNConfig(num_steps=6, hidden=8, epochs=2)
        b = SNNConfig(epochs=2, hidden=8, num_steps=6)
        assert a == b
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) == config_digest(dataclasses.asdict(a))

    def test_value_changes_change_the_digest(self):
        assert config_digest(SNNConfig(num_steps=6)) != config_digest(
            SNNConfig(num_steps=7)
        )

    def test_numpy_scalars_and_tuples_normalise(self):
        a = {"k": np.int64(3), "t": (1, 2)}
        b = {"t": [1, 2], "k": 3}
        assert canonical_json(a) == canonical_json(b)

    def test_unserialisable_values_are_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"fn": lambda: None})


class TestContentKey:
    def test_discriminates_on_stream_kind_and_config(self, stream, other_stream):
        base = content_key("snn_spike_tensor", stream, {"num_steps": 6})
        assert base == content_key("snn_spike_tensor", stream, {"num_steps": 6})
        assert base != content_key("snn_spike_tensor", other_stream, {"num_steps": 6})
        assert base != content_key("cnn_frame", stream, {"num_steps": 6})
        assert base != content_key("snn_spike_tensor", stream, {"num_steps": 7})

    def test_config_field_order_does_not_matter(self, stream):
        assert content_key("k", stream, {"a": 1, "b": 2}) == content_key(
            "k", stream, {"b": 2, "a": 1}
        )


class TestRepresentationCache:
    def test_miss_then_hit(self, stream):
        cache = RepresentationCache(max_entries=4)
        calls = []
        value = cache.get_or_compute("k", stream, {"a": 1}, lambda: calls.append(1) or 42)
        again = cache.get_or_compute("k", stream, {"a": 1}, lambda: calls.append(1) or 42)
        assert value == again == 42
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_differently_ordered_configs_hit_one_entry(self, stream):
        cache = RepresentationCache(max_entries=4)
        cache.get_or_compute("k", stream, {"a": 1, "b": 2}, lambda: "v")
        cache.get_or_compute("k", stream, {"b": 2, "a": 1}, lambda: "w")
        assert len(cache) == 1
        assert cache.stats()["hits"] == 1

    def test_lru_eviction(self, stream):
        cache = RepresentationCache(max_entries=2)
        for i in range(3):
            cache.get_or_compute("k", stream, {"i": i}, lambda i=i: i)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # The oldest entry (i=0) was evicted; recomputing it misses.
        cache.get_or_compute("k", stream, {"i": 0}, lambda: 0)
        assert cache.stats()["misses"] == 4

    def test_instrumentation_counters(self, stream):
        obs = Instrumentation()
        cache = RepresentationCache(max_entries=4, instrumentation=obs)
        cache.get_or_compute("kindA", stream, {"a": 1}, lambda: 1)
        cache.get_or_compute("kindA", stream, {"a": 1}, lambda: 1)
        series = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in obs.registry.snapshot()["counters"]
        }
        assert series[("repr_cache_misses_total", (("kind", "kindA"),))] == 1
        assert series[("repr_cache_hits_total", (("kind", "kindA"),))] == 1

    def test_disk_tier_round_trip(self, stream, tmp_path):
        first = RepresentationCache(max_entries=4, cache_dir=tmp_path)
        value = first.get_or_compute("k", stream, {"a": 1}, lambda: np.arange(5))
        # A fresh cache (new process, cold memory) finds it on disk.
        second = RepresentationCache(max_entries=4, cache_dir=tmp_path)
        loaded = second.get_or_compute(
            "k", stream, {"a": 1}, lambda: pytest.fail("should load from disk")
        )
        np.testing.assert_array_equal(value, loaded)
        assert second.stats()["disk_hits"] == 1

    def test_corrupt_disk_entry_is_counted_and_deleted(self, stream, tmp_path):
        writer = RepresentationCache(max_entries=4, cache_dir=tmp_path)
        writer.get_or_compute("k", stream, {"a": 1}, lambda: np.arange(5))
        path = writer._disk_path(content_key("k", stream, {"a": 1}))
        path.write_bytes(b"\x80garbage-not-a-pickle")

        obs = Instrumentation()
        reader = RepresentationCache(
            max_entries=4, cache_dir=tmp_path, instrumentation=obs
        )
        value = reader.get_or_compute("k", stream, {"a": 1}, lambda: np.arange(5))
        np.testing.assert_array_equal(value, np.arange(5))
        # The failure is visible, the corrupt file is gone, and the
        # recompute rewrote a readable entry in its place.
        assert reader.stats()["disk_errors"] == 1
        assert reader.stats()["misses"] == 1
        counters = {
            c["name"]: c["value"]
            for c in obs.snapshot()["metrics"]["counters"]
        }
        assert counters["repr_cache_disk_errors_total"] == 1
        fresh = RepresentationCache(max_entries=4, cache_dir=tmp_path)
        fresh.get_or_compute(
            "k", stream, {"a": 1}, lambda: pytest.fail("should load from disk")
        )
        assert fresh.stats()["disk_errors"] == 0

    def test_truncated_disk_entry_is_counted_and_deleted(self, stream, tmp_path):
        writer = RepresentationCache(max_entries=4, cache_dir=tmp_path)
        writer.get_or_compute("k", stream, {"a": 1}, lambda: np.arange(5))
        path = writer._disk_path(content_key("k", stream, {"a": 1}))
        path.write_bytes(path.read_bytes()[:10])  # killed mid-write
        reader = RepresentationCache(max_entries=4, cache_dir=tmp_path)
        value = reader.get_or_compute("k", stream, {"a": 1}, lambda: np.arange(5))
        np.testing.assert_array_equal(value, np.arange(5))
        assert reader.stats()["disk_errors"] == 1
        assert not list(tmp_path.rglob("*.pkl")) == []  # rewritten entry

    def test_config_validation_and_from_config(self):
        with pytest.raises(ValueError):
            CacheConfig(max_entries=0)
        assert RepresentationCache.from_config(CacheConfig(enabled=False)) is None
        cache = RepresentationCache.from_config(CacheConfig(max_entries=3))
        assert cache is not None and cache.max_entries == 3
        assert "disk_errors" in cache.stats()


class TestPipelineIntegration:
    def test_repeat_predictions_hit_the_cache(self, stream):
        ds = make_shapes_dataset(
            num_per_class=2, resolution=Resolution(16, 16), seed=1
        )
        pipeline = SNNPipeline(num_steps=6, hidden=8, epochs=1)
        cache = RepresentationCache(max_entries=32)
        pipeline.attach_cache(cache)
        pipeline.fit(ds)
        misses_after_fit = cache.stats()["misses"]
        first = pipeline.predict(ds[0].stream)
        second = pipeline.predict(ds[0].stream)
        assert first == second
        # Fit already encoded every training stream, so both predicts
        # hit the cache and add no misses.
        assert cache.stats()["misses"] == misses_after_fit
        assert cache.stats()["hits"] >= 2

    def test_cached_and_uncached_predictions_agree(self, stream):
        ds = make_shapes_dataset(
            num_per_class=2, resolution=Resolution(16, 16), seed=1
        )
        plain = SNNPipeline(num_steps=6, hidden=8, epochs=1)
        cached = SNNPipeline(num_steps=6, hidden=8, epochs=1)
        cached.attach_cache(RepresentationCache(max_entries=32))
        plain.fit(ds)
        cached.fit(ds)
        for sample in ds:
            assert plain.predict(sample.stream) == cached.predict(sample.stream)

    def test_predict_batch_matches_predict(self):
        ds = make_shapes_dataset(
            num_per_class=2, resolution=Resolution(16, 16), seed=1
        )
        pipeline = SNNPipeline(num_steps=6, hidden=8, epochs=1)
        pipeline.fit(ds)
        streams = [s.stream for s in ds]
        assert pipeline.predict_batch(streams) == [
            pipeline.predict(s) for s in streams
        ]
