"""Content-addressed representation cache for event encodings.

The three paradigm pipelines repeatedly re-encode the *same* recordings
— frames for the CNN, spike tensors for the SNN, event graphs for the
GNN — across fit/measure/sweep calls.  Following the recomputation-
avoidance lever of AEGNN (Schaefer et al.) and the reusable-
representation view of EST (Gehrig et al.), this module memoizes those
encodings behind a content address:

    key = SHA-256(kind ‖ raw event bytes ‖ resolution ‖ canonical config)

The config component is serialised through :func:`canonical_json`,
which sorts keys recursively — two configurations that compare equal
produce the same key regardless of dict/field construction order (the
order-sensitivity bug this module's tests pin down).

Entries live in an in-process LRU (:class:`RepresentationCache`) and,
optionally, in an on-disk store shared across processes and runs.  The
disk tier is opt-in: byte-identity guarantees of the parallel executor
(:mod:`repro.parallel.sharding`) only cover the in-memory tier, whose
hit/miss counters are deterministic per shard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = [
    "canonical_json",
    "config_digest",
    "content_key",
    "CacheConfig",
    "RepresentationCache",
]


def _canonicalise(obj: Any) -> Any:
    """Reduce an object to a canonical JSON-serialisable form."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonicalise(dataclasses.asdict(obj))
    if isinstance(obj, Mapping):
        return {str(k): _canonicalise(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonicalise(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if hasattr(obj, "item"):  # numpy scalars
        return _canonicalise(obj.item())
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for a cache key")


def canonical_json(obj: Any) -> str:
    """Field-order-insensitive JSON serialisation of a configuration.

    Dataclasses are flattened to dicts, every mapping is sorted by key
    (recursively) and tuples become lists, so two equal configurations
    constructed in different orders serialise identically.

    Args:
        obj: a dataclass, mapping, sequence or scalar.

    Returns:
        A compact, deterministic JSON string.
    """
    return json.dumps(
        _canonicalise(obj), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def config_digest(config: Any) -> str:
    """SHA-256 hex digest of a configuration's canonical JSON."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def content_key(kind: str, stream: Any, config: Any) -> str:
    """Content address of one (encoder, recording, config) triple.

    Args:
        kind: encoder family tag (e.g. ``"snn_spike_tensor"``,
            ``"cnn_frame"``, ``"gnn_graph"``) — namespaces the key so
            different encoders never collide on the same recording.
        stream: an event stream exposing ``.raw`` (a structured numpy
            array) and, optionally, ``.resolution``.
        config: the encoder configuration (hashed canonically).

    Returns:
        A SHA-256 hex digest addressing the encoded representation.
    """
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(stream.raw.tobytes())
    digest.update(b"\x00")
    resolution = getattr(stream, "resolution", None)
    if resolution is not None:
        digest.update(f"{resolution.width}x{resolution.height}".encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_json(config).encode("utf-8"))
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Picklable description of a representation cache.

    Attributes:
        enabled: build a cache at all (False disables memoization).
        max_entries: in-memory LRU capacity (None = unbounded).
        cache_dir: optional on-disk tier, shared across processes;
            leaves the byte-identity guarantees of the parallel
            executor (the in-memory tier is per-shard and
            deterministic, the disk tier is whatever previous runs
            left behind — counters may differ, values never do).
        shared: share one cache across every shard of a sweep instead
            of giving each shard a fresh tier.  On the serial backend
            this is a single in-memory cache; on the process backend
            it plumbs a per-run disk tier under every per-shard
            cache.  A shared cache is never bound to
            per-shard instrumentation (its hit pattern depends on
            shard scheduling), so merged snapshots stay byte-identical
            across worker counts; sweep *results* are unaffected
            either way because encodings are deterministic.
    """

    enabled: bool = True
    max_entries: int | None = 256
    cache_dir: str | None = None
    shared: bool = False

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")


_MISSING = object()


class RepresentationCache:
    """In-memory LRU (+ optional disk tier) of encoded representations.

    Values are stored as returned by the encoder — callers must treat
    them as immutable (the pipelines only read them).

    Args:
        max_entries: LRU capacity (None = unbounded).
        cache_dir: optional directory for the persistent tier; entries
            are pickled atomically (tmp file + rename).
        instrumentation: optional
            :class:`~repro.observability.Instrumentation`; when bound,
            the cache emits ``repr_cache_hits_total{kind}``,
            ``repr_cache_misses_total{kind}``,
            ``repr_cache_evictions_total`` and
            ``repr_cache_disk_errors_total{kind}``.
    """

    def __init__(
        self,
        max_entries: int | None = 256,
        cache_dir: str | Path | None = None,
        instrumentation: Any = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._obs = instrumentation
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_errors = 0

    @classmethod
    def from_config(
        cls,
        config: CacheConfig | None,
        instrumentation: Any = None,
    ) -> "RepresentationCache | None":
        """Build a cache from a :class:`CacheConfig` (None when disabled)."""
        if config is None:
            config = CacheConfig()
        if not config.enabled:
            return None
        return cls(
            max_entries=config.max_entries,
            cache_dir=config.cache_dir,
            instrumentation=instrumentation,
        )

    def bind(self, instrumentation: Any) -> "RepresentationCache":
        """Attach (or detach, with None) an observability sink; returns self."""
        self._obs = instrumentation
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _count(self, name: str, kind: str | None) -> None:
        if self._obs is None:
            return
        labels = {"kind": kind} if kind is not None else None
        self._obs.registry.counter(
            name, labels=labels, help="representation cache accounting"
        ).inc()

    def _disk_path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def _store(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("repr_cache_evictions_total", None)

    def get_or_compute(
        self, kind: str, stream: Any, config: Any, compute: Callable[[], Any]
    ) -> Any:
        """Return the cached representation of ``stream``, encoding on miss.

        Args:
            kind: encoder family tag (namespaces the key and labels the
                hit/miss counters).
            stream: the recording (must expose ``.raw``).
            config: the encoder configuration (canonically hashed, so
                field order never splits the cache).
            compute: zero-argument encoder invoked on a miss.

        Returns:
            The representation (shared object — do not mutate).
        """
        key = content_key(kind, stream, config)
        if key in self._entries:
            self.hits += 1
            self._count("repr_cache_hits_total", kind)
            self._entries.move_to_end(key)
            return self._entries[key]
        value = self._disk_load(kind, key)
        if value is not _MISSING:
            self.hits += 1
            self.disk_hits += 1
            self._count("repr_cache_hits_total", kind)
            self._store(key, value)
            return value
        self.misses += 1
        self._count("repr_cache_misses_total", kind)
        value = compute()
        self._store(key, value)
        if self.cache_dir is not None:
            self._write_disk(key, value)
        return value

    def _disk_load(self, kind: str, key: str) -> Any:
        """Disk-tier lookup: the value, or ``_MISSING`` on absence/error.

        Unreadable entries — truncated by a crashed writer, unpicklable
        payload, I/O failure — are counted as
        ``repr_cache_disk_errors_total{kind}`` and deleted so the same
        entry cannot fail again on every subsequent lookup.
        """
        if self.cache_dir is None:
            return _MISSING
        path = self._disk_path(key)
        if not path.exists():
            return _MISSING
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            ValueError,  # e.g. truncated/garbled protocol bytes
            AttributeError,
            ImportError,
            IndexError,
        ):
            self.disk_errors += 1
            self._count("repr_cache_disk_errors_total", kind)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # deletion is best-effort (e.g. read-only tier)
            return _MISSING

    def _write_disk(self, key: str, value: Any) -> None:
        """Persist one entry atomically (tmp + rename; races are benign)."""
        path = self._disk_path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)  # disk tier is best-effort

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction totals (disk hits counted inside hits)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
        }
