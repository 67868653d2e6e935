"""Deterministic merging of per-shard observability snapshots.

Every shard of a parallel sweep records into its own
:class:`~repro.observability.Instrumentation`, timed by a
:class:`DeterministicClock` so the spans and duration histograms a
shard produces depend only on its work — never on wall time or worker
scheduling.  This module folds those per-shard snapshots into one
reconciled snapshot:

* counters **sum** across shards;
* gauges take the **max** (high-watermark semantics, matching
  :meth:`~repro.observability.metrics.Gauge.max`);
* histograms merge bucket-wise (identical bounds required — mixing
  layouts is a wiring bug, not a runtime condition);
* traces concatenate in shard-plan order.

Because the serial backend runs the *same* per-shard instrumentation
through the *same* merge, serial and parallel runs serialise to
byte-identical snapshots — the property the bit-identity tests in
``tests/test_parallel_sweeps.py`` pin down.  :func:`reconcile_shards`
then checks the shard-count invariants (``parallel_shards_total``
equals the plan size) the way
:func:`~repro.observability.export.validate_snapshot` checks the schema.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..observability import SNAPSHOT_SCHEMA, validate_snapshot

__all__ = [
    "DeterministicClock",
    "merge_metrics",
    "merge_snapshots",
    "reconcile_shards",
]

#: Label set normalised to a sortable, hashable key.
_SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


class DeterministicClock:
    """Virtual microsecond clock advancing a fixed step per reading.

    Injected into per-shard :class:`~repro.observability.Instrumentation`
    so span timestamps and duration histograms are a pure function of
    the shard's call sequence — two runs of the same shard produce
    byte-identical traces no matter the machine, load or backend.

    Args:
        start: first reading (microseconds).
        step: increment applied after every reading.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        self._now = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        now = self._now
        self._now += self._step
        return now


def _export(value: float) -> float | int:
    """Integral floats export as ints (mirrors the registry snapshot)."""
    return int(value) if float(value).is_integer() else float(value)


def _key(series: dict[str, Any]) -> _SeriesKey:
    return (series["name"], tuple(sorted(series["labels"].items())))


def merge_metrics(sections: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Fold per-shard registry snapshots into one metrics section.

    Args:
        sections: the ``metrics`` dicts of per-shard snapshots
            (``counters`` / ``gauges`` / ``histograms`` lists).

    Returns:
        A merged metrics section, series ordered by (name, labels) —
        the same canonical order a single registry snapshot uses.

    Raises:
        ValueError: when the same histogram series appears with
            different bucket bounds in two shards.
    """
    counters: dict[_SeriesKey, float] = {}
    gauges: dict[_SeriesKey, float] = {}
    histograms: dict[_SeriesKey, dict[str, Any]] = {}

    for section in sections:
        for series in section.get("counters", ()):
            key = _key(series)
            counters[key] = counters.get(key, 0.0) + float(series["value"])
        for series in section.get("gauges", ()):
            key = _key(series)
            value = float(series["value"])
            gauges[key] = max(gauges.get(key, value), value)
        for series in section.get("histograms", ()):
            key = _key(series)
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "buckets": list(series["buckets"]),
                    "counts": list(series["counts"]),
                    "sum": float(series["sum"]),
                    "count": int(series["count"]),
                }
                continue
            if merged["buckets"] != list(series["buckets"]):
                raise ValueError(
                    f"histogram {series['name']!r} has mismatched bucket "
                    f"bounds across shards: {merged['buckets']} vs "
                    f"{list(series['buckets'])}"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], series["counts"])
            ]
            merged["sum"] += float(series["sum"])
            merged["count"] += int(series["count"])

    return {
        "counters": [
            {"name": name, "labels": dict(labels), "value": _export(value)}
            for (name, labels), value in sorted(counters.items())
        ],
        "gauges": [
            {"name": name, "labels": dict(labels), "value": _export(value)}
            for (name, labels), value in sorted(gauges.items())
        ],
        "histograms": [
            {
                "name": name,
                "labels": dict(labels),
                "buckets": [_export(b) for b in data["buckets"]],
                "counts": list(data["counts"]),
                "sum": _export(round(data["sum"], 6)),
                "count": data["count"],
            }
            for (name, labels), data in sorted(histograms.items())
        ],
    }


def merge_snapshots(snapshots: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Fold full per-shard instrumentation snapshots into one.

    Metrics merge per :func:`merge_metrics`; traces concatenate in the
    given (shard-plan) order.  The result carries the same schema tag
    as a single-run snapshot and passes
    :func:`~repro.observability.export.validate_snapshot`.

    Args:
        snapshots: per-shard ``Instrumentation.snapshot()`` dicts, in
            shard-plan order.

    Returns:
        One reconciled snapshot.

    Raises:
        ValueError: on an unknown schema tag or mismatched histogram
            buckets.
    """
    for snapshot in snapshots:
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"cannot merge snapshot with schema "
                f"{snapshot.get('schema')!r} (expected {SNAPSHOT_SCHEMA!r})"
            )
    trace: list[Any] = []
    for snapshot in snapshots:
        trace.extend(snapshot.get("trace", ()))
    return {
        "schema": SNAPSHOT_SCHEMA,
        "metrics": merge_metrics([s["metrics"] for s in snapshots]),
        "trace": trace,
    }


def _counter_total(snapshot: dict[str, Any], name: str) -> float:
    return sum(
        float(series["value"])
        for series in snapshot.get("metrics", {}).get("counters", ())
        if series["name"] == name
    )


def reconcile_shards(
    snapshot: dict[str, Any], num_shards: int, num_cells: int
) -> list[str]:
    """Structural + shard-count problems of a merged snapshot.

    Every shard increments ``parallel_shards_total`` once and
    ``parallel_cells_total`` per cell, so the merged totals must equal
    the plan — a lost or double-merged shard shows up here even when
    the snapshot is otherwise well-formed.

    Args:
        snapshot: a merged snapshot (:func:`merge_snapshots` output).
        num_shards: shard-plan size.
        num_cells: total grid cells across the plan.

    Returns:
        Human-readable problem descriptions; empty when reconciled.
    """
    problems = validate_snapshot(snapshot)
    shards = _counter_total(snapshot, "parallel_shards_total")
    if int(shards) != num_shards:
        problems.append(
            f"parallel_shards_total {int(shards)} != plan size {num_shards}"
        )
    cells = _counter_total(snapshot, "parallel_cells_total")
    if int(cells) != num_cells:
        problems.append(
            f"parallel_cells_total {int(cells)} != grid size {num_cells}"
        )
    return problems
