"""Snapshot export: canonical JSON and Prometheus text exposition.

A snapshot (from :meth:`repro.observability.Instrumentation.snapshot`
or :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`) is a
plain dict; this module serialises it deterministically:

* :func:`to_json` — canonical JSON (sorted keys, fixed separators), so
  two identical virtual-time runs produce byte-identical artifacts —
  the property the streaming CI smoke asserts;
* :func:`to_prometheus` — the text exposition format (``# HELP`` /
  ``# TYPE`` lines, cumulative ``_bucket{le=...}`` histogram series)
  for scraping a long-running service;
* :func:`validate_snapshot` — structural schema check used by the CI
  tools before an artifact is trusted.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .metrics import MetricsRegistry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "to_json",
    "to_prometheus",
    "validate_snapshot",
]

#: Schema tag stamped on full instrumentation snapshots.
SNAPSHOT_SCHEMA = "repro.observability/1"


def to_json(snapshot: Mapping[str, Any], indent: int | None = 2) -> str:
    """Canonical JSON serialisation (deterministic for identical runs)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True) + "\n"


def _format_value(value: float | int) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _label_str(labels: Mapping[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*sorted(labels.items()), *extra]
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


def to_prometheus(snapshot: Mapping[str, Any], registry: MetricsRegistry | None = None) -> str:
    """Render a metrics snapshot in the Prometheus text format.

    Args:
        snapshot: a :meth:`MetricsRegistry.snapshot` dict, or a full
            instrumentation snapshot (its ``"metrics"`` key is used).
        registry: optional source registry for ``# HELP`` strings.

    Returns:
        The exposition text, families sorted by name.
    """
    metrics = snapshot.get("metrics", snapshot)
    lines: list[str] = []
    families: dict[str, tuple[str, list[dict]]] = {}
    for kind in ("counter", "gauge", "histogram"):
        for series in metrics.get(kind + "s", []):
            name = series["name"]
            families.setdefault(name, (kind, []))[1].append(series)
    for name in sorted(families):
        kind, series_list = families[name]
        help_text = registry.help_text(name) if registry is not None else ""
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for series in series_list:
            labels = series.get("labels", {})
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(series["buckets"], series["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f'{_label_str(labels, (("le", _format_value(bound)),))}'
                        f" {cumulative}"
                    )
                cumulative += series["counts"][-1]
                lines.append(
                    f'{name}_bucket{_label_str(labels, (("le", "+Inf"),))} '
                    f"{cumulative}"
                )
                lines.append(
                    f"{name}_sum{_label_str(labels)} {_format_value(series['sum'])}"
                )
                lines.append(f"{name}_count{_label_str(labels)} {series['count']}")
            else:
                lines.append(
                    f"{name}{_label_str(labels)} {_format_value(series['value'])}"
                )
    return "\n".join(lines) + "\n"


def _check_series(series: Any, kind: str, problems: list[str]) -> None:
    if not isinstance(series, dict):
        problems.append(f"{kind} series is not an object: {series!r}")
        return
    if not isinstance(series.get("name"), str) or not series.get("name"):
        problems.append(f"{kind} series without a name: {series!r}")
    labels = series.get("labels", {})
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        problems.append(f"{kind} {series.get('name')!r}: labels must be str->str")
    if kind == "histogram":
        buckets, counts = series.get("buckets"), series.get("counts")
        if not isinstance(buckets, list) or not buckets:
            problems.append(f"histogram {series.get('name')!r}: missing buckets")
        elif not isinstance(counts, list) or len(counts) != len(buckets) + 1:
            problems.append(
                f"histogram {series.get('name')!r}: counts must have "
                "len(buckets) + 1 entries"
            )
        if not isinstance(series.get("count"), int):
            problems.append(f"histogram {series.get('name')!r}: missing count")
    elif not isinstance(series.get("value"), (int, float)):
        problems.append(f"{kind} {series.get('name')!r}: missing numeric value")


def _check_span(span: Any, problems: list[str]) -> None:
    if not isinstance(span, dict):
        problems.append(f"trace span is not an object: {span!r}")
        return
    if not isinstance(span.get("name"), str) or not span.get("name"):
        problems.append(f"trace span without a name: {span!r}")
    for key in ("start_us", "duration_us"):
        if not isinstance(span.get(key), (int, float)):
            problems.append(f"span {span.get('name')!r}: missing {key}")
    for child in span.get("children", []):
        _check_span(child, problems)


def validate_snapshot(snapshot: Any) -> list[str]:
    """Structural problems of a full instrumentation snapshot.

    Checks the schema tag, the metrics sections (every series named and
    typed, histogram counts sized to their buckets) and the trace tree
    (every span named with numeric timestamps).  An empty list means the
    snapshot is usable; the CI smoke additionally requires at least one
    non-zero counter (a snapshot of nothing measures nothing).

    Args:
        snapshot: a parsed snapshot dict.

    Returns:
        Human-readable problem descriptions; empty when valid.
    """
    problems: list[str] = []
    if not isinstance(snapshot, dict):
        return [f"snapshot is not an object: {type(snapshot).__name__}"]
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        problems.append(
            f"schema tag {snapshot.get('schema')!r} != {SNAPSHOT_SCHEMA!r}"
        )
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("missing 'metrics' section")
    else:
        for kind in ("counter", "gauge", "histogram"):
            section = metrics.get(kind + "s")
            if not isinstance(section, list):
                problems.append(f"metrics section '{kind}s' is not a list")
                continue
            for series in section:
                _check_series(series, kind, problems)
    trace = snapshot.get("trace")
    if not isinstance(trace, list):
        problems.append("missing 'trace' section")
    else:
        for span in trace:
            _check_span(span, problems)
    return problems
