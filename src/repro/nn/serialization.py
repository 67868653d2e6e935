"""Model parameter persistence and versioned checkpoint reading.

Thin ``.npz`` save/load over :meth:`repro.nn.Module.state_dict`, so
trained pipelines can be checkpointed and experiments resumed exactly;
and :func:`read_checkpoint`, the validator of the versioned in-memory
serving-session snapshot (``async-gnn/v1``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .layers import Module

__all__ = ["save_state", "load_state", "read_checkpoint"]

_FORMAT_VERSION = 1


def save_state(model: Module, path: str | Path) -> None:
    """Write a model's parameters to an ``.npz`` checkpoint.

    Args:
        model: any :class:`Module`.
        path: destination file.
    """
    state = model.state_dict()
    np.savez_compressed(
        Path(path), __version__=np.int64(_FORMAT_VERSION), **state
    )


def load_state(model: Module, path: str | Path) -> None:
    """Restore a model's parameters from :func:`save_state` output.

    The model must have the same architecture (same parameter names and
    shapes) as the one that was saved.

    Args:
        model: the model to fill in place.
        path: checkpoint file.

    Raises:
        ValueError: on version mismatch or missing/misshapen parameters.
    """
    with np.load(Path(path)) as data:
        if "__version__" not in data:
            raise ValueError(f"{path} is not a repro checkpoint")
        if int(data["__version__"]) != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {int(data['__version__'])}")
        state = {k: data[k] for k in data.files if k != "__version__"}
    model.load_state_dict(state)


def read_checkpoint(
    state: Any, fmt: str, fields: Mapping[str, Callable[[Any], Any]]
) -> dict[str, Any]:
    """Validate a versioned snapshot dict and convert its fields.

    Changes nothing: the caller applies the returned values only after
    its own cross-field checks pass, so a rejected checkpoint never
    partially mutates the restoring object.

    Args:
        state: the snapshot, as produced by some ``snapshot()``.
        fmt: the format tag ``state["format"]`` must equal.
        fields: key → converter; each converter takes the raw value and
            returns the validated one, raising ``KeyError``,
            ``TypeError`` or ``ValueError`` on a malformed value.

    Returns:
        key → converted value, for every key of ``fields``.

    Raises:
        ValueError: naming ``fmt``, when ``state`` is not a dict, its
            tag is missing or different, a key is missing or a field
            fails conversion.
    """
    if not isinstance(state, dict):
        raise ValueError(
            f"malformed {fmt!r} checkpoint: expected a dict, "
            f"got {type(state).__name__}"
        )
    if state.get("format") != fmt:
        raise ValueError(
            f"unknown checkpoint format {state.get('format')!r}; expected {fmt!r}"
        )
    try:
        return {key: convert(state[key]) for key, convert in fields.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed {fmt!r} checkpoint (truncated or corrupt payload): {exc!r}"
        ) from exc
