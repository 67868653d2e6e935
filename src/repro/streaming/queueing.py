"""Bounded ingest queue with watermark signals and deadline expiry.

The ingest stage of the streaming executor: arriving event windows wait
here for the (single, virtual-time) server.  The queue is strictly
bounded — when full, pushing evicts the *oldest* ticket and returns it
so the caller can account for the shed window — and exposes its depth
for the watermark-based backpressure decisions of the
:class:`~repro.streaming.shedding.ShedController`.  Tickets carry an
absolute deadline; windows that would start service after it are
expired by the executor rather than processed late (stale inference on
event data is worthless — the scene has moved on).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from numbers import Integral

from ..events.stream import EventStream

__all__ = ["WindowTicket", "BoundedWindowQueue"]


def check_capacity(capacity: object, name: str) -> None:
    """Reject a queue bound that is not an ``int`` >= 1.

    A float bound would silently switch the bound off (``nan``: every
    depth comparison is False, so nothing is ever evicted) or loosen it
    (``2.5`` holds three tickets).
    """
    if (
        not isinstance(capacity, Integral)
        or isinstance(capacity, bool)
        or capacity < 1
    ):
        raise ValueError(f"{name} must be an int >= 1, got {capacity!r}")


@dataclass
class WindowTicket:
    """One event window in flight through the executor.

    Attributes:
        index: window sequence number (0-based arrival order).
        arrival_us: virtual arrival time at the ingest queue.
        deadline_us: absolute virtual time after which starting service
            is pointless; the executor expires the ticket instead.
        stream: the (possibly shed) events of the window.
    """

    index: int
    arrival_us: float
    deadline_us: float
    stream: EventStream


@dataclass
class BoundedWindowQueue:
    """Bounded FIFO of :class:`WindowTicket`, oldest evicted when full.

    Attributes:
        capacity: maximum pending tickets (an ``int`` >= 1).
        max_depth: deepest the queue has been (high-watermark telemetry).
    """

    capacity: int
    max_depth: int = 0
    _items: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        check_capacity(self.capacity, "capacity")

    @property
    def depth(self) -> int:
        """Current number of pending tickets."""
        return len(self._items)

    def push(self, ticket: WindowTicket) -> WindowTicket | None:
        """Enqueue a ticket; returns the evicted oldest ticket when full.

        Eviction (rather than rejecting the newcomer) implements the
        drop-*oldest* discipline: under sustained overload the freshest
        data is the most valuable, and the oldest queued window is the
        one closest to its deadline anyway.
        """
        evicted: WindowTicket | None = None
        if len(self._items) >= self.capacity:
            evicted = self._items.popleft()
        self._items.append(ticket)
        self.max_depth = max(self.max_depth, len(self._items))
        return evicted

    def pop(self) -> WindowTicket:
        """Dequeue the oldest ticket."""
        return self._items.popleft()

    def peek(self) -> WindowTicket:
        """The oldest ticket, without removing it."""
        return self._items[0]

    def drop_oldest(self) -> WindowTicket | None:
        """Explicitly evict the oldest ticket (DROP_OLDEST tier action)."""
        if not self._items:
            return None
        return self._items.popleft()
