"""Event primitives for the discrete-event kernel.

An :class:`Event` is a callback bound to a simulation time.  Events are
totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: lower priority value first, then
insertion order.  The heap stores that key as a plain tuple
``(time, priority, seq, event)``; ``seq`` is unique, so ``heapq`` never
compares two events and all ordering work stays in C.

Cancellation is lazy — a cancelled event stays on the heap but is
skipped when it reaches the head, which keeps cancellation O(1).  The
queue's live count is exact: it drops once when a still-queued event is
cancelled and once when a live event is popped, and cancelling an event
that has already fired (or was already dropped) leaves it alone.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or
    :meth:`EventQueue.push`) rather than directly.  The public surface
    is :meth:`cancel` and the read-only properties.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_cancelled", "_queued")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        # ``not >=`` also rejects NaN, which would corrupt heap order.
        if not time >= 0:
            raise ValueError(f"event time must be a non-negative number, got {time!r}")
        self.time = float(time)
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        #: Set by :meth:`EventQueue.push`, cleared by ``pop`` and
        #: ``clear``: whether cancelling still lowers the live count.
        self._queued = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once.

        For a queued event use :meth:`EventQueue.cancel` (or
        :meth:`Simulator.cancel`), which also keeps the live count exact.
        """
        self._cancelled = True

    def fire(self) -> None:
        """Invoke the callback unless cancelled."""
        if not self._cancelled:
            self.callback(*self.args)

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} prio={self.priority} {name} [{state}]>"


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        #: ``(time, priority, seq, event)`` entries, i.e. ``sort_key()``
        #: plus the event.
        self._heap: list[tuple] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        """Create and enqueue an event; returns it for cancellation."""
        seq = next(self._counter)
        event = Event(time, seq, callback, args, priority)
        event._queued = True
        _heappush(self._heap, (event.time, priority, seq, event))
        self._live += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        if heap and heap[0][3]._cancelled:
            self._drop_cancelled_head()
        return heap[0][0] if heap else None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        heap = self._heap
        if heap and heap[0][3]._cancelled:
            self._drop_cancelled_head()
        if not heap:
            return None
        event = _heappop(heap)[3]
        event._queued = False
        self._live -= 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` and keep the live count exact.

        Only an event that is still queued and not yet cancelled counts
        against the live total; cancelling one that already fired or was
        already cancelled changes nothing but its flag.
        """
        if event._cancelled:
            return
        event._cancelled = True
        if event._queued:
            self._live -= 1

    def clear(self) -> None:
        for entry in self._heap:
            entry[3]._queued = False
        self._heap.clear()
        self._live = 0

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            _heappop(heap)
