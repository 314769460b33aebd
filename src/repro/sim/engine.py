"""The discrete-event simulation engine.

:class:`Simulator` owns the clock, the event heap, the named random
streams, and the metrics registry.  Components receive the simulator at
construction and interact with simulated time exclusively through it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricsRegistry
from repro.sim.perf import PerfRegistry
from repro.sim.rng import RandomStreams

# Priorities for simultaneous events: infrastructure state changes fire
# before application logic reads them, and bookkeeping runs last.
PRIORITY_RADIO = -10
PRIORITY_DEFAULT = 0
PRIORITY_BOOKKEEPING = 10


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = SimClock(start_time)
        self.rng = RandomStreams(seed)
        self.metrics = MetricsRegistry()
        #: Wall-clock perf probes for hot paths; never feeds the
        #: simulation, so instrumentation cannot perturb determinism.
        self.perf = PerfRegistry()
        self._queue = EventQueue()
        self._running = False
        self._event_count = 0
        self._device_events = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        # One hop to the clock's slot; SimClock still owns time.
        return self.clock._now

    @property
    def events_processed(self) -> int:
        return self._event_count

    @property
    def device_events(self) -> int:
        """Per-device work units folded into batched events.

        A struct-of-arrays component (``repro.core.deviceplane``)
        advances thousands of devices inside one heap event, so
        :attr:`events_processed` alone under-counts the work done.
        Batched components report their per-device operation counts
        here via :meth:`note_device_events`; throughput scorecards use
        this as the events/s numerator for vectorized tiers.
        """
        return self._device_events

    def note_device_events(self, count: int) -> None:
        """Credit ``count`` per-device operations to a batched event."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count!r}")
        self._device_events += count

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        # ``not >=`` also rejects NaN, which would corrupt heap order.
        if not delay >= 0:
            raise ValueError(f"delay must be a non-negative number, got {delay!r}")
        return self._queue.push(self.clock._now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        now = self.clock._now
        if not time >= now:
            if time != time:
                raise ValueError(f"event time must not be NaN, got {time!r}")
            raise ValueError(
                f"cannot schedule in the past: now={now!r}, requested={time!r}"
            )
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event.

        None, an already-cancelled event and one that has already fired
        are no-ops for the pending count.
        """
        if event is not None:
            self._queue.cancel(event)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Process events until the heap empties, ``until`` is reached,
        or ``max_events`` have fired.  Returns the number of events
        processed by this call.

        When ``until`` is given the clock is advanced to exactly
        ``until`` on return even if the last event fired earlier, so
        residency-based energy accounting covers the full window.
        """
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        self._running = True
        # The hot loop: the queue's methods stay the only way events
        # leave the heap, the clock is advanced in place, and
        # ``_event_count`` is bumped after each callback so it is exact
        # even when a callback reads it or raises.
        clock = self.clock
        peek_time = self._queue.peek_time
        pop = self._queue.pop
        horizon = math.inf if until is None else until
        cap = math.inf if max_events is None else max_events
        processed = 0
        try:
            while processed < cap:
                next_time = peek_time()
                if next_time is None or next_time > horizon:
                    break
                event = pop()
                time = event.time
                if time < clock._now:
                    clock.advance_to(time)  # raises: the heap is corrupt
                clock._now = time
                event.callback(*event.args)  # pop returns only live events
                processed += 1
                self._event_count += 1
            if until is not None and until > clock._now:
                clock.advance_to(until)
        finally:
            self._running = False
        return processed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Process events for ``duration`` seconds of simulated time."""
        if not duration >= 0:
            raise ValueError(
                f"duration must be a non-negative number, got {duration!r}"
            )
        return self.run(until=self.now + duration, max_events=max_events)
