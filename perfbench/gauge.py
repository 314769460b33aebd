"""How fast the host runs Python right now, sampled through a run.

On a shared machine the speed of a vCPU swings by ±40 % over seconds to
minutes as neighbours come and go, and a slow phase looks exactly like a
regression.  :class:`SpeedGauge` samples a fixed reference loop (pure
bytecode, allocation-free, so it never triggers the collector or touches
program state) from a ``SIGALRM`` interval timer while the workload
runs.  A measured interval ``[start, end]`` is then reported in
*reference seconds*: its host duration times the nominal speed over the
speed observed during the interval.  Parent and child commits run the
same loop, so reference seconds compare like for like; the raw host
times are printed beside them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between speed samples.
INTERVAL_S = 0.02
#: Iterations of one reference sample (about 0.1 ms on a 2020s core).
REFERENCE_ITERATIONS = 400
#: The sample duration that defines "nominal speed": one reference
#: second is the host second of a machine that runs a sample this fast.
NOMINAL_SAMPLE_S = 1.0e-4


class _Slots:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 1
        self.b = 2


def _step(slots: _Slots, table: dict, i: int) -> int:
    slots.a = (slots.a * 5 + table[i & 15]) & 127
    return slots.a ^ slots.b


def reference_sample() -> float:
    """Host seconds to run the reference loop once."""
    slots = _Slots()
    table = {k: k * 3 for k in range(16)}
    started = time.perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x = (x + _step(slots, table, i)) & 255
    return time.perf_counter() - started


class SpeedGauge:
    """Speed samples taken every :data:`INTERVAL_S` while running."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._speeds: List[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        # The best of two samples filters an interrupt landing in one.
        duration = min(reference_sample(), reference_sample())
        self._times.append(time.perf_counter())
        self._speeds.append(NOMINAL_SAMPLE_S / duration)

    def __enter__(self) -> "SpeedGauge":
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    @property
    def samples(self) -> int:
        return len(self._speeds)

    def speed(self, start: float, end: float) -> float:
        """Mean speed (nominal = 1.0) over ``[start, end]``.

        Uses the samples inside the interval plus the nearest one on
        each side, so a short interval still gets the speed around it.
        """
        lo = max(0, bisect.bisect_left(self._times, start) - 1)
        hi = min(len(self._times), bisect.bisect_right(self._times, end) + 1)
        return statistics.fmean(self._speeds[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        """``end - start`` host seconds, in reference seconds."""
        return (end - start) * self.speed(start, end)

    def speed_range(self) -> Tuple[float, float]:
        return min(self._speeds), max(self._speeds)
