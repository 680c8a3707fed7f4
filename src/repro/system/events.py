"""A minimal discrete-event simulator.

Source streams in the examples are replayed through this simulator so
arrivals interleave in global timestamp order — the ordering contract
of the SPE.  Events at equal times fire in scheduling order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class SimulationError(Exception):
    """Raised when scheduling into the past."""


class EventSimulator:
    """Priority-queue discrete-event loop."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        heapq.heappush(self._queue, (time, next(self._sequence), action))

    def schedule_in(self, delay: float, action: Callable[[], None]) -> None:
        self.schedule(self._now + delay, action)

    def step(self) -> Optional[float]:
        """Process exactly one event; returns its time (``None`` if idle).

        The clock advances to the fired event's time.  This is the
        single-event API the chaos replayer uses to interleave its own
        bookkeeping (trace records, oracle snapshots) between events
        without giving up the simulator's global time ordering.
        """
        if not self._queue:
            return None
        time, __, action = heapq.heappop(self._queue)
        self._now = time
        action()
        return time

    def run(self, until: Optional[float] = None) -> int:
        """Process events (up to ``until``, inclusive); returns the count.

        Clock semantics: after the call, ``now`` is the time of the last
        processed event — except that when ``until`` is given and lies
        *ahead* of that time, the clock advances to ``until`` even if no
        event fired there (simulated time passed idly).  An ``until`` in
        the past (``until < now``) processes nothing that would rewind
        the clock and leaves ``now`` unchanged: the clock is monotone.
        """
        processed = 0
        while self._queue:
            time, __, action = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self._now = time
            action()
            processed += 1
        if until is not None and until > self._now:
            self._now = until
        return processed
