"""Replayable chaos traces and schedule shrinking.

A :class:`ChaosTrace` is the canonical record of one chaos run: one
line per executed event, stated entirely in primitives with all
set-order leaks removed (payloads sorted, counters instead of delivery
lists), so two runs of the same seed produce *byte-identical* traces —
across processes and regardless of ``PYTHONHASHSEED``.  The short
digest printed on failure lines is how CI logs and local replays are
matched up.

:func:`shrink_schedule` reduces a failing schedule to a 1-minimal one
with the classic ddmin loop: repeatedly try dropping chunks of events
(halving granularity down to single events) while the caller's
``fails`` predicate keeps failing.  Because schedules are fully
resolved (no RNG at execution), deleting events is always meaningful.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Sequence


class ChaosTrace:
    """An append-only, deterministic record of one chaos run."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def record(self, line: str) -> None:
        self._lines.append(line)

    def render(self) -> str:
        return "\n".join(self._lines)

    def digest(self) -> str:
        """A short stable digest of the full trace (CI log / replay key)."""
        return hashlib.sha256(self.render().encode("utf-8")).hexdigest()[:12]

    def __len__(self) -> int:
        return len(self._lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChaosTrace):
            return NotImplemented
        return self._lines == other._lines

    def __repr__(self) -> str:
        return f"ChaosTrace({len(self._lines)} lines, digest={self.digest()})"


def shrink_schedule(
    events: Sequence[object],
    fails: Callable[[List[object]], bool],
    max_runs: int = 500,
) -> List[object]:
    """Shrink a failing event list to a 1-minimal failing sublist.

    ``fails(candidate)`` must return ``True`` while the failure
    reproduces.  The input must itself fail.  Event order is preserved
    (schedules are time-sorted and stay so under deletion).  The
    result is 1-minimal when the run budget allows: removing any single
    remaining event makes the failure disappear.
    """
    current = list(events)
    if not fails(current):
        raise ValueError("shrink_schedule needs a failing schedule to start from")
    runs = 0
    granularity = 2
    while len(current) >= 2 and runs < max_runs:
        chunk = max(1, len(current) // granularity)
        shrunk = False
        start = 0
        while start < len(current) and runs < max_runs:
            candidate = current[:start] + current[start + chunk :]
            if not candidate:
                start += chunk
                continue
            runs += 1
            if fails(candidate):
                current = candidate
                shrunk = True
                # Re-try from the same offset: the next chunk slid in.
            else:
                start += chunk
        if shrunk:
            granularity = max(granularity - 1, 2)
        elif chunk == 1:
            break  # 1-minimal
        else:
            granularity = min(granularity * 2, len(current))
    return current
