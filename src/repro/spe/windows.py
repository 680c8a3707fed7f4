"""The engine's one kind of operator state: a keyed sliding window.

A window predicate ``w(T)`` defines, at application time ``tau``, the
temporal relation of tuples with timestamps in ``[tau - T, tau]``
(section 4).  ``T = 0`` is CQL's ``[Now]`` (only tuples stamped exactly
``tau``); ``T = inf`` is ``[Unbounded]``.

:class:`KeyedWindow` assumes items are inserted in non-decreasing
timestamp order, which lets expiry pop from the front of a deque.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Hashable, Optional, Sequence, Tuple


class WindowError(Exception):
    """Raised on out-of-order insertion."""


class KeyedWindow:
    """Items of one input visible through a sliding window of ``size`` s.

    Items are bucketed by a caller-chosen key; a bucket keeps arrival
    order, so probing it returns exactly the window's items with that
    key in the order a scan of the whole window would meet them.  The
    scan is the one-bucket case: every item under the same key.
    """

    def __init__(self, size: float) -> None:
        if size < 0:
            raise WindowError(f"window size must be non-negative, got {size}")
        self.size = size
        self._arrivals: Deque[Tuple[float, Hashable]] = deque()
        self._buckets: Dict[Hashable, Deque[Any]] = {}
        self._last_timestamp: Optional[float] = None

    def insert(self, key: Hashable, timestamp: float, item: Any) -> None:
        """Add an item under ``key``; timestamps must be non-decreasing."""
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise WindowError(
                f"out-of-order tuple: {timestamp} after {self._last_timestamp}"
            )
        self._last_timestamp = timestamp
        self._arrivals.append((timestamp, key))
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
        bucket.append(item)

    def expire(self, now: float) -> None:
        """Drop the items that fell out of the window at ``now``.

        An item stamped ``ts`` is visible while ``now - size <= ts``;
        with an unbounded window the bound is ``-inf`` and nothing
        expires.  The oldest arrival overall is the oldest of its
        bucket, and a bucket does not outlive its last item.
        """
        bound = now - self.size
        arrivals, buckets = self._arrivals, self._buckets
        while arrivals and arrivals[0][0] < bound:
            key = arrivals.popleft()[1]
            bucket = buckets[key]
            bucket.popleft()
            if not bucket:
                del buckets[key]

    def probe(self, key: Hashable) -> Sequence[Any]:
        """The visible items under ``key``, oldest first."""
        return self._buckets.get(key, ())

    def __len__(self) -> int:
        return len(self._arrivals)
