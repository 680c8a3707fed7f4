"""Seeded zipfian sampling.

Figure 4 varies the query-generation distribution from uniform to
zipfian with skew parameters 1.0, 1.5 and 2.0.  :class:`ZipfSampler`
draws ranks ``0 .. n-1`` with probability proportional to
``(rank + 1) ** -skew``; skew 0 is exactly uniform.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional


class ZipfSampler:
    """Draw ranks from a finite zipfian distribution."""

    def __init__(self, n: int, skew: float, rng: Optional[random.Random] = None) -> None:
        if n < 1:
            raise ValueError(f"need at least one rank, got {n}")
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew}")
        self.n = n
        self.skew = skew
        self._rng = rng or random.Random(0)
        weights = [(rank + 1) ** -skew for rank in range(n)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float drift
        self._cumulative = cumulative

    def sample(self) -> int:
        """One rank in ``[0, n)``; rank 0 is the most popular."""
        u = self._rng.random()
        return bisect.bisect_left(self._cumulative, u)
