"""Small statistics the harness needs: percentiles, spreads, verdicts."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles the harness knows how to name, ascending.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Equal-count chunks a rate is taken over (see :func:`chunked_rate`).
RATE_CHUNKS = 20


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it.

    The choosing-metrics rule: p95 needs 200 samples, p99 needs 1 000.
    ``None`` when not even the median qualifies (fewer than 20).
    """
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def _chunks(n: int, at_least: float) -> int:
    """How many equal-count chunks ``n`` samples are cut into: up to
    :data:`RATE_CHUNKS`, none smaller than ``at_least`` samples."""
    return max(1, min(RATE_CHUNKS, int(n // at_least)))


def chunked_rate(work: Sequence[float], seconds: Sequence[float]) -> float:
    """Median over equal-count chunks of ``sum(work) / sum(seconds)``.

    A contention burst on the shared box lands in one or two chunks and
    moves their rate, not the median — where the plain total would carry
    the whole burst.  Chunks hold at least ten calls.
    """
    n = len(seconds)
    if n == 0 or len(work) != n:
        raise ValueError("chunked_rate needs matching, non-empty samples")
    chunks = _chunks(n, 10)
    rates = []
    for index in range(chunks):
        lo, hi = index * n // chunks, (index + 1) * n // chunks
        rates.append(sum(work[lo:hi]) / sum(seconds[lo:hi]))
    return statistics.median(rates)


def chunked_percentile(samples: Sequence[float], p: float) -> float:
    """Median over equal-count chunks of each chunk's percentile ``p``.

    The same defence as :func:`chunked_rate`, for latencies: under
    contention a tail grows several times more than the median does, so
    a pooled p99 follows the noisiest tenth of the run.  A chunk is
    never smaller than the percentile needs (ten samples beyond it:
    1 000 for p99), so a short run is one chunk and this is the plain
    percentile.
    """
    n = len(samples)
    chunks = _chunks(n, 10.0 / (1.0 - p / 100.0))
    return statistics.median(
        percentile(samples[index * n // chunks:(index + 1) * n // chunks], p)
        for index in range(chunks)
    )


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric over reps."""
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(summary: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(
    old: Dict[str, float], new: Dict[str, float], better: str, bound: float
) -> str:
    """``better`` / ``worse`` / ``within`` / ``unresolved`` for one metric.

    ``old`` and ``new`` are :func:`summarise` outputs.  A metric whose
    run-to-run spread on either side is wider than its bound cannot be
    told from noise: it is *unresolved*, never *within*.
    """
    if max(spread(old), spread(new)) > bound:
        return "unresolved"
    if old["median"] == new["median"]:
        return "within"
    change = (new["median"] - old["median"]) / abs(old["median"])
    if better == "higher":
        change = -change
    # ``change`` is now the share by which the metric got worse.
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"
