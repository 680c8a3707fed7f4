"""Baseline architectures the paper argues against.

The introduction contrasts COSMOS with existing distributed stream
systems ([4, 13]) that "simply adopted the unicast communication
paradigm": each query is planned separately and its streams travel
point-to-point, so two queries with common data interest transfer the
common content twice.  :mod:`repro.baselines.unicast` implements that
architecture with the same profile/feed machinery as the CBN, so the
two can be compared on identical workloads
(``benchmarks/test_baseline_unicast.py``).
"""

from __future__ import annotations

from repro.baselines.unicast import UnicastNetwork

__all__ = ["UnicastNetwork"]
