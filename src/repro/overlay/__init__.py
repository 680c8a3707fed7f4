"""Overlay network substrate.

COSMOS organises brokers and processors into overlay dissemination
trees over a wide-area topology (section 3.2).  This package provides:

* :mod:`repro.overlay.topology` -- random wide-area topologies in the
  style of the BRITE generator used by the paper (Barabási–Albert
  power-law and Waxman models) plus shortest paths.
* :mod:`repro.overlay.tree` -- dissemination trees (minimum spanning
  tree or shortest-path tree) with path/subtree queries.
* :mod:`repro.overlay.metrics` -- per-link traffic accounting used to
  compute communication cost.
* :mod:`repro.overlay.optimizer` -- the adaptive local tree
  reorganisation of refs [18, 19] with a configurable cost function.
"""

from __future__ import annotations

from repro.overlay.metrics import LinkStats
from repro.overlay.optimizer import OverlayOptimizer, weighted_traffic_cost
from repro.overlay.topology import Topology, barabasi_albert, waxman
from repro.overlay.tree import DisseminationTree

__all__ = [
    "DisseminationTree",
    "LinkStats",
    "OverlayOptimizer",
    "Topology",
    "barabasi_albert",
    "waxman",
    "weighted_traffic_cost",
]
