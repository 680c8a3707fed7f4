"""Figure 3: shared vs non-shared result stream delivery, measured.

Reconstructs the motivating example end to end on the exact overlay of
Figure 3: processor ``n1`` connected to broker ``n2``, users at ``n3``
and ``n4`` issuing the Table 1 queries q1 and q2.  Two full systems are
run on the same auction feed:

* **non-share** — merging disabled: q1 and q2 each run on the SPE and
  their result streams ``s1``/``s2`` travel separately, so the
  ``n1 - n2`` link carries the overlapping content twice (Figure 3(a));
* **share** — merging enabled: the representative q3 runs once, one
  stream ``s3`` crosses ``n1 - n2``, and the CBN splits it at ``n2``
  using the re-tightening profiles p1/p2 (Figure 3(b)).

Both systems must deliver *identical* per-user results; the measured
bytes on the shared link quantify the saving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cbn.datagram import Datagram
from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem
from repro.workload.auction import (
    AuctionWorkload,
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)

#: Node ids of the Figure 3 overlay.
N1, N2, N3, N4 = 1, 2, 3, 4


@dataclass
class Fig3Result:
    """Measured traffic of both delivery modes."""

    n_items: int
    q1_results: int
    q2_results: int
    results_identical: bool
    shared_link_bytes_nonshare: float
    shared_link_bytes_share: float
    total_bytes_nonshare: float
    total_bytes_share: float

    @property
    def shared_link_saving(self) -> float:
        """Fraction of n1-n2 traffic removed by sharing."""
        if self.shared_link_bytes_nonshare == 0:
            return 0.0
        return 1.0 - self.shared_link_bytes_share / self.shared_link_bytes_nonshare


def _figure3_tree() -> DisseminationTree:
    edges = [(N1, N2), (N2, N3), (N2, N4)]
    weights = {edge: 1.0 for edge in edges}
    return DisseminationTree(edges, weights)


def _build_system(merging: bool) -> CosmosSystem:
    system = CosmosSystem(
        _figure3_tree(), processor_nodes=[N1], merging=merging
    )
    system.add_source(OPEN_AUCTION_SCHEMA, N1)
    system.add_source(CLOSED_AUCTION_SCHEMA, N1)
    return system


def run_fig3(n_items: int = 200, seed: int = 11) -> Fig3Result:
    """Run both delivery modes on one auction feed and compare."""
    feed = AuctionWorkload(random.Random(seed)).feed(n_items)

    def run(merging: bool) -> Tuple[CosmosSystem, List[Datagram], List[Datagram]]:
        system = _build_system(merging)
        h1 = system.submit(TABLE1_Q1, user_node=N3, name="q1")
        h2 = system.submit(TABLE1_Q2, user_node=N4, name="q2")
        system.replay(feed)
        return system, h1.results, h2.results

    nonshare_system, ns_q1, ns_q2 = run(merging=False)
    share_system, sh_q1, sh_q2 = run(merging=True)

    identical = _result_sets_equal(ns_q1, sh_q1) and _result_sets_equal(
        ns_q2, sh_q2
    )
    # Only result-stream traffic is compared; source delivery up to the
    # processor is identical in both systems (same node hosts the SPE).
    ns_link = nonshare_system.network.data_stats.usage(N1, N2).bytes
    sh_link = share_system.network.data_stats.usage(N1, N2).bytes
    return Fig3Result(
        n_items=n_items,
        q1_results=len(sh_q1),
        q2_results=len(sh_q2),
        results_identical=identical,
        shared_link_bytes_nonshare=ns_link,
        shared_link_bytes_share=sh_link,
        total_bytes_nonshare=nonshare_system.network.data_stats.total_bytes(),
        total_bytes_share=share_system.network.data_stats.total_bytes(),
    )


def _result_sets_equal(a: List[Datagram], b: List[Datagram]) -> bool:
    def key(d: Datagram) -> Tuple:
        return (d.timestamp, tuple(sorted(d.payload.items())))

    return sorted(map(key, a)) == sorted(map(key, b))
