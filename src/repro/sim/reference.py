"""The naive CBN data plane: the reference the router is checked against.

At every broker a datagram reaches, every profile behind every interface
that holds an entry is evaluated against it (:meth:`Profile.covers` /
:meth:`Profile.apply`, each filter of the datagram's stream through
:meth:`Filter.covers`): no per-stream index, no compiled plans, no routes,
no memo across datagrams, no batching, and no evaluator shared with the
production router.  A tree neighbour whose interface holds no entry is not
scanned at all, as scanning it would evaluate no profile and forward
nothing.

:func:`check_publications` re-classes a system's network in place as a
:class:`CheckedNetwork`: every publication is routed by the production
data plane and then scanned here over the *same* tables, and any
difference is recorded.  One set of tables is enough because the data
plane never writes a routing table: the router reads each table's
per-stream index, the scan reads its entries, and only the control plane
(shared by both) writes either.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.cbn.routing import ForwardDecision, RoutingTable
from repro.overlay.metrics import LinkStats
from repro.overlay.topology import NodeId
from repro.system.cosmos import CosmosSystem


def decide(
    table: RoutingTable, interface: object, datagram: Datagram
) -> ForwardDecision:
    """:meth:`RoutingTable.decide` by scanning every entry of ``interface``."""
    needed: Set[str] = set()
    wants_all = forward = False
    for profile in table.entries(interface).values():
        if not profile.covers(datagram):
            continue
        forward = True
        projection = profile.projection_for(datagram.stream)
        wants_all = wants_all or projection == ALL_ATTRIBUTES
        needed |= projection
        # Attributes the downstream filters evaluate must survive, or the
        # profile could not recognise the datagram at the next hop.
        for flt in profile.filters_for(datagram.stream):
            needed |= flt.condition.referenced_terms()
    attributes = None if wants_all or not forward else frozenset(needed)
    return ForwardDecision(forward, attributes)


def local_deliveries(
    table: RoutingTable, datagram: Datagram
) -> List[Tuple[str, Datagram]]:
    """:meth:`RoutingTable.local_deliveries` by scanning every local entry."""
    return [
        (sid, projected)
        for sid, profile in table.entries(RoutingTable.LOCAL).items()
        if (projected := profile.apply(datagram)) is not None
    ]


def scan(
    network: ContentBasedNetwork, datagram: Datagram, node: NodeId, stats: LinkStats
) -> List[Delivery]:
    """Route ``datagram`` from broker ``node`` through ``network``'s tables
    by the naive scan, recording its links on ``stats``."""
    widths = network._widths_for(datagram.stream)
    tree = network.tree
    deliveries: List[Delivery] = []
    #: (broker to process, interface it arrived from, datagram copy)
    stack: List[tuple] = [(node, None, datagram)]
    while stack:
        here, arrived_from, current = stack.pop()
        table = network.table(here)
        for sid, projected in local_deliveries(table, current):
            deliveries.append(Delivery(sid, here, projected))
        held = table.interfaces
        for neighbor in sorted(tree.neighbors(here)):
            if neighbor == arrived_from or neighbor not in held:
                continue
            decision = decide(table, neighbor, current)
            if not decision.forward:
                continue
            keep = decision.attributes
            outgoing = current if keep is None else current.project(keep)
            stats.record(here, neighbor, outgoing.size_bytes(widths))
            stack.append((neighbor, here, outgoing))
    return deliveries


def _snapshot(deliveries: List[Delivery]) -> list:
    """What a delivery list must agree on, payload key order included."""
    return [
        (d.subscription_id, d.node, d.datagram, tuple(d.datagram.payload))
        for d in deliveries
    ]


class CheckedNetwork(ContentBasedNetwork):
    """A CBN that scans each publication after routing it and records
    where the two disagree (set up by :func:`check_publications`)."""

    #: the scan's per-link accounting, to compare with ``data_stats``
    reference_stats: LinkStats
    #: one line per publication whose deliveries differed from the scan's
    mismatches: List[str]
    #: publications routed and scanned
    checked: int

    def publish_many(
        self, datagrams: Iterable[Datagram], node: NodeId
    ) -> List[List[Delivery]]:
        datagrams = list(datagrams)
        routed = super().publish_many(datagrams, node)
        for datagram, fast in zip(datagrams, routed):
            naive = scan(self, datagram, node, self.reference_stats)
            self.checked += 1
            if _snapshot(fast) != _snapshot(naive):
                self.mismatches.append(
                    f"fast-vs-naive: publication {self.checked} "
                    f"({datagram.stream} from node {node}) diverged: "
                    f"{len(fast)} deliveries, the scan made {len(naive)}"
                )
        return routed


def check_publications(system: CosmosSystem) -> CheckedNetwork:
    """Check every later publication of ``system`` against the scan, by
    re-classing its network in place (a repair moves the same network
    object onto the new tree — ``ContentBasedNetwork.retree`` — so the
    class survives it)."""
    network = system.network
    network.__class__ = CheckedNetwork
    network.reference_stats = LinkStats()
    network.mismatches = []
    network.checked = 0
    return network
