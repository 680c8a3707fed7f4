"""The naive CBN data plane: the reference the router is checked against.

At every broker a datagram reaches, every profile behind every interface
that holds an entry is evaluated against it (:meth:`Profile.covers` /
:meth:`Profile.apply`, each filter of the datagram's stream through
:meth:`Filter.covers`): no per-stream index, no compiled plans, no routes,
no memo across datagrams, no batching, and no evaluator shared with the
production router.  A tree neighbour whose interface holds no entry is not
scanned at all, as scanning it would evaluate no profile and forward
nothing.  The control plane is the production one, so deliveries and
``LinkStats`` must equal :class:`ContentBasedNetwork`'s.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.cbn.routing import ForwardDecision, RoutingTable
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


class ReferenceNetwork(ContentBasedNetwork):
    """A CBN whose publications take the naive scan, one datagram at a time."""

    def publish_many(
        self, datagrams: Iterable[Datagram], node: NodeId
    ) -> List[List[Delivery]]:
        self.table(node)  # unknown brokers raise as in production
        return [self._scan(datagram, node) for datagram in datagrams]

    def _scan(self, datagram: Datagram, node: NodeId) -> List[Delivery]:
        widths = self._widths_for(datagram.stream)
        tree = self.tree
        deliveries: List[Delivery] = []
        #: (broker to process, interface it arrived from, datagram copy)
        stack: List[tuple] = [(node, None, datagram)]
        while stack:
            here, arrived_from, current = stack.pop()
            table = self.table(here)
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
                self.data_stats.record(here, neighbor, outgoing.size_bytes(widths))
                stack.append((neighbor, here, outgoing))
        return deliveries


def as_reference(system: CosmosSystem) -> CosmosSystem:
    """Make ``system`` the shadow twin by re-classing its network in place
    (no state is added; a repair moves the same network object onto the
    new tree — ``ContentBasedNetwork.retree`` — so the class survives it)."""
    system.network.__class__ = ReferenceNetwork
    return system
