"""The unicast communication substrate of pre-COSMOS systems.

Existing distributed stream processors ([4, 13]) connect each consumer
to each source point-to-point over the overlay: every subscription is
an independent flow, so a link shared by two subscriptions to the same
stream carries the (possibly identical) content once *per
subscription*.  Filtering and projection still happen at the source
(those systems push selections to the data's entry point — we grant the
baseline that optimisation so the comparison isolates *sharing*), but
nothing is shared between flows and sources must track every consumer
(the tight coupling the paper criticises).

:class:`UnicastNetwork` mirrors the
:class:`~repro.cbn.network.ContentBasedNetwork` interface (advertise /
subscribe / publish with :class:`~repro.cbn.filters.Profile`), so the
same workloads drive both and the baseline is measured, not estimated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cbn.datagram import Datagram
from repro.cbn.filters import Profile
from repro.cbn.network import Delivery, NetworkError
from repro.cql.schema import Catalog
from repro.overlay.metrics import LinkStats
from repro.overlay.topology import NodeId
from repro.overlay.tree import DisseminationTree


@dataclass
class _UnicastSubscription:
    subscription_id: str
    node: NodeId
    profile: Profile


class UnicastNetwork:
    """Point-to-point delivery of per-subscription flows.

    Every publication is matched against every subscription at the
    source ("the sources not only have to transfer data for every
    relevant query but also have to keep track of all of them") and a
    separate copy travels the overlay path to each matching subscriber.
    """

    def __init__(
        self,
        tree: DisseminationTree,
        catalog: Optional[Catalog] = None,
    ) -> None:
        self._tree = tree
        self.catalog = catalog if catalog is not None else Catalog()
        self._subscriptions: Dict[str, _UnicastSubscription] = {}
        weights = {edge: tree.weight(*edge) for edge in tree.edges}
        self.data_stats = LinkStats(weights)
        self.control_stats = LinkStats(weights)
        self._counter = itertools.count()

    # -- interface mirror of ContentBasedNetwork ---------------------------------

    def advertise(self, stream: str, node: NodeId, schema=None) -> None:
        """Unicast systems have no advertisement mechanism; the source
        address is learned out of band.  Kept for interface parity."""
        if node not in self._tree:
            raise NetworkError(f"unknown node {node}")
        if schema is not None:
            self.catalog.register(schema)

    def subscribe(
        self,
        profile: Profile,
        node: NodeId,
        subscription_id: Optional[str] = None,
    ) -> str:
        if node not in self._tree:
            raise NetworkError(f"unknown node {node}")
        if subscription_id is None:
            subscription_id = f"sub-{next(self._counter)}"
        if subscription_id in self._subscriptions:
            raise NetworkError(f"duplicate subscription id {subscription_id!r}")
        self._subscriptions[subscription_id] = _UnicastSubscription(
            subscription_id, node, profile
        )
        # The source must learn about the consumer: one control message
        # travels consumer -> source region (charged on the whole path
        # at publish-subscription time is impossible — sources are
        # unknown here — so charge the registration like a profile).
        return subscription_id

    def publish_many(
        self, datagrams: Iterable[Datagram], node: NodeId
    ) -> List[List[Delivery]]:
        """One independent flow per matching subscription, one delivery
        list per datagram.

        Mirrors :meth:`ContentBasedNetwork.publish_many` so batched
        drivers run unchanged against the baseline; the schema width
        lookup is hoisted out of the loop (once per distinct stream).
        """
        if node not in self._tree:
            raise NetworkError(f"unknown broker {node}")
        widths: Dict[str, Optional[Dict[str, int]]] = {}
        out: List[List[Delivery]] = []
        for datagram in datagrams:
            if datagram.stream not in widths:
                widths[datagram.stream] = self._widths_for(datagram.stream)
            out.append(self._route(datagram, node, widths[datagram.stream]))
        return out

    def _route(
        self,
        datagram: Datagram,
        node: NodeId,
        widths: Optional[Dict[str, int]],
    ) -> List[Delivery]:
        deliveries: List[Delivery] = []
        for sub in self._subscriptions.values():
            projected = sub.profile.apply(datagram)
            if projected is None:
                continue
            size = projected.size_bytes(widths)
            for u, v in self._tree.path_edges(node, sub.node):
                self.data_stats.record(u, v, size)
            deliveries.append(Delivery(sub.subscription_id, sub.node, projected))
        return deliveries

    def _widths_for(self, stream: str) -> Optional[Dict[str, int]]:
        if stream not in self.catalog:
            return None
        schema = self.catalog.get(stream)
        return {attr.name: attr.byte_width for attr in schema.attributes}

