"""The content-based network: advertisement, subscription, publication.

This is the data layer of COSMOS.  Brokers sit on a dissemination tree;
sources *advertise* the streams they publish, receivers *subscribe*
data-interest profiles, and published datagrams are routed hop-by-hop:
at every broker the datagram is delivered to covering local subscribers
and forwarded on each interface behind which a covering profile lives,
projected down to the attributes actually requested downstream (early
projection).

Subscription propagation is advertisement-scoped (profiles only travel
toward the advertised publishers of their streams, the Siena model), on
the one dissemination tree every stream shares.

All data traffic is accounted in :attr:`ContentBasedNetwork.data_stats`
and control traffic (subscriptions, advertisements) in
:attr:`ContentBasedNetwork.control_stats`.

The control plane
-----------------
Routing state is soft state that subscribers, processors and the overlay
optimizer rewrite continuously, so maintaining it costs in proportion to
the change, not to the population.  Every subscription carries its
*footprint*: the ``(stream, publisher)`` keys it was propagated toward.
Each propagation laid an entry at every hop — ``(broker, interface)`` —
of the current tree's path from the subscriber to the publisher, and
:meth:`retree` re-lays every path a tree change moves, so the path is
read off the tree when it is needed and the footprint stores no hop; a
``stream -> subscription ids`` registry says who requests a stream.  The
footprint is the only way forwarding entries are removed
(:meth:`RoutingTable.discard`, exact): :meth:`unsubscribe` visits the
tables on the subscription's own paths, and :meth:`retree` keeps every
table and re-lays exactly the paths that cross an edge the new tree
lacks, so a table off those paths is not touched and a stream off them
is not reported.  It finds those paths from the tables at the ends of
each removed edge — an entry sits behind the interface pointing back at
its subscriber, and :func:`entry_owner` names the subscription — so it
reads no footprint but the crossing subscriptions'.  There is no
full-walk or full-replay fallback; the oracle in the tests is a fresh
build on the current tree.

An entry holds a profile object the hops share: a subscription that
requests one stream lays its own profile (and so its one matcher, which
its LOCAL entry uses too) at every hop of every path; one that requests
several lays, per stream, the one restriction of its profile to that
stream (:meth:`Profile.restricted_to`).

The data plane
--------------
Publication is the dominant cost of every experiment, so publishes run
on cached state: per stream the network memoizes the schema width
table, each broker's *candidate interfaces* (the neighbours that have
any entry for the stream), the stream's distinct filter conjunctions
and a bounded *route cache*.  These facts are the data plane's one
memo, kept **per stream**: every routing mutation
(install/discard/remove_interface, reached via
subscribe/unsubscribe/advertise/retree) reports the streams it touched
through :attr:`RoutingTable.on_change`, which drops the facts of
exactly those streams, and facts built before the last catalog
registration are rebuilt, so the next publish only rebuilds the facts
of streams that actually moved.  They hold no tree: a tree change
reaches a stream through the entries :meth:`retree` withdraws and lays,
so a stream no changed edge touched replays warm routes after a
repair.

:meth:`ContentBasedNetwork.publish_many` is the one entry point and
:meth:`ContentBasedNetwork._route` the one routine behind it.  A
datagram is *classified once*, at its origin — origin broker, attribute
tuple, whether it carries a ``seq``, the value types the schema does
not price, and the outcomes of the stream's distinct conjunctions on
the payload, read as one bit mask off a per-stream attribute index
(:class:`~repro.cql.predicates.OutcomeIndex`) — and every decision of
the hop-by-hop walk (:meth:`_walk`, over :meth:`RoutingTable.decide` /
:meth:`RoutingTable.local_deliveries`) is a function of that class and
of the routing state the facts are kept for.  The walk evaluates no
condition: it reads each entry's coverage off those outcome bits
(:class:`~repro.cbn.routing.ConditionBits`).  So the first
datagram of a class walks and its route — the links crossed with their
byte sizes, the deliveries with their projections — is remembered;
every later one replays it: one index probe per constrained attribute,
one copy per distinct projection, one template per delivery and one
:class:`~repro.overlay.metrics.Tally` bump for all its links.  The walk
is the only definition of routing; the scan-every-profile reference it
is checked against lives in :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.cbn.datagram import Datagram
from repro.cbn.filters import Profile
from repro.cbn.routing import ConditionBits, RoutingTable
from repro.cql.predicates import Conjunction, OutcomeIndex
from repro.cql.schema import Catalog, StreamSchema
from repro.overlay.metrics import LinkStats, Tally
from repro.overlay.topology import Edge, NodeId, edge_key
from repro.overlay.tree import DisseminationTree


class NetworkError(Exception):
    """Raised for operations on unknown nodes/subscriptions."""


class Delivery(NamedTuple):
    """One datagram delivered to one subscriber."""

    subscription_id: str
    node: NodeId
    datagram: Datagram


#: Where one routing entry sits: (broker holding it, the interface —
#: neighbour toward the subscriber — it is stored behind).
Hop = Tuple[NodeId, NodeId]

#: One propagation of a subscription: (stream, publisher it was laid
#: toward).
_PathKey = Tuple[str, NodeId]


def entry_id(subscription_id: str, stream: str) -> str:
    """The id of ``subscription_id``'s forwarding entry for ``stream``
    (its LOCAL entry is keyed by the subscription id itself)."""
    return f"{subscription_id}#{stream}"


def entry_owner(entry: str, stream: str) -> str:
    """The subscription whose forwarding entry for ``stream`` is
    ``entry``: :func:`entry_id` inverted.  A subscription id may hold a
    ``#`` itself, so the stream is cut off the end, not split off at
    the first ``#``."""
    return entry[: len(entry) - len(stream) - 1]


@dataclass
class _Subscription:
    subscription_id: str
    node: NodeId
    profile: Profile
    #: The *footprint*: the propagations that laid forwarding entries, in
    #: laying order (an ordered set).  Each laid one at every hop of the
    #: current tree's path from ``node`` to its publisher
    #: (:meth:`ContentBasedNetwork._paths`), so the keys are the only
    #: record of where this subscription's forwarding entries are, and so
    #: the only way they are removed.
    footprint: Dict[_PathKey, None] = field(default_factory=dict)


@dataclass
class _Advertisement:
    stream: str
    node: NodeId


#: Route classes remembered per stream.  A constant, not an option: the
#: benchmark's workloads peak at 40 classes on one stream; a stream
#: with more keeps the first ``_ROUTE_CLASSES`` and walks for the rest.
#: It bounds the per-stream memo of attribute tuples too.
_ROUTE_CLASSES = 256


class _Route(NamedTuple):
    """What the walk did with the first datagram of a class."""

    #: (canonical edge, bytes) per link crossed, in crossing order; one
    #: use per datagram routed on ``data_stats``
    tally: Tally
    #: the distinct attribute tuples deliveries were projected to
    views: Tuple[Tuple[str, ...], ...]
    #: (subscription id, broker, index into ``views`` — -1: the whole
    #: datagram) per delivery, in delivery order
    deliveries: Tuple[Tuple[str, NodeId, int], ...]

    @classmethod
    def of(
        cls,
        links: List[Tuple[Edge, float]],
        deliveries: List["Delivery"],
        attributes: Tuple[str, ...],
    ) -> "_Route":
        """The route a walk over a datagram carrying ``attributes``
        produced (projection keeps payload order, so a delivered
        payload's key tuple says which projection it is)."""
        views: Dict[Tuple[str, ...], int] = {}
        templates = []
        for delivery in deliveries:
            kept = tuple(delivery.datagram.payload)
            view = -1 if kept == attributes else views.setdefault(kept, len(views))
            templates.append((delivery.subscription_id, delivery.node, view))
        return cls(Tally(links), tuple(views), tuple(templates))


class _StreamFacts:
    """Static per-stream facts the publish hot loop needs.

    Everything here is a pure function of (the stream's routing
    entries, catalog) and is dropped when a routing mutation touches the
    stream: its schema width table (as of ``catalog_version``), the
    *candidate interfaces* per broker — the neighbours that have at
    least one routing entry for the stream, everything else cannot
    possibly forward — the distinct filter conjunctions of the
    subscriptions requesting the stream, compiled into one
    :class:`OutcomeIndex` and numbered for the walk by
    :class:`ConditionBits`, and the routes already walked, by datagram
    class (:meth:`classify`).  The tree is not among them: entries are
    only ever laid along it, so a tree change reaches a stream through
    the entries it moves.
    """

    __slots__ = (
        "stream", "widths", "catalog_version", "index", "bits", "routes",
        "_candidates", "_unpriced",
    )

    def __init__(
        self,
        stream: str,
        widths: Optional[Dict[str, int]],
        catalog_version: int,
        conjunctions: Tuple[Conjunction, ...],
    ) -> None:
        self.stream = stream
        self.widths = widths
        self.catalog_version = catalog_version
        self.index = OutcomeIndex(conjunctions)
        self.bits = ConditionBits(conjunctions)
        self.routes: Dict[tuple, _Route] = {}
        self._candidates: Dict[NodeId, Tuple[NodeId, ...]] = {}
        #: attribute tuple -> its names the schema does not price, for
        #: the first ``_ROUTE_CLASSES`` tuples seen
        self._unpriced: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def candidates(self, node: NodeId, table: RoutingTable) -> Tuple[NodeId, ...]:
        """Neighbours of ``node`` with any entry for this stream."""
        cached = self._candidates.get(node)
        if cached is None:
            cached = self._candidates[node] = tuple(
                sorted(
                    interface
                    for interface in table.stream_interfaces(self.stream)
                    if interface is not RoutingTable.LOCAL
                )
            )
        return cached

    def classify(self, datagram: Datagram, origin: NodeId) -> tuple:
        """The class of ``datagram``: everything about it the walk's
        decisions, projections and byte sizes depend on.

        Every decision is a coverage outcome on the current copy; a
        conjunction evaluates on a projected copy as on the original
        when its attributes survived and is false when one did not, and
        which attributes survive is fixed by the decisions upstream.
        Sizes add the origin's attribute set, ``seq`` and — for
        attributes the schema does not price — the value's type.  The
        outcomes are one ``int``, bit *i* the *i*-th distinct
        conjunction's, and the walk decides from them.
        """
        payload = datagram.payload
        attributes = tuple(payload)
        unpriced = self._unpriced.get(attributes)
        if unpriced is None:
            priced = self.widths or {}
            unpriced = tuple([name for name in attributes if name not in priced])
            if len(self._unpriced) < _ROUTE_CLASSES:
                self._unpriced[attributes] = unpriced
        return (
            origin,
            attributes,
            datagram.seq is None,
            tuple([type(payload[name]) for name in unpriced]) if unpriced else (),
            self.index.outcomes(payload),
        )


class ContentBasedNetwork:
    """A simulated CBN over a dissemination tree of brokers.

    Parameters
    ----------
    tree:
        The overlay dissemination tree the brokers form.
    catalog:
        Optional shared schema catalog used to price datagram payloads;
        advertised schemas are registered into it.
    """

    def __init__(
        self,
        tree: DisseminationTree,
        catalog: Optional[Catalog] = None,
    ) -> None:
        self._tree = tree
        self.catalog = catalog if catalog is not None else Catalog()
        self._epoch = 0
        self._tables = {node: self._new_table(node) for node in tree.nodes}
        self._subscriptions: Dict[str, _Subscription] = {}
        #: stream -> ids of the subscriptions requesting it, in
        #: registration order (the dict is an ordered set).
        self._stream_subscriptions: Dict[str, Dict[str, None]] = {}
        self._advertisements: Dict[str, List[_Advertisement]] = {}
        #: stream -> its facts, for streams somebody requests and
        #: published since a routing mutation last touched them (the
        #: tables' ``on_change`` reports drop them), so churn on one
        #: stream leaves the others' facts warm.
        self._facts: Dict[str, _StreamFacts] = {}
        #: datagrams routed by replaying a cached route / by walking
        self._route_hits = 0
        self._route_misses = 0
        self.data_stats = LinkStats()
        self.control_stats = LinkStats()
        #: canonical edge -> the one tuple every route's records name it
        #: by, for each link ever priced
        self._edges: Dict[Edge, Edge] = {}
        self._register_weights(tree, tree.edges)
        self._counter = itertools.count()

    # -- structure ---------------------------------------------------------------

    @property
    def tree(self) -> DisseminationTree:
        return self._tree

    def _new_table(self, node: NodeId) -> RoutingTable:
        return RoutingTable(node, on_change=self._bump_epoch)

    def _register_weights(self, tree: DisseminationTree, edges: Iterable[Edge]) -> None:
        """Price the links ``edges`` (canonical) of ``tree`` on both
        accumulators (a link that already has a cost keeps it)."""
        for edge in edges:
            weight = tree.weight(*edge)
            self.data_stats.add_weight(edge, weight)
            self.control_stats.add_weight(edge, weight)
            self._edges.setdefault(edge, edge)

    def retree(self, tree: DisseminationTree) -> None:
        """Move the network onto ``tree``, in place, as a diff.

        Routing state is soft state, and the tables and footprints say
        where all of it lies, so only what the tree change invalidates
        is redone, at a cost in proportion to it:

        * *Replayed*: every ``(subscription, stream, publisher)`` path
          that crosses a removed edge or node is withdrawn and laid
          again along the new tree, subscription by subscription in
          registration order.  The paths are found from the tables: an
          entry sits at the hop farther from its subscriber, behind
          the interface pointing back at it, so the entries at ``u``
          behind ``v`` and at ``v`` behind ``u`` name exactly the
          ``(subscription, stream)`` pairs whose paths cross a removed
          edge ``(u, v)`` (:func:`entry_owner`); only those
          subscriptions' footprints are read.
        * *Dropped*: tables of departed brokers, the emptied interfaces
          of removed edges, advertisements whose node left (and with
          them the paths toward it).
        * *Untouched*: every other table — its entries, in their
          install order — and every LOCAL entry, so per-broker
          delivery order is what it was; the registries and their
          order, traffic statistics, the catalog, the id counter
          (links new to the tree are priced on the existing
          accumulators); the facts and cached routes of every stream
          none of whose entries moved (each table reports the entries
          that do).

        Raises before anything changes when a subscriber's broker is
        not in ``tree``.
        """
        nodes = set(tree.nodes)
        departed = self._tables.keys() - nodes
        stranded = {
            sid for node in departed for sid in self._tables[node].local_profiles()
        }
        if stranded:
            sub = next(
                sub for sid, sub in self._subscriptions.items() if sid in stranded
            )
            raise NetworkError(
                f"subscription {sub.subscription_id!r} lives on broker "
                f"{sub.node}, which is not in the new tree"
            )
        old_edges, new_edges = set(self._tree.edges), set(tree.edges)
        gone = old_edges - new_edges
        #: the hops — either direction — that sat on a removed edge
        crossed = gone | {(v, u) for u, v in gone}
        crossing: Set[str] = set()
        for here, interface in crossed:
            for entry, profile in self._tables[here].entries(interface).items():
                (stream,) = profile.streams
                crossing.add(entry_owner(entry, stream))
        replay: List[Tuple[_Subscription, List[_PathKey]]] = []
        for sid, sub in self._subscriptions.items():
            if sid not in crossing:
                continue
            # on the old tree, each path read once
            paths = self._paths(sub)
            keys = [key for key, hops in paths.items() if not crossed.isdisjoint(hops)]
            self._withdraw(sub, keys, paths)
            replay.append((sub, keys))
        for node in departed:
            del self._tables[node]
        for u, v in gone:
            for node, interface in ((u, v), (v, u)):
                if node in self._tables:
                    self._tables[node].remove_interface(interface)
        for node in sorted(nodes - self._tables.keys()):
            self._tables[node] = self._new_table(node)
        if departed:
            for ads in self._advertisements.values():
                ads[:] = [ad for ad in ads if ad.node not in departed]
        self._tree = tree
        self._register_weights(tree, sorted(new_edges - old_edges))
        for sub, keys in replay:
            for stream, publisher in keys:
                if publisher in tree:
                    self._propagate_toward(sub, stream, publisher)

    def table(self, node: NodeId) -> RoutingTable:
        try:
            return self._tables[node]
        except KeyError:
            raise NetworkError(f"unknown broker {node}") from None

    # -- the decision cache -------------------------------------------------------

    def _bump_epoch(self, streams: Iterable[str]) -> None:
        """Record a routing mutation touching ``streams``: their facts
        go, routes included."""
        self._epoch += 1
        facts = self._facts
        for stream in streams:
            facts.pop(stream, None)

    @property
    def routing_epoch(self) -> int:
        """Monotone counter of routing-state mutations (cache key)."""
        return self._epoch

    def _facts_for(self, stream: str) -> _StreamFacts:
        facts = self._facts.get(stream)
        if facts is None or facts.catalog_version != self.catalog.version:
            facts = self._facts[stream] = self._build_facts(stream)
        return facts

    def _build_facts(self, stream: str) -> _StreamFacts:
        #: an ordered set: the class key lists outcomes in this order
        conjunctions: Dict[Conjunction, None] = {}
        for sid in self._stream_subscriptions.get(stream, ()):
            for flt in self._subscriptions[sid].profile.filters_for(stream):
                conjunctions[flt.condition] = None
        return _StreamFacts(
            stream, self._widths_for(stream), self.catalog.version, tuple(conjunctions)
        )

    def route_cache_stats(self) -> Dict[str, int]:
        """Datagrams routed by replay (``hits``) and by the walk
        (``misses``) since construction, and the route ``classes``
        currently remembered across all streams."""
        return {
            "hits": self._route_hits,
            "misses": self._route_misses,
            "classes": sum(len(facts.routes) for facts in self._facts.values()),
        }

    # -- advertisement --------------------------------------------------------------

    def advertise(
        self,
        stream: str,
        node: NodeId,
        schema: Optional[StreamSchema] = None,
    ) -> None:
        """Declare that ``node`` publishes ``stream``.

        Existing subscriptions requesting the stream are (re-)propagated
        toward the new publisher so later publications reach them.
        Re-advertising an already-known ``(stream, node)`` pair is a
        no-op apart from schema (re-)registration: duplicates would
        inflate :meth:`publishers_of` and make every later subscription
        re-propagate (and be re-charged on ``control_stats``) once per
        duplicate.
        """
        if node not in self._tables:
            raise NetworkError(f"unknown broker {node}")
        if schema is not None:
            self.catalog.register(schema)
        ads = self._advertisements.setdefault(stream, [])
        if any(ad.node == node for ad in ads):
            return
        ads.append(_Advertisement(stream, node))
        self._bump_epoch((stream,))
        for sid in self._stream_subscriptions.get(stream, ()):
            self._propagate_toward(self._subscriptions[sid], stream, node)

    def publishers_of(self, stream: str) -> List[NodeId]:
        return [ad.node for ad in self._advertisements.get(stream, [])]

    # -- subscription -----------------------------------------------------------------

    def subscribe(
        self,
        profile: Profile,
        node: NodeId,
        subscription_id: Optional[str] = None,
    ) -> str:
        """Install ``profile`` for a party attached to broker ``node``.

        Returns the subscription id (generated when not supplied).
        """
        if node not in self._tables:
            raise NetworkError(f"unknown broker {node}")
        if subscription_id is None:
            subscription_id = f"sub-{next(self._counter)}"
        if subscription_id in self._subscriptions:
            raise NetworkError(f"duplicate subscription id {subscription_id!r}")
        sub = _Subscription(subscription_id, node, profile)
        self._subscriptions[subscription_id] = sub
        for stream in profile.streams:
            self._stream_subscriptions.setdefault(stream, {})[subscription_id] = None
        self._tables[node].install(RoutingTable.LOCAL, subscription_id, profile)
        for stream in profile.streams:
            for publisher in self.publishers_of(stream):
                self._propagate_toward(sub, stream, publisher)
        return subscription_id

    def unsubscribe(self, subscription_id: str) -> None:
        """Remove a subscription: its LOCAL entry and its footprint.

        Only the tables on the subscription's own paths are visited.
        """
        if subscription_id not in self._subscriptions:
            raise NetworkError(f"unknown subscription {subscription_id!r}")
        removed = self._subscriptions.pop(subscription_id)
        for stream in removed.profile.streams:
            requesting = self._stream_subscriptions[stream]
            del requesting[subscription_id]
            if not requesting:
                # nobody asks for the stream any more: nothing keyed by
                # its name may outlive it (result-stream names are
                # fresh per group; the LOCAL discard below drops its
                # facts)
                del self._stream_subscriptions[stream]
        self._tables[removed.node].discard(RoutingTable.LOCAL, subscription_id)
        self._withdraw(removed, list(removed.footprint), self._paths(removed))

    def _paths(self, sub: _Subscription) -> Dict[_PathKey, List[Hop]]:
        """Per propagation in ``sub``'s footprint, the hops it laid
        entries at: the current tree's path from the subscriber to the
        publisher, each hop ``(broker, interface toward the
        subscriber)``."""
        paths = {}
        for stream, publisher in sub.footprint:
            path = self._tree.path(sub.node, publisher)
            paths[stream, publisher] = list(zip(path[1:], path))
        return paths

    def _withdraw(
        self,
        sub: _Subscription,
        keys: Iterable[_PathKey],
        paths: Dict[_PathKey, List[Hop]],
    ) -> None:
        """Take the propagations ``keys`` out of ``sub``'s footprint;
        ``paths`` is :meth:`_paths` of the footprint before.

        Paths of one stream share their prefix (and so their entries):
        an entry goes only when no propagation left in the footprint
        still runs through its hop.
        """
        vacated: Dict[str, Set[Hop]] = {}
        for key in keys:
            del sub.footprint[key]
            vacated.setdefault(key[0], set()).update(paths[key])
        for key in sub.footprint:
            if key[0] in vacated:
                vacated[key[0]].difference_update(paths[key])
        for stream, hops in vacated.items():
            entry = entry_id(sub.subscription_id, stream)
            for node, interface in hops:
                self._tables[node].discard(interface, entry)

    def _lay(self, sub: _Subscription, stream: str, hops: Iterable[Hop]) -> None:
        """Install ``sub``'s entry for ``stream`` at every hop: the
        subscription's own profile when ``stream`` is all it requests,
        else its one restriction to ``stream``.  Either way the hops
        share one profile object and its one matcher."""
        profile = sub.profile
        if len(profile.streams) > 1:
            profile = profile.restricted_to(stream)
        entry = entry_id(sub.subscription_id, stream)
        size = float(profile.size_estimate())
        for here, toward_sub in hops:
            self._tables[here].install(toward_sub, entry, profile)
            self.control_stats.record(toward_sub, here, size)

    def _propagate_toward(
        self, sub: _Subscription, stream: str, publisher: NodeId
    ) -> None:
        """Lay routing entries along the tree path subscriber -> publisher.

        Propagation is *per stream*.  Walking outward from the
        subscriber, every node on the path stores the entry behind the
        interface pointing back at the subscriber.
        """
        if publisher == sub.node:
            return
        path = self._tree.path(sub.node, publisher)
        sub.footprint[stream, publisher] = None
        self._lay(sub, stream, zip(path[1:], path))

    # -- publication ---------------------------------------------------------------------

    def publish_many(
        self, datagrams: Iterable[Datagram], node: NodeId
    ) -> List[List[Delivery]]:
        """Inject a batch of datagrams at broker ``node``.

        Returns one delivery list per datagram, in order, each with the
        per-subscriber projection applied.  The datagrams are routed one
        after the other, and their link traffic is recorded on
        :attr:`data_stats`.
        """
        if node not in self._tables:
            raise NetworkError(f"unknown broker {node}")
        return [self._route(datagram, node) for datagram in datagrams]

    def _route(self, datagram: Datagram, node: NodeId) -> List[Delivery]:
        """Route one datagram: classify it, then replay the route its
        class took — or walk, and remember the route.  A route's links
        are one :class:`Tally` use per datagram (the first applied in
        order, later ones counted)."""
        stream = datagram.stream
        if stream not in self._stream_subscriptions:
            return []
        facts = self._facts_for(stream)
        key = facts.classify(datagram, node)
        route = facts.routes.get(key)
        if route is None:
            self._route_misses += 1
            # key[1] is the attribute tuple, key[4] the outcome bits
            links, deliveries = self._walk(datagram, node, facts, key[4])
            if len(facts.routes) >= _ROUTE_CLASSES:
                self.data_stats.replay(links)
                return deliveries
            route = facts.routes[key] = _Route.of(links, deliveries, key[1])
        else:
            self._route_hits += 1
            payload, timestamp, seq = datagram.payload, datagram.timestamp, datagram.seq
            #: one copy per distinct projection, shared by the
            #: deliveries that want it; index -1 is the whole datagram
            owning = Datagram.owning
            copies = [
                owning(stream, {name: payload[name] for name in view}, timestamp, seq)
                for view in route.views
            ]
            copies.append(datagram)
            deliveries = [
                Delivery(sid, broker, copies[view])
                for sid, broker, view in route.deliveries
            ]
        self.data_stats.bump(route.tally)
        return deliveries

    def _walk(
        self, datagram: Datagram, node: NodeId, facts: _StreamFacts, outcomes: int
    ) -> Tuple[List[Tuple[Edge, float]], List[Delivery]]:
        """The hop-by-hop walk — the definition of routing.

        At every broker the copy is delivered to covering local
        subscribers and forwarded, projected, on each candidate
        interface behind which a covering profile lives.  Coverage is
        read off ``outcomes``, the class's outcome bits on the
        original: a copy's *live* mask keeps the bits whose conditions
        reference only attributes that survived into it
        (:class:`ConditionBits`).  Returns the links crossed as
        ``(canonical edge, bytes)`` in crossing order and the
        deliveries in delivery order; accounting is the caller's.
        """
        stream = datagram.stream
        widths = facts.widths
        bits = facts.bits
        tables = self._tables
        edges = self._edges
        links: List[Tuple[Edge, float]] = []
        deliveries: List[Delivery] = []
        #: (broker, interface it arrived from, datagram copy, its size
        #: in bytes or None when not yet needed, its live mask)
        stack: List[Tuple[NodeId, Optional[NodeId], Datagram, Optional[float], int]] = [
            (node, None, datagram, None, outcomes | bits.always)
        ]
        while stack:
            here, arrived_from, current, size, live = stack.pop()
            table = tables[here]
            for sid, projected in table.local_deliveries(current, live, bits):
                deliveries.append(Delivery(sid, here, projected))
            for neighbor in facts.candidates(here, table):
                if neighbor == arrived_from:
                    continue
                decision = table.decide(neighbor, stream, live, bits)
                if not decision.forward:
                    continue
                keep = decision.attributes
                if keep is None or keep.issuperset(current.payload):
                    # Projection keeps everything: reuse the immutable
                    # datagram (and its already-computed size and mask).
                    outgoing, out_size, out_live = current, size, live
                else:
                    outgoing = current.project(keep)
                    out_size, out_live = None, bits.surviving(live, outgoing.payload)
                if out_size is None:
                    out_size = outgoing.size_bytes(widths)
                links.append((edges[edge_key(here, neighbor)], out_size))
                stack.append((neighbor, here, outgoing, out_size, out_live))
        return links, deliveries

    def _widths_for(self, stream: str) -> Optional[Dict[str, int]]:
        if stream not in self.catalog:
            return None
        schema = self.catalog.get(stream)
        return {attr.name: attr.byte_width for attr in schema.attributes}

    # -- introspection -----------------------------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def subscriptions(self) -> Dict[str, Tuple[NodeId, Profile]]:
        """Subscription id -> (attachment broker, profile)."""
        return {
            sid: (sub.node, sub.profile)
            for sid, sub in self._subscriptions.items()
        }

    def routing_state_size(self) -> int:
        """Total routing entries across all brokers (table pressure)."""
        return sum(tbl.entry_count for tbl in self._tables.values())
