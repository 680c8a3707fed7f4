"""The COSMOS system facade (Figure 1).

Wires sources, brokers, processors, the CBN and the query layer into
one object:

* :meth:`CosmosSystem.add_source` registers a source stream at a node
  (schema advertisement + catalog registration);
* :meth:`CosmosSystem.submit` accepts a user query (CQL text or AST) at
  a user's broker, distributes it to a processor, and reconciles the
  changed group (:meth:`CosmosSystem.reconcile_group`, the system's
  share of DESIGN.md section 6: handles and result subscriptions);
* :meth:`CosmosSystem.publish` injects one source tuple and drives it
  end to end: CBN routing to processors, SPE evaluation, result-stream
  publication, CBN routing to users.

Every delivered result is collected on the :class:`SubmittedQuery`
handle, and all traffic is accounted on the network's
:class:`~repro.overlay.metrics.LinkStats`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cbn.datagram import Datagram
from repro.cbn.filters import Profile
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.cql.ast import ContinuousQuery
from repro.cql.parser import parse_query
from repro.cql.schema import Catalog, StreamSchema
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer, QueryGroup
from repro.overlay.topology import NodeId, Topology
from repro.overlay.tree import DisseminationTree
from repro.system.distribution import (
    QueryDistribution,
    StreamAffinityDistribution,
)
from repro.system.lifecycle import Lifecycle
from repro.system.node import Processor


class SystemError_(Exception):
    """Raised for invalid system operations (unknown streams/nodes)."""


class QueryStatus(enum.Enum):
    """Lifecycle state of a submitted query.

    ``ACTIVE`` queries are installed end to end.  ``DEGRADED`` queries
    have been quarantined — by the reliability layer while a partition
    strands their user, by the load manager while their group moves;
    their handles (and accumulated results) survive, but
    :meth:`CosmosSystem.reconcile_group` installs no subscription for
    them until the quarantine's owner resumes them.
    """

    ACTIVE = "active"
    DEGRADED = "degraded"


#: The query lifecycle: one ``(label, from, to)`` row per step a status
#: may take, labelled by the function that takes it.  No state is
#: terminal: an ``ACTIVE`` query stays quarantinable and a ``DEGRADED``
#: one healable, by both quarantine owners.  :meth:`SubmittedQuery.step`
#: runs it (through the system's :class:`Lifecycle`), and ``repro flow``
#: reads this literal from the source.
QUERY_LIFECYCLE = {
    "initial": "ACTIVE",
    "terminal": (),
    "rows": (
        ("quarantine_for_migration", "ACTIVE", "DEGRADED"),
        ("resume_after_migration", "DEGRADED", "ACTIVE"),
        ("quarantine_partitioned", "ACTIVE", "DEGRADED"),
        ("heal_partition", "DEGRADED", "ACTIVE"),
    ),
}


@dataclass
class SubmittedQuery:
    """Handle for one user query living in the system."""

    query_id: str
    query: ContinuousQuery
    user_node: NodeId
    processor_node: NodeId
    result_stream: str
    results: List[Datagram] = field(default_factory=list)
    status: QueryStatus = QueryStatus[QUERY_LIFECYCLE["initial"]]
    #: The executor that counts this query's steps: its system's.
    lifecycle: Lifecycle = field(
        default_factory=lambda: Lifecycle(QUERY_LIFECYCLE, SystemError_),
        repr=False,
        compare=False,
    )

    @property
    def result_count(self) -> int:
        return len(self.results)

    def step(self, label: str) -> None:
        """Take the lifecycle step ``label`` from the current status.

        The one writer of :attr:`status`; raises :class:`SystemError_`
        for a step :data:`QUERY_LIFECYCLE` does not list.
        """
        self.status = QueryStatus[
            self.lifecycle.take(label, self.status.name, f"query {self.query_id}")
        ]


class CosmosSystem:
    """A simulated COSMOS deployment.

    Parameters
    ----------
    tree:
        The overlay dissemination tree (all nodes are at least brokers).
    processor_nodes:
        Which nodes are equipped with an SPE.
    topology:
        Optional underlying physical topology; required only by the
        fault-tolerance repair logic (:mod:`repro.system.fault`).
    merging:
        When ``False``, every query forms its own group (the non-share
        baseline of Figure 3) — implemented by an infinite merge
        threshold on each processor's grouping optimizer.
    """

    def __init__(
        self,
        tree: DisseminationTree,
        processor_nodes: Sequence[NodeId],
        topology: Optional[Topology] = None,
        merging: bool = True,
    ) -> None:
        self.tree = tree
        self.topology = topology
        self.catalog = Catalog()
        self.cost_model = CostModel()
        self.merging = merging
        self.network = ContentBasedNetwork(tree, self.catalog)
        self.processors: Dict[NodeId, Processor] = {}
        for node in processor_nodes:
            if node not in tree:
                raise SystemError_(f"processor node {node} not in the tree")
            self.processors[node] = self._make_processor(node)
        #: Query distribution policy: stream-set affinity; a caller may
        #: swap in another :class:`QueryDistribution` before submitting.
        self.distribution: QueryDistribution = StreamAffinityDistribution()
        self._sources: Dict[str, NodeId] = {}
        self._queries: Dict[str, SubmittedQuery] = {}
        #: query id -> current CBN subscription id for its results, that
        #: id -> the query's handle (deliveries are dispatched by it) and
        #: that id -> the profile it was subscribed with
        self._user_subscriptions: Dict[str, str] = {}
        self._subscribers: Dict[str, SubmittedQuery] = {}
        self._installed: Dict[str, Profile] = {}
        self._counter = itertools.count()
        self._sub_version = itertools.count()
        #: Reliability state (:func:`repro.system.reliability.attach_reliability`);
        #: ``None`` until a supervisor attaches one.
        self.reliability = None
        #: Load-management state (:func:`repro.system.loadmgr.attach_load_manager`);
        #: ``None`` until a load manager attaches one.
        self.load = None
        #: Runs every handle's :data:`QUERY_LIFECYCLE` steps and counts them.
        self.lifecycle = Lifecycle(QUERY_LIFECYCLE, SystemError_)

    def _make_processor(self, node: NodeId) -> Processor:
        threshold = 0.0 if self.merging else float("inf")
        grouping = GroupingOptimizer(
            self.catalog, self.cost_model, merge_threshold=threshold
        )
        return Processor(
            node, self.catalog, network=self.network, grouping=grouping,
            cost_model=self.cost_model,
        )

    # -- sources -----------------------------------------------------------------

    def add_source(self, schema: StreamSchema, node: NodeId) -> None:
        """Attach a source stream publishing from ``node``."""
        if node not in self.tree:
            raise SystemError_(f"source node {node} not in the tree")
        self._sources[schema.name] = node
        self.catalog.register(schema)
        self.network.advertise(schema.name, node, schema)

    @property
    def sources(self) -> Mapping[str, NodeId]:
        """Source stream -> the node it publishes from (read-only)."""
        return MappingProxyType(self._sources)

    def source_node(self, stream: str) -> NodeId:
        try:
            return self._sources[stream]
        except KeyError:
            raise SystemError_(f"unknown source stream {stream!r}") from None

    # -- queries ---------------------------------------------------------------------

    def submit(
        self,
        query: Union[str, ContinuousQuery],
        user_node: NodeId,
        name: Optional[str] = None,
    ) -> SubmittedQuery:
        """Submit a user query from ``user_node``; returns its handle.

        A query text that does not parse raises
        :class:`~repro.cql.parser.ParseError`; a query with an error of
        :func:`~repro.cql.ast.query_problems` — an unknown stream or
        attribute, a constraint no value of the attribute's type
        satisfies, a WHERE clause nothing satisfies — raises
        :class:`~repro.cql.ast.QueryError`.  Either is raised before any
        state changes and before placement reads the query.  Warnings
        (``repro check``) do not refuse a query.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if user_node not in self.tree:
            raise SystemError_(f"user node {user_node} not in the tree")
        query_id = name or query.name or f"q{next(self._counter)}"
        if query_id in self._queries:
            raise SystemError_(f"duplicate query id {query_id!r}")
        named = replace(query, name=query_id, source=None)
        named.validate(self.catalog)
        processor = self.distribution.choose(
            named, user_node, sorted(self.processors.values(), key=lambda p: p.node_id)
        )
        group = processor.accept(named).group
        handle = SubmittedQuery(
            query_id=query_id,
            query=named,
            user_node=user_node,
            processor_node=processor.node_id,
            result_stream=processor.manager.result_stream_of(group),
            lifecycle=self.lifecycle,
        )
        self._queries[query_id] = handle
        self.reconcile_group(processor, group)
        return handle

    def withdraw(self, query_id: str) -> None:
        """Withdraw a query (one whose re-homing off a failed processor
        did not land is in no group, and loses its handle only)."""
        handle = self._queries.pop(query_id, None)
        if handle is None:
            raise SystemError_(f"unknown query {query_id!r}")
        self.detach_result_subscription(query_id)
        processor = self.processors.get(handle.processor_node)
        if processor is None:
            return
        group = processor.withdraw(query_id)
        if group is not None:
            self.reconcile_group(processor, group)

    def reconcile_group(self, processor: Processor, group: QueryGroup) -> None:
        """Make every member's handle and result subscription match
        ``group`` as it now stands on ``processor``.

        The one place this happens — submission, withdrawal, migration
        cutover/resume, partition heal and a failed processor's re-homing
        all end here, after the processor committed the group
        (:meth:`~repro.system.node.Processor.commit`).  Each member's
        handle is stamped with the processor and the result stream, and
        each ``ACTIVE`` member's profile is read off the manager
        (:meth:`~repro.core.manager.QueryManager.result_profiles_of`,
        which composes a member again only when the representative moved
        or the member is new to the group).  A member already subscribed
        with exactly that profile keeps its subscription; any other is
        replaced.  A ``DEGRADED`` member is skipped by construction: it
        holds no subscription until its owner flips it back and
        reconciles.  Members without a handle (standalone manager usage)
        are skipped.
        """
        result_stream = processor.manager.result_stream_of(group)
        profiles = processor.manager.result_profiles_of(group)
        for member_name, profile in profiles.items():
            member = self._queries.get(member_name)
            if member is None:
                continue
            member.processor_node = processor.node_id
            member.result_stream = result_stream
            if member.status is not QueryStatus.ACTIVE:
                continue
            sub_id = self._user_subscriptions.get(member_name)
            if sub_id is not None and self._installed[sub_id] == profile:
                continue
            self.detach_result_subscription(member_name)
            self.attach_result_subscription(member_name, profile)

    def attach_result_subscription(self, query_id: str, profile: Profile) -> None:
        """Subscribe ``query_id``'s user to its results under a fresh
        ``user:<query>:v<n>`` id.

        The query must hold none: a second subscription would deliver
        every result twice, so it raises :class:`SystemError_` before
        anything is subscribed (detach the held one first).
        """
        held = self._user_subscriptions.get(query_id)
        if held is not None:
            raise SystemError_(
                f"query {query_id!r} already holds result subscription {held!r}"
            )
        handle = self._queries[query_id]
        sub_id = self.network.subscribe(
            profile,
            handle.user_node,
            subscription_id=f"user:{query_id}:v{next(self._sub_version)}",
        )
        self._user_subscriptions[query_id] = sub_id
        self._subscribers[sub_id] = handle
        self._installed[sub_id] = profile

    def detach_result_subscription(self, query_id: str) -> None:
        """Withdraw ``query_id``'s result subscription, if it holds one."""
        sub_id = self._user_subscriptions.pop(query_id, None)
        if sub_id is not None:
            del self._subscribers[sub_id]
            del self._installed[sub_id]
            self.network.unsubscribe(sub_id)

    def subscriber_of(self, subscription_id: str) -> Optional[SubmittedQuery]:
        """The query whose recorded result subscription this is, if any."""
        return self._subscribers.get(subscription_id)

    def result_subscription_of(self, query_id: str) -> Optional[str]:
        """The result subscription recorded for ``query_id``, if any."""
        return self._user_subscriptions.get(query_id)

    def query(self, query_id: str) -> SubmittedQuery:
        try:
            return self._queries[query_id]
        except KeyError:
            raise SystemError_(f"unknown query {query_id!r}") from None

    def find_query(self, query_id: str) -> Optional[SubmittedQuery]:
        """The handle of ``query_id``, or ``None`` when it has none."""
        return self._queries.get(query_id)

    @property
    def queries(self) -> List[SubmittedQuery]:
        return list(self._queries.values())

    # -- data flow ----------------------------------------------------------------------

    def publish(
        self,
        stream: str,
        payload: Dict[str, object],
        timestamp: float,
        seq: Optional[int] = None,
    ) -> List[Delivery]:
        """Inject one source tuple and drive it end to end.

        Returns every delivery made to a *user* subscription; results
        are also appended to the owning :class:`SubmittedQuery`.
        ``seq`` is the uplink transport sequence number when the tuple
        arrived over a reliable sequenced uplink; it rides the datagram
        through routing, projection and result relabelling.
        """
        node = self.source_node(stream)
        datagram = Datagram(stream, payload, timestamp, seq)
        return self._drive([datagram], node)

    def publish_batch(
        self,
        stream: str,
        tuples: Sequence[Tuple[Dict[str, object], float]],
    ) -> List[Delivery]:
        """Inject a batch of source tuples of one stream end to end.

        ``tuples`` is a sequence of ``(payload, timestamp)`` pairs.  The
        whole batch enters the CBN as one ``publish_many`` call (which
        routes it tuple by tuple); each processor it reaches gets its
        share in one call and its results leave it as one batch, so a
        burst reaching one processor routes in two ``publish_many``
        calls.  Processors still see the tuples in order, every query
        handle accumulates exactly the results sequential
        :meth:`publish` calls would produce, and every link carries the
        same messages and bytes; only the interleaving of the returned
        flat delivery list (grouped per processor batch rather than per
        source tuple) and the order in which links are first used may
        differ.  A push that raises partway through a
        processor's share propagates, as :meth:`_drive` describes.
        """
        node = self.source_node(stream)
        batch = [
            Datagram(stream, payload, timestamp)
            for payload, timestamp in tuples
        ]
        if not batch:
            return []
        return self._drive(batch, node)

    def _drive(self, batch: List[Datagram], node: NodeId) -> List[Delivery]:
        """Route a source batch end to end: CBN to processors, SPE
        evaluation, result publication, CBN to users.

        Each routed batch is walked once in delivery order.  A user
        delivery lands on its handle; a delivery to a processor's node
        is collected, still in delivery order, into that processor's
        share, and after the walk each share goes to
        :meth:`Processor.on_source_batch` in one call (processors in the
        order the batch first reached them).  A processor's results are
        queued as one batch, routed by one ``publish_many`` from its
        node.  A processor sits at one broker, and the walk makes a
        broker's local deliveries together, so a single :meth:`publish`
        pushes and routes in exactly the per-delivery order.

        A push that raises propagates out of this call: the user
        deliveries made so far stay on their handles, the pushes before
        it stay applied, and no share after it is pushed nor any queued
        result routed.
        """
        user_deliveries: List[Delivery] = []
        subscribers = self._subscribers
        processors = self.processors
        # A worklist walked in order while it grows: each processor's
        # results join it as one batch, injected at the processor's node.
        pending = [(batch, node)]
        for batch, origin in pending:
            # processor node -> its share; made on the first delivery
            # that is not a user's, so a batch reaching only users (or
            # nobody) pays nothing for it
            shares: Optional[Dict[NodeId, List[Delivery]]] = None
            for deliveries in self.network.publish_many(batch, origin):
                for delivery in deliveries:
                    # Dispatch by the registries the reconciliation
                    # maintains; ids are never parsed back.
                    handle = subscribers.get(delivery.subscription_id)
                    if handle is not None:
                        handle.results.append(delivery.datagram)
                        user_deliveries.append(delivery)
                        continue
                    if shares is None:
                        shares = {}
                    share = shares.get(delivery.node)
                    if share is not None:
                        share.append(delivery)
                    elif delivery.node in processors:
                        shares[delivery.node] = [delivery]
            if shares is None:
                continue
            for processor_node, share in shares.items():
                results = processors[processor_node].on_source_batch(share)
                if results:
                    pending.append((results, processor_node))
        return user_deliveries

    def replay(self, feed: Sequence[Datagram]) -> int:
        """Publish a timestamp-ordered feed; returns total user deliveries."""
        total = 0
        for datagram in feed:
            total += len(
                self.publish(datagram.stream, datagram.payload, datagram.timestamp)
            )
        return total

    # -- reporting --------------------------------------------------------------------------

    def data_cost(self) -> float:
        """Delay-weighted bytes moved by the data layer so far."""
        return self.network.data_stats.weighted_cost()

    def grouping_summary(self) -> Dict[str, float]:
        """Aggregate grouping statistics across all processors."""
        queries = sum(p.manager.grouping.query_count for p in self.processors.values())
        groups = sum(p.manager.grouping.group_count for p in self.processors.values())
        benefit = sum(p.manager.grouping.total_benefit() for p in self.processors.values())
        unmerged = sum(
            p.manager.grouping.total_unmerged_rate() for p in self.processors.values()
        )
        return {
            "queries": float(queries),
            "groups": float(groups),
            "grouping_ratio": groups / queries if queries else 1.0,
            "benefit_ratio": benefit / unmerged if unmerged else 0.0,
        }
