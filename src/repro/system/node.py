"""The processor node model (Figure 2).

A *broker* runs only the data layer: it is a position on the
dissemination tree with no object of its own, and the routing itself
lives in :class:`~repro.cbn.network.ContentBasedNetwork`.  A *processor*
additionally runs the query layer: a query manager, a pluggable SPE
behind its data/query wrappers, and the processor's share of the group
reconciliation (DESIGN.md section 6): :meth:`Processor.commit`, which
every change to a group ends in.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cbn.datagram import Datagram
from repro.cbn.filters import Profile
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog, StreamSchema
from repro.core.grouping import GroupingDecision, GroupingOptimizer, QueryGroup
from repro.core.manager import QueryManager
from repro.core.profiles import source_profile
from repro.core.cost import CostModel
from repro.overlay.topology import NodeId
from repro.spe.engine import StreamProcessingEngine
from repro.spe.wrappers import (
    DataWrapper,
    IdentityDataWrapper,
    IdentityQueryWrapper,
    QueryWrapper,
)


class Processor:
    """A server equipped with a stream processing engine.

    The processor subscribes to the CBN for the source data of each of
    its query groups.  Each routed batch reaches it as one share
    (:meth:`on_source_batch`): the delivered datagrams go through the
    data wrapper into the SPE in delivery order, and the share's result
    tuples, tagged with their groups' result-stream names, go back into
    the CBN as one batch.
    """

    def __init__(
        self,
        node_id: NodeId,
        catalog: Catalog,
        network: Optional[ContentBasedNetwork] = None,
        data_wrapper: Optional[DataWrapper] = None,
        query_wrapper: Optional[QueryWrapper] = None,
        grouping: Optional[GroupingOptimizer] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.node_id = node_id
        self.catalog = catalog
        self.network = network
        self.data_wrapper = data_wrapper or IdentityDataWrapper()
        self.query_wrapper = query_wrapper or IdentityQueryWrapper()
        self.spe = StreamProcessingEngine(catalog)
        self.manager = QueryManager(
            catalog, grouping=grouping, cost_model=cost_model, namespace=f"n{node_id}"
        )
        #: group id -> the canonical representative and its streams'
        #: schemas as registered with the SPE, and the SPE-local name
        self._registered: Dict[
            str, Tuple[ContinuousQuery, Tuple[StreamSchema, ...], str]
        ] = {}
        #: group id -> the source profile as subscribed and its CBN
        #: subscription id, and that id -> group id (deliveries are
        #: dispatched by subscription id)
        self._source_subscriptions: Dict[str, Tuple[Profile, str]] = {}
        self._source_groups: Dict[str, str] = {}

    @property
    def query_count(self) -> int:
        return self.manager.grouping.query_count

    @property
    def group_count(self) -> int:
        """Merged query groups on this processor — the load-management
        layer's unit of placement and migration."""
        return self.manager.grouping.group_count

    # -- query layer ---------------------------------------------------------------

    def accept(
        self, query: ContinuousQuery, name: Optional[str] = None
    ) -> GroupingDecision:
        """Accept a user query and commit its group.

        The query travels through the query wrapper (as it would to a
        foreign SPE), the manager groups it, and :meth:`commit`
        installs what the changed group needs.
        """
        wrapped = self.query_wrapper.to_engine(query)
        unwrapped = self.query_wrapper.from_engine(wrapped)
        if unwrapped.name is None and query.name is not None:
            unwrapped = replace(unwrapped, name=query.name, source=None)
        decision = self.manager.submit(unwrapped, name=name)
        self.commit(decision.group.group_id)
        return decision

    def withdraw(self, query_name: str) -> Optional[QueryGroup]:
        """Remove a query; returns the recomposed group, committed with
        its narrowed representative, or ``None`` when the group vanished
        (its registration and source subscription with it).  Callers
        holding *result* subscriptions for the surviving members must
        reconcile them too (:meth:`CosmosSystem.reconcile_group`)."""
        group = self.manager.grouping.group_of(query_name)
        survivor = self.manager.withdraw(query_name)
        self.commit(group.group_id)
        return survivor

    def release_group(self, group_id: str) -> List[ContinuousQuery]:
        """Tear a whole group off this processor (live migration, or
        this processor failed): the manager hands back the intact member
        list and :meth:`commit` drops the group's SPE registration and
        source subscription.  The result-stream advertisement stays
        (advertisements are idempotent registrations); the stream goes
        quiet with no publisher behind it."""
        members = self.manager.release_group(group_id)
        self.commit(group_id)
        return members

    def commit(self, group_id: str) -> None:
        """Make this processor's state for ``group_id`` match the group
        as the manager now holds it — keep what is equal, replace what
        changed, drop what is gone.  The one place it is installed:

        * the SPE registration is kept while the canonical representative
          and its streams' schemas equal the registered ones (so its
          windows keep their state), else replaced under a versioned
          name on the stable result stream;
        * the ``src:`` subscription is kept while the source profile
          equals the subscribed one, else replaced;
        * the result stream is advertised, with the schema the SPE
          derives for it, only when the registration changed.
        """
        group = self.manager.grouping.group(group_id)
        current = None
        if group is not None:
            rep = group.representative.canonical(self.catalog)
            current = (rep, tuple(self.catalog.get(s) for s in rep.stream_names))
        registered = self._registered.get(group_id)
        replaced = registered is None or registered[:2] != current
        if replaced and registered is not None:
            del self._registered[group_id]
            self.spe.deregister(registered[2])
        if replaced and group is not None:
            engine_name = f"{group_id}:v{len(group.members)}"
            self.spe.register(
                current[0],
                name=engine_name,
                result_stream=self.manager.result_stream_of(group),
            )
            self._registered[group_id] = current + (engine_name,)
        if self.network is None:
            return
        held = self._source_subscriptions.get(group_id)
        profile = None if group is None else source_profile(
            group.representative, self.catalog, subscriber=group_id
        )
        if held is not None and held[0] != profile:
            del self._source_subscriptions[group_id], self._source_groups[held[1]]
            self.network.unsubscribe(held[1])
        if group is not None and (held is None or held[0] != profile):
            sub_id = self.network.subscribe(
                profile,
                self.node_id,
                subscription_id=f"src:{self.node_id}:{group_id}"
                f":{self.manager.grouping.query_count}",
            )
            self._source_subscriptions[group_id] = (profile, sub_id)
            self._source_groups[sub_id] = group_id
        if replaced and group is not None:
            schema = self.spe.result_schema_of(engine_name)
            self.network.advertise(schema.name, self.node_id, schema)

    def engine_name_of(self, group_id: str) -> Optional[str]:
        """The SPE-local name the group's representative runs under."""
        registered = self._registered.get(group_id)
        return registered[2] if registered is not None else None

    # -- data layer callbacks ----------------------------------------------------------

    def on_source_batch(self, share: Sequence[Delivery]) -> List[Datagram]:
        """Feed this processor's share of a routed batch through the SPE.

        ``share`` holds the CBN's deliveries to this processor, in
        delivery order, and they are pushed in that order: the engine's
        clock is processor-wide, so a share is never regrouped by group.
        Each delivery is dispatched by its subscription id to the group
        whose source subscription it is; the datagram carries that
        group's early projection and reaches only that group's
        representative.  A delivery for no source subscription of this
        processor (one that raced a withdrawal) is skipped.

        Returns the result datagrams of the whole share, in push order
        and tagged with their result stream names; the caller publishes
        them into the CBN from this node as one batch.  A push that
        raises propagates: the pushes before it stay applied to the
        engine and their results are dropped with the rest of the share.
        """
        wrapper = self.data_wrapper
        groups = self._source_groups
        registered = self._registered
        spe = self.spe
        out: List[Datagram] = []
        for delivery in share:
            held = registered.get(groups.get(delivery.subscription_id))
            if held is None:
                continue
            native = wrapper.from_engine(wrapper.to_engine(delivery.datagram))
            out.extend(spe.push_to(held[2], native))
        return out
