"""The processor node model (Figure 2).

A *broker* runs only the data layer: it is a position on the
dissemination tree with no object of its own, and the routing itself
lives in :class:`~repro.cbn.network.ContentBasedNetwork`.  A *processor*
additionally runs the query layer: a query manager, a pluggable SPE
behind its data/query wrappers, and the bookkeeping to keep its CBN
subscriptions in line with the groups the manager maintains — the
processor's share of the group reconciliation (DESIGN.md section 6):
:meth:`Processor._sync_group` after a group changed,
:meth:`Processor._drop_group` when it left.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cbn.datagram import Datagram
from repro.cbn.network import ContentBasedNetwork
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
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
    its query groups, feeds delivered datagrams through the data
    wrapper into the SPE, and publishes result tuples back into the
    CBN under the group's result-stream name.
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
            catalog,
            self.spe,
            grouping=grouping,
            cost_model=cost_model,
            namespace=f"n{node_id}",
        )
        #: group id -> CBN subscription id of the group's source profile,
        #: and back (deliveries are dispatched by subscription id)
        self._source_subscriptions: Dict[str, str] = {}
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
        """Accept a user query and reconcile CBN subscriptions.

        The query travels through the query wrapper (as it would to a
        foreign SPE), the manager groups it and re-issues the group's
        representative to the SPE, and the processor's CBN state for
        the affected group follows (:meth:`_sync_group`).
        """
        wrapped = self.query_wrapper.to_engine(query)
        unwrapped = self.query_wrapper.from_engine(wrapped)
        if unwrapped.name is None and query.name is not None:
            unwrapped = ContinuousQuery(
                unwrapped.select_items,
                unwrapped.streams,
                unwrapped.predicate,
                unwrapped.group_by,
                query.name,
            )
        decision = self.manager.submit(unwrapped, name=name)
        self._sync_group(decision.group)
        return decision

    def withdraw(self, query_name: str) -> Optional[QueryGroup]:
        """Remove a query; returns the recomposed group, its CBN state
        synced to the narrowed representative, or ``None`` when the
        group vanished (its source subscription with it).  Callers
        holding *result* subscriptions for the surviving members must
        reconcile them too (:meth:`CosmosSystem.reconcile_group`)."""
        group = self.manager.grouping.group_of(query_name)
        survivor = self.manager.withdraw(query_name)
        if survivor is None:
            self._drop_group(group.group_id)
        else:
            self._sync_group(survivor)
        return survivor

    def release_group(self, group_id: str) -> List[ContinuousQuery]:
        """Tear a whole group off this processor for live migration.

        The manager deregisters the representative from the SPE and
        hands back the intact member list; the group's CBN source
        subscription is withdrawn (the target installs its own when it
        re-accepts the members).  The result-stream advertisement is
        left in place — advertisements are idempotent registrations and
        the stream simply goes quiet with no publisher behind it.
        """
        members = self.manager.release_group(group_id)
        self._drop_group(group_id)
        return members

    def drop_source_subscriptions(self) -> None:
        """Withdraw every group's source subscription (this processor
        failed; its groups are re-homed elsewhere)."""
        for group_id in list(self._source_subscriptions):
            self._drop_group(group_id)

    def group_of_subscription(self, subscription_id: str) -> Optional[str]:
        """The group a source subscription of this processor feeds."""
        return self._source_groups.get(subscription_id)

    def _sync_group(self, group: QueryGroup) -> None:
        """Make this processor's CBN state match ``group`` as the manager
        now holds it: the source subscription is replaced by the source
        profile of the current representative, and the result stream is
        advertised with the schema the SPE derives for it (a repeated
        advertisement only refreshes the schema).  The one place this
        happens, after every change to a group that stays."""
        if self.network is None:
            return
        self._drop_group(group.group_id)
        sub_id = self.network.subscribe(
            source_profile(
                group.representative, self.catalog, subscriber=group.group_id
            ),
            self.node_id,
            subscription_id=f"src:{self.node_id}:{group.group_id}"
            f":{self.manager.grouping.query_count}",
        )
        self._source_subscriptions[group.group_id] = sub_id
        self._source_groups[sub_id] = group.group_id
        schema = self.spe.result_schema_of(
            self.manager.engine_name_of(group.group_id)
        )
        self.network.advertise(schema.name, self.node_id, schema)

    def _drop_group(self, group_id: str) -> None:
        """Withdraw the group's source subscription, if it holds one."""
        sub_id = self._source_subscriptions.pop(group_id, None)
        if sub_id is not None:
            del self._source_groups[sub_id]
            self.network.unsubscribe(sub_id)

    # -- data layer callbacks ----------------------------------------------------------

    def on_source_data(
        self, datagram: Datagram, group_id: Optional[str] = None
    ) -> List[Datagram]:
        """Feed one delivered source datagram through the SPE.

        ``group_id`` names the query group whose subscription the
        delivery belongs to; the datagram carries that group's early
        projection and must only reach that group's representative.
        Without a group id the datagram is broadcast to every query on
        its stream (standalone-processor usage).

        Returns the result datagrams (already tagged with their result
        stream names), which the caller publishes into the CBN from
        this node.
        """
        engine_tuple = self.data_wrapper.to_engine(datagram)
        native = self.data_wrapper.from_engine(engine_tuple)
        if group_id is not None:
            engine_name = self.manager.engine_name_of(group_id)
            if engine_name is None:
                return []
            results = self.spe.push_to(engine_name, native)
        else:
            results = self.spe.push(native)
        return [result.datagram for result in results]
