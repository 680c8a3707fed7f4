"""Rebuilding CBN routing state over a new dissemination tree.

Routing state in a CBN is control-plane soft state: advertisements and
subscriptions can always be re-propagated.  Both the fault-tolerance
path (tree repaired around a failed broker) and the self-tuning path
(tree reorganised by the overlay optimizer) swap the tree and call
:func:`rebuild_network` to reconstruct routing; accumulated traffic
statistics carry over so cost measurements stay comparable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.profiles import result_profile, source_profile
from repro.overlay.tree import DisseminationTree

if TYPE_CHECKING:
    from repro.system.cosmos import CosmosSystem


class RebuildError(Exception):
    """Raised when the new tree cannot host the current state."""


def rebuild_network(system: "CosmosSystem", tree: DisseminationTree) -> None:
    """Swap the system onto ``tree`` and re-propagate all soft state.

    The new tree must contain every node that still hosts a source, a
    processor or a user.  Per-stream trees are not carried over (they
    would need their own reorganisation), so every caller refuses a
    system that has them before it gets here.  The new network is of
    the old one's class.
    """
    from repro.system.cosmos import QueryStatus

    nodes = set(tree.nodes)
    for stream, src in system._sources.items():
        if src not in nodes:
            raise RebuildError(f"source {stream!r} host {src} not in new tree")
    for node in system.processors:
        if node not in nodes:
            raise RebuildError(f"processor node {node} not in new tree")
    for handle in system.queries:
        # Degraded queries are quarantined precisely because their user
        # is unreachable; they carry no subscriptions to rebuild.
        if handle.status is not QueryStatus.ACTIVE:
            continue
        if handle.user_node not in nodes:
            raise RebuildError(f"user node {handle.user_node} not in new tree")

    old_network = system.network
    system.tree = tree
    system.network = type(old_network)(
        tree,
        system.catalog,
        scope_to_advertisements=old_network.scope_to_advertisements,
        use_subsumption=old_network.use_subsumption,
    )
    system.network.data_stats.merge(old_network.data_stats)
    system.network.control_stats.merge(old_network.control_stats)

    # Sources first (advertisement-scoped propagation needs them).
    for stream, src in system._sources.items():
        system.network.advertise(stream, src)

    # Users' result subscriptions.
    for processor in system.processors.values():
        processor.network = system.network
        processor._advertised = set()
        processor._source_subscriptions = {}
    for query_id, sub_id in list(system._user_subscriptions.items()):
        handle = system.query(query_id)
        processor = system.processors[handle.processor_node]
        group = processor.manager.grouping.group_of(query_id)
        if group is None:
            continue
        profile = result_profile(
            next(m for m in group.members if m.name == query_id),
            group.representative,
            system.catalog,
            processor.manager._result_stream_of(group),
            subscriber=query_id,
        )
        system.network.subscribe(profile, handle.user_node, subscription_id=sub_id)

    # Processors' result advertisements and source subscriptions.
    for processor in system.processors.values():
        for group in processor.manager.groups:
            result_stream = processor.manager._result_stream_of(group)
            system.network.advertise(result_stream, processor.node_id)
            processor._advertised.add(result_stream)
            profile = source_profile(
                group.representative, system.catalog, subscriber=group.group_id
            )
            sub_id = system.network.subscribe(
                profile,
                processor.node_id,
                subscription_id=f"src:{processor.node_id}:{group.group_id}:rebuild",
            )
            processor._source_subscriptions[group.group_id] = sub_id
