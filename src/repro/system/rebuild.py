"""Swapping a system onto a new dissemination tree.

Routing state in a CBN is control-plane soft state: advertisements and
subscriptions can always be re-propagated, and the network holds every
one it installed and the paths it laid them along.  Both the
fault-tolerance path (tree repaired around a failed broker) and the
self-tuning path (tree reorganised by the overlay optimizer) call
:func:`rebuild_network`, which only decides whether the new tree can
host the system; the move itself is :meth:`ContentBasedNetwork.retree`,
in place and as a diff — only the subscription paths that cross a
removed edge are laid again, and the network object, its class, its
subscription ids, its traffic statistics and every routing table off
those paths survive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.overlay.tree import DisseminationTree

if TYPE_CHECKING:
    from repro.system.cosmos import CosmosSystem


class RebuildError(Exception):
    """Raised when the new tree cannot host the current state."""


def rebuild_network(system: "CosmosSystem", tree: DisseminationTree) -> None:
    """Swap the system onto ``tree``, re-laying the routing state the
    tree change invalidates.

    The new tree must contain every node that still hosts a source, a
    processor or a user.
    """
    from repro.system.cosmos import QueryStatus

    for stream, src in system.sources.items():
        if src not in tree:
            raise RebuildError(f"source {stream!r} host {src} not in new tree")
    for node in system.processors:
        if node not in tree:
            raise RebuildError(f"processor node {node} not in new tree")
    for handle in system.queries:
        # Degraded queries are quarantined precisely because their user
        # is unreachable; they carry no subscriptions to rebuild.
        if handle.status is not QueryStatus.ACTIVE:
            continue
        if handle.user_node not in tree:
            raise RebuildError(f"user node {handle.user_node} not in new tree")

    system.network.retree(tree)
    system.tree = tree
