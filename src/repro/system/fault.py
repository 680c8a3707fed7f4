"""Two-layer fault tolerance (section 2).

The paper divides fault tolerance between the layers and defers the
details; this module implements a working version of both:

* **Data layer** (:func:`repair_tree`, :func:`fail_broker`): when a
  broker fails, the dissemination tree splits into components; the
  repair reconnects every orphaned component through the cheapest
  surviving *physical* link of the underlying topology and the CBN's
  subscriptions are re-propagated over the repaired tree.
* **Query layer** (:func:`fail_processor`): when a processor fails, its
  queries are re-distributed to surviving processors (fresh grouping,
  fresh profiles), and users transparently re-subscribe to the new
  result streams.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.overlay.topology import Edge, NodeId, Topology, edge_key
from repro.overlay.tree import DisseminationTree, TreeError
from repro.system.cosmos import CosmosSystem, SystemError_


class FaultError(Exception):
    """Raised when a failure cannot be repaired."""


def refuse_stream_trees(system: CosmosSystem) -> None:
    """Tree repair swaps the default tree only: ``rebuild_network`` would
    silently move every per-stream tree's traffic onto it."""
    if system.network.has_stream_trees:
        raise FaultError(
            "per-stream trees must be repaired individually; "
            "rebuilding over the default tree would drop them"
        )


def repair_tree(
    tree: DisseminationTree, topology: Topology, failed: NodeId
) -> DisseminationTree:
    """Remove ``failed`` and reconnect the fragments.

    Components are merged greedily: at every step the cheapest physical
    edge of ``topology`` that bridges the growing main component to any
    orphan is added (failed node's edges are off-limits).  Raises
    :class:`FaultError` when the survivors are physically partitioned.
    """
    components, forest = tree.remove_node(failed)
    if not components:
        raise FaultError("cannot remove the last node of the tree")
    components = sorted(components, key=len, reverse=True)
    main = set(components[0])
    pending = [set(c) for c in components[1:]]
    edges = list(forest.edges)
    weights = {edge: forest.weight(*edge) for edge in edges}
    while pending:
        best: Optional[Tuple[float, Edge, int]] = None
        for index, component in enumerate(pending):
            for edge in topology.edges:
                u, v = edge
                if failed in edge:
                    continue
                crosses = (u in main and v in component) or (
                    v in main and u in component
                )
                if not crosses:
                    continue
                weight = topology.weights[edge]
                if best is None or weight < best[0]:
                    best = (weight, edge, index)
        if best is None:
            raise FaultError(
                f"survivors are partitioned after removing {failed}"
            )
        weight, edge, index = best
        edges.append(edge)
        weights[edge] = weight
        main |= pending.pop(index)
    nodes = [n for n in tree.nodes if n != failed]
    return DisseminationTree(edges, weights, nodes=nodes)


def fail_broker(system: CosmosSystem, node: NodeId) -> DisseminationTree:
    """Data-layer failure: repair the tree and rebuild routing state.

    The node must be a pure broker (no SPE, no attached sources or
    users) of a system without per-stream trees.  Routing state is control-plane soft state in a CBN, so
    recovery re-propagates every advertisement and subscription over
    the repaired tree; accumulated traffic statistics carry over.
    """
    if system.topology is None:
        raise FaultError("fault repair needs the underlying topology")
    refuse_stream_trees(system)
    if node in system.processors:
        raise FaultError(
            f"node {node} is a processor; use fail_processor instead"
        )
    for stream, src in system._sources.items():
        if src == node:
            raise FaultError(f"node {node} hosts source {stream!r}")
    for handle in system.queries:
        if handle.user_node == node:
            raise FaultError(f"node {node} has attached users")

    repaired = repair_tree(system.tree, system.topology, node)

    from repro.system.rebuild import rebuild_network

    rebuild_network(system, repaired)
    return repaired


def fail_processor(system: CosmosSystem, node: NodeId) -> List[str]:
    """Query-layer failure: re-distribute the processor's queries.

    Returns the ids of the re-homed queries.  The failed node keeps
    routing (its data layer survives in this model; combine with
    :func:`fail_broker` for a full crash).

    Re-homing preserves each query's accumulated results in
    chronological order (results collected before the failure precede
    any produced after it).  A query whose re-submission fails does not
    abort the loop: its torn-down state is fully cleaned up, every
    remaining orphan is still re-homed, and a :class:`FaultError`
    naming the lost queries is raised at the end (chained to the first
    underlying error), so the system is never left with queries whose
    subscriptions were silently dropped.
    """
    processor = system.processors.pop(node, None)
    if processor is None:
        raise FaultError(f"node {node} is not a processor")
    if not system.processors:
        system.processors[node] = processor
        raise FaultError("cannot fail the last processor")
    # Collect the orphaned queries and detach their subscriptions.
    orphaned: List[str] = []
    for group in processor.manager.groups:
        for member in group.members:
            orphaned.append(member.name)
    for sub_id in processor._source_subscriptions.values():
        system.network.unsubscribe(sub_id)
    from repro.system.node import Broker

    system.brokers[node] = Broker(node)
    rehomed: List[str] = []
    failures: List[Tuple[str, Exception]] = []
    for query_id in orphaned:
        handle = system._queries.pop(query_id, None)
        if handle is None:
            continue
        sub_id = system._user_subscriptions.pop(query_id, None)
        if sub_id is not None:
            system.network.unsubscribe(sub_id)
        try:
            new_handle = system.submit(
                handle.query, handle.user_node, name=query_id
            )
        except Exception as exc:  # keep re-homing the remaining orphans
            system._queries.pop(query_id, None)
            leaked = system._user_subscriptions.pop(query_id, None)
            if leaked is not None:
                system.network.unsubscribe(leaked)
            failures.append((query_id, exc))
            continue
        # Results collected before the failure come first; the fresh
        # handle only accumulates results from here on.
        new_handle.results[:0] = handle.results
        rehomed.append(query_id)
    if failures:
        lost = ", ".join(query_id for query_id, __ in failures)
        raise FaultError(
            f"queries [{lost}] could not be re-homed and were withdrawn"
        ) from failures[0][1]
    return rehomed


def fail_node(system: CosmosSystem, node: NodeId) -> List[str]:
    """Full crash of a node hosting both a processor and routing state.

    Composes the two layers: :func:`fail_processor` first re-homes the
    node's queries (demoting it to a pure broker), then
    :func:`fail_broker` removes it from the dissemination tree.  A
    plain broker falls straight through to :func:`fail_broker`.

    The partial-failure cleanup semantics of :func:`fail_processor` are
    preserved: when some queries cannot be re-homed, the broker-layer
    repair still runs (the node is gone either way) and the
    :class:`FaultError` naming the lost queries is re-raised afterwards.
    Returns the ids of the re-homed queries.
    """
    if node not in system.processors:
        fail_broker(system, node)
        return []
    rehomed: List[str] = []
    pending: Optional[FaultError] = None
    try:
        rehomed = fail_processor(system, node)
    except FaultError as exc:
        if node in system.processors:
            # Nothing was torn down (last processor / unknown node):
            # the node still stands, so the broker layer must not run.
            raise
        pending = exc
    fail_broker(system, node)
    if pending is not None:
        raise pending
    return rehomed
