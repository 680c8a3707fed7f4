"""Two-layer fault tolerance (section 2).

The paper divides fault tolerance between the layers and defers the
details; this module implements a working version of both:

* **Data layer** (:func:`repair_tree`, :func:`fail_broker`): when a
  broker fails, the dissemination tree splits into components; the
  repair reconnects every orphaned component through the cheapest
  surviving *physical* link of the underlying topology and the CBN
  re-lays the subscription paths that crossed the failed broker over the
  repaired tree.
* **Query layer** (:func:`fail_processor`): when a processor fails, its
  queries are re-distributed to surviving processors (fresh grouping,
  fresh profiles), and users transparently re-subscribe to the new
  result streams.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.overlay.topology import NodeId, Topology, TopologyError
from repro.overlay.tree import DisseminationTree
from repro.system import rebuild
from repro.system.cosmos import CosmosSystem


class FaultError(Exception):
    """Raised when a failure cannot be repaired."""


class PartitionError(FaultError):
    """The survivors are physically partitioned; the supervisor degrades
    (:func:`~repro.system.reliability.quarantine_partitioned`), not retries."""


def spanning_tree(
    topology: Topology,
    nodes: Iterable[NodeId],
    seed: Optional[DisseminationTree] = None,
) -> DisseminationTree:
    """The cheapest tree over ``nodes`` that keeps every edge of ``seed``.

    ``seed`` is the tree or forest inside ``nodes`` a repair preserves
    (subscription paths through it stay stable): its edges keep their
    weights, the physical links :meth:`Topology.minimum_spanning_tree_edges`
    adds are priced by ``topology``.  Raises :class:`TopologyError` when
    ``nodes`` are not physically connected.
    """
    nodes = sorted(nodes)
    kept = seed.edges if seed is not None else []
    weights = {edge: seed.weight(*edge) for edge in kept}
    edges = topology.minimum_spanning_tree_edges(nodes, kept)
    for edge in edges:
        weights.setdefault(edge, topology.weights[edge])
    return DisseminationTree(edges, weights, nodes=nodes)


def repair_tree(
    tree: DisseminationTree, topology: Topology, failed: NodeId
) -> DisseminationTree:
    """Remove ``failed`` and reconnect the fragments.

    Every surviving tree edge is kept; the fragments are joined by the
    cheapest physical links of ``topology`` among the survivors (the
    failed node's links are off-limits).  Raises :class:`FaultError`
    when ``failed`` is not in the tree or is its last node, and
    :class:`PartitionError` when the survivors are physically
    partitioned.
    """
    if failed not in tree:
        raise FaultError(f"node {failed} is not in the tree")
    __, forest = tree.remove_node(failed)
    if not len(forest):
        raise FaultError("cannot remove the last node of the tree")
    try:
        return spanning_tree(topology, forest.nodes, forest)
    except TopologyError:
        raise PartitionError(
            f"survivors are partitioned after removing {failed}"
        ) from None


def fail_broker(system: CosmosSystem, node: NodeId) -> DisseminationTree:
    """Data-layer failure: repair the tree and rebuild routing state.

    The node must be a pure broker (no SPE, no attached sources or
    users); anything else raises :class:`FaultError` before the system
    is touched.
    Routing state is control-plane soft state in a CBN, so recovery has
    the network move onto the repaired tree
    (:meth:`ContentBasedNetwork.retree`), which redoes the subscription
    paths that ran through the failed broker and nothing else.
    """
    if system.topology is None:
        raise FaultError("fault repair needs the underlying topology")
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
    rebuild.rebuild_network(system, repaired)
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
    processor.drop_source_subscriptions()
    rehomed: List[str] = []
    failures: List[Tuple[str, Exception]] = []
    for query_id in orphaned:
        handle = system._queries.pop(query_id, None)
        if handle is None:
            continue
        system.detach_result_subscription(query_id)
        try:
            new_handle = system.submit(
                handle.query, handle.user_node, name=query_id
            )
        except Exception as exc:  # keep re-homing the remaining orphans
            system._queries.pop(query_id, None)
            system.detach_result_subscription(query_id)
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
