"""Overlay dissemination trees.

COSMOS organises the overlay nodes into dissemination trees (section
3.2): the paper's experiments build a minimum spanning tree over the
BRITE topology.  :class:`DisseminationTree` wraps a tree edge set with
the queries routing needs: neighbours, unique paths, the side of an
edge a node falls on, and subtree membership.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.overlay.topology import Edge, NodeId, Topology, TopologyError, edge_key

#: One flow: ``rate`` units/second from a source node to a sink node.
Demand = Tuple[NodeId, NodeId, float]


class TreeError(Exception):
    """Raised for non-tree edge sets or disconnected path queries."""


class DisseminationTree:
    """An undirected tree over overlay nodes with weighted edges.

    The tree is the routing substrate of the CBN: subscriptions and
    datagrams travel along its unique paths.  Construct via
    :meth:`minimum_spanning` or :meth:`shortest_path` from a
    :class:`~repro.overlay.topology.Topology`, or directly from an edge
    list.
    """

    def __init__(
        self,
        edges: Iterable[Edge],
        weights: Optional[Dict[Edge, float]] = None,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> None:
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}
        self._weights: Dict[Edge, float] = {}
        for node in nodes or ():
            self._adjacency.setdefault(node, set())
        for u, v in edges:
            key = edge_key(u, v)
            self._adjacency.setdefault(u, set()).add(v)
            self._adjacency.setdefault(v, set()).add(u)
            self._weights[key] = (weights or {}).get(key, 1.0)
        self._check_tree()

    def _check_tree(self) -> None:
        n = len(self._adjacency)
        if n == 0:
            return
        if len(self._weights) != n - 1:
            raise TreeError(
                f"{n} nodes need {n - 1} tree edges, got {len(self._weights)}"
            )
        if not self._connected():
            raise TreeError("tree edges do not connect all nodes")

    def _connected(self) -> bool:
        nodes = list(self._adjacency)
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            node = frontier.pop()
            for other in self._adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(nodes)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        adjacency: Dict[NodeId, Set[NodeId]],
        weights: Dict[Edge, float],
    ) -> "DisseminationTree":
        """Internal: wrap pre-validated tree parts without re-checking.

        Callers (:meth:`remove_node`) guarantee the structure is
        consistent; ``adjacency`` and ``weights`` are taken by reference
        and must not be mutated afterwards.  Skipping the O(n) connectivity re-validation is
        what makes lazy tree materialisation cheap at 10k nodes.
        """
        tree = cls.__new__(cls)
        tree._adjacency = adjacency
        tree._weights = weights
        return tree

    @classmethod
    def minimum_spanning(cls, topology: Topology) -> "DisseminationTree":
        """The MST dissemination tree the paper's experiments use."""
        edges = topology.minimum_spanning_tree_edges()
        weights = {edge: topology.weights[edge] for edge in edges}
        return cls(edges, weights, nodes=topology.nodes)

    # -- queries ----------------------------------------------------------------------

    def _sorted(self) -> Tuple[Tuple[NodeId, ...], Tuple[Edge, ...]]:
        """Nodes and edges in sorted order, computed once: a tree is
        immutable after construction and repair and the optimizer ask
        for them in loops."""
        cached = getattr(self, "_sorted_cache", None)
        if cached is None:
            cached = self._sorted_cache = (
                tuple(sorted(self._adjacency)),
                tuple(sorted(self._weights)),
            )
        return cached

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._sorted()[0])

    @property
    def edges(self) -> List[Edge]:
        return list(self._sorted()[1])

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        try:
            return set(self._adjacency[node])
        except KeyError:
            raise TreeError(f"unknown node {node}") from None

    def degree(self, node: NodeId) -> int:
        try:
            return len(self._adjacency[node])
        except KeyError:
            raise TreeError(f"unknown node {node}") from None

    def weight(self, u: NodeId, v: NodeId) -> float:
        try:
            return self._weights[edge_key(u, v)]
        except KeyError:
            raise TreeError(f"no tree edge between {u} and {v}") from None

    def edge_weights(self) -> Dict[Edge, float]:
        """Edge -> weight for every tree edge (a copy)."""
        return dict(self._weights)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def _index(self) -> Tuple[Dict[NodeId, NodeId], Dict[NodeId, int]]:
        """Lazily built parent/depth maps from an arbitrary root.

        Path queries walk the two endpoints up to their lowest common
        ancestor, which makes repeated queries O(path length) instead of
        a full BFS per call.
        """
        cached = getattr(self, "_lca_cache", None)
        if cached is not None:
            return cached
        nodes = list(self._adjacency)
        parent: Dict[NodeId, NodeId] = {}
        depth: Dict[NodeId, int] = {}
        if nodes:
            root = nodes[0]
            parent[root] = root
            depth[root] = 0
            queue = deque([root])
            while queue:
                node = queue.popleft()
                for other in self._adjacency[node]:
                    if other not in parent:
                        parent[other] = node
                        depth[other] = depth[node] + 1
                        queue.append(other)
        self._lca_cache = (parent, depth)
        return self._lca_cache

    def path(self, source: NodeId, target: NodeId) -> List[NodeId]:
        """The unique tree path from ``source`` to ``target`` (inclusive)."""
        if source not in self._adjacency or target not in self._adjacency:
            raise TreeError(f"unknown node in path query {source}->{target}")
        if source == target:
            return [source]
        parent, depth = self._index()
        if source not in depth or target not in depth:
            raise TreeError(f"no path from {source} to {target}")
        up: List[NodeId] = []
        down: List[NodeId] = []
        a, b = source, target
        while depth[a] > depth[b]:
            up.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            down.append(b)
            b = parent[b]
        while a != b:
            up.append(a)
            down.append(b)
            a = parent[a]
            b = parent[b]
        down.reverse()
        return up + [a] + down

    def path_edges(self, source: NodeId, target: NodeId) -> List[Edge]:
        path = self.path(source, target)
        return [edge_key(a, b) for a, b in zip(path, path[1:])]

    def path_weight(self, source: NodeId, target: NodeId) -> float:
        return sum(self._weights[edge] for edge in self.path_edges(source, target))

    def flow_cost(self, flows: Iterable[Demand]) -> float:
        """The price of ``flows``: rate x path weight, summed in flow order.

        The one place a rate meets a tree path (DESIGN.md section 11).
        Placement, migration and Figure 4's non-shared delivery call it
        on the flows :meth:`~repro.core.cost.CostModel.group_flows`
        lists; the overlay optimizer routes the same flows.
        """
        total = 0.0
        for source, sink, rate in flows:
            total += rate * self.path_weight(source, sink)
        return total

    # -- mutation (used by the optimizer and fault tolerance) ---------------------------

    def with_edge_swap(
        self,
        removed: Edge,
        added: Edge,
        added_weight: float,
    ) -> "DisseminationTree":
        """A new tree with ``removed`` replaced by ``added``.

        Raises :class:`TreeError` when the result is not a tree (the
        added edge must reconnect the two components split by the
        removal).
        """
        removed = edge_key(*removed)
        if removed not in self._weights:
            raise TreeError(f"edge {removed} is not in the tree")
        edges = [e for e in self._weights if e != removed]
        edges.append(edge_key(*added))
        weights = {e: w for e, w in self._weights.items() if e != removed}
        weights[edge_key(*added)] = added_weight
        return DisseminationTree(edges, weights, nodes=self._adjacency)

    def remove_node(self, node: NodeId) -> Tuple[List[Set[NodeId]], "DisseminationTree"]:
        """Remove a failed node; return every component of the forest it
        leaves behind (one per tree neighbour of ``node``) and that
        forest.

        Used by the data-layer fault-tolerance logic, which then re-links
        the components through surviving topology edges.
        """
        if node not in self._adjacency:
            raise TreeError(f"unknown node {node}")
        survivors = {n for n in self._adjacency if n != node}
        edges = [e for e in self._weights if node not in e]
        components: List[Set[NodeId]] = []
        remaining = set(survivors)
        adjacency: Dict[NodeId, Set[NodeId]] = {n: set() for n in survivors}
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for other in adjacency[current]:
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
            components.append(seen)
            remaining -= seen
        forest = DisseminationTree._from_parts(
            adjacency, {e: w for e, w in self._weights.items() if node not in e}
        )
        return components, forest
