"""Random wide-area overlay topologies.

The paper's evaluation generates a 1000-node power-law topology with the
BRITE generator.  BRITE's power-law mode implements Barabási–Albert
preferential attachment; :func:`barabasi_albert` reproduces it (nodes
are placed in a plane, links are weighted by Euclidean distance, which
models link delay).  :func:`waxman` implements BRITE's other classic
model as an alternative.

Everything is seeded through an explicit :class:`random.Random` so
experiments are reproducible.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

NodeId = int
Edge = Tuple[NodeId, NodeId]


class TopologyError(Exception):
    """Raised for invalid topology operations (unknown nodes, etc.)."""


def edge_key(u: NodeId, v: NodeId) -> Edge:
    """Canonical undirected edge key."""
    return (u, v) if u <= v else (v, u)


@dataclass
class Topology:
    """An undirected weighted graph of overlay nodes.

    ``positions`` maps each node to plane coordinates (used by the
    generators to derive distance-based link weights); ``weights`` maps
    canonical edges to link costs (delay).
    """

    positions: Dict[NodeId, Tuple[float, float]] = field(default_factory=dict)
    weights: Dict[Edge, float] = field(default_factory=dict)
    _adjacency: Dict[NodeId, Set[NodeId]] = field(default_factory=dict, repr=False)

    # -- construction ---------------------------------------------------------

    def add_node(
        self, node: NodeId, position: Optional[Tuple[float, float]] = None
    ) -> None:
        self._adjacency.setdefault(node, set())
        if position is not None:
            self.positions[node] = position

    def add_edge(self, u: NodeId, v: NodeId, weight: Optional[float] = None) -> None:
        if u == v:
            raise TopologyError(f"self-loop on node {u}")
        self.add_node(u)
        self.add_node(v)
        if weight is None:
            weight = self.distance(u, v)
        self.weights[edge_key(u, v)] = float(weight)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    # -- queries ------------------------------------------------------------------

    @property
    def nodes(self) -> List[NodeId]:
        return sorted(self._adjacency)

    @property
    def edges(self) -> List[Edge]:
        return sorted(self.weights)

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        try:
            return set(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"unknown node {node}") from None

    def degree(self, node: NodeId) -> int:
        return len(self.neighbors(node))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return edge_key(u, v) in self.weights

    def weight(self, u: NodeId, v: NodeId) -> float:
        try:
            return self.weights[edge_key(u, v)]
        except KeyError:
            raise TopologyError(f"no edge between {u} and {v}") from None

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between node positions (1.0 if unknown)."""
        if u not in self.positions or v not in self.positions:
            return 1.0
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    def __len__(self) -> int:
        return len(self._adjacency)

    # -- algorithms -------------------------------------------------------------------

    def shortest_path_tree(self, root: NodeId) -> Dict[NodeId, NodeId]:
        """Parent pointers of the Dijkstra shortest-path tree from ``root``."""
        parent: Dict[NodeId, NodeId] = {}
        dist: Dict[NodeId, float] = {root: 0.0}
        heap: List[Tuple[float, NodeId]] = [(0.0, root)]
        done: Set[NodeId] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for other in self._adjacency[node]:
                nd = d + self.weight(node, other)
                if nd < dist.get(other, math.inf):
                    dist[other] = nd
                    parent[other] = node
                    heapq.heappush(heap, (nd, other))
        return parent

    def minimum_spanning_tree_edges(
        self,
        nodes: Optional[Iterable[NodeId]] = None,
        seed_edges: Iterable[Edge] = (),
    ) -> List[Edge]:
        """Kruskal: complete ``seed_edges`` to an MST over ``nodes``.

        ``nodes`` defaults to the whole topology; only links with both
        ends in it are candidates, taken by ``(weight, edge)``.  The
        seed forest (already-chosen edges, e.g. the tree a repair
        extends) is kept as is and comes first in the result.  Raises
        :class:`TopologyError` when the result does not span ``nodes``.
        """
        parent: Dict[NodeId, NodeId] = {
            node: node for node in (self._adjacency if nodes is None else nodes)
        }

        def find(x: NodeId) -> NodeId:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        mst: List[Edge] = []
        candidates = sorted(
            (e for e in self.weights if e[0] in parent and e[1] in parent),
            key=lambda e: (self.weights[e], e),
        )
        for edge in (*seed_edges, *candidates):
            ru, rv = find(edge[0]), find(edge[1])
            if ru != rv:
                parent[ru] = rv
                mst.append(edge)
        if len(mst) != len(parent) - 1:
            raise TopologyError("topology is not connected; MST is incomplete")
        return mst


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _scatter(n: int, rng: random.Random, extent: float) -> List[Tuple[float, float]]:
    return [(rng.uniform(0, extent), rng.uniform(0, extent)) for __ in range(n)]


def barabasi_albert(
    n: int,
    m: int = 2,
    rng: Optional[random.Random] = None,
    extent: float = 1000.0,
) -> Topology:
    """A BRITE-style power-law topology via preferential attachment.

    Starts from a clique of ``m + 1`` nodes; every subsequent node
    attaches to ``m`` distinct existing nodes chosen with probability
    proportional to their degree.  Link weights are Euclidean distances
    between random plane positions (delay proxy).
    """
    if m < 1:
        raise TopologyError(f"attachment count m must be >= 1, got {m}")
    if n < m + 1:
        raise TopologyError(f"need at least m+1={m + 1} nodes, got {n}")
    rng = rng or random.Random(0)
    topo = Topology()
    points = _scatter(n, rng, extent)
    for node, pos in enumerate(points):
        topo.add_node(node, pos)
    # repeated-nodes list: each endpoint appended once per incident edge,
    # giving degree-proportional sampling.
    attachment_pool: List[NodeId] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            topo.add_edge(u, v)
            attachment_pool.extend((u, v))
    for node in range(m + 1, n):
        targets: Set[NodeId] = set()
        while len(targets) < m:
            pick = rng.choice(attachment_pool)
            targets.add(pick)
        for target in sorted(targets):
            topo.add_edge(node, target)
            attachment_pool.extend((node, target))
    return topo


def waxman(
    n: int,
    alpha: float = 0.15,
    beta: float = 0.6,
    rng: Optional[random.Random] = None,
    extent: float = 1000.0,
) -> Topology:
    """The Waxman random-graph model (BRITE's other classic mode).

    Nodes at random plane positions; an edge between u and v exists with
    probability ``alpha * exp(-d(u, v) / (beta * L))`` where ``L`` is the
    plane diagonal.  The graph is patched to connectivity by linking
    each stranded component to its nearest already-connected node.
    """
    rng = rng or random.Random(0)
    topo = Topology()
    points = _scatter(n, rng, extent)
    for node, pos in enumerate(points):
        topo.add_node(node, pos)
    diagonal = math.hypot(extent, extent)
    for u in range(n):
        for v in range(u + 1, n):
            p = alpha * math.exp(-topo.distance(u, v) / (beta * diagonal))
            if rng.random() < p:
                topo.add_edge(u, v)
    _patch_connectivity(topo)
    return topo


def _patch_connectivity(topo: Topology) -> None:
    """Connect stray components to the largest component's nearest node."""
    nodes = topo.nodes
    if not nodes:
        return
    remaining = set(nodes)
    components: List[Set[NodeId]] = []
    while remaining:
        start = next(iter(remaining))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in sorted(topo.neighbors(node)):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        components.append(seen)
        remaining -= seen
    components.sort(key=len, reverse=True)
    main = set(components[0])
    for component in components[1:]:
        best: Optional[Tuple[float, NodeId, NodeId]] = None
        for u in component:
            for v in main:
                d = topo.distance(u, v)
                if best is None or d < best[0]:
                    best = (d, u, v)
        assert best is not None
        topo.add_edge(best[1], best[2])
        main |= component
