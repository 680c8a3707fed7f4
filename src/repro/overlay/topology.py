"""Random wide-area overlay topologies.

The paper's evaluation generates a 1000-node power-law topology with the
BRITE generator.  BRITE's power-law mode implements Barabási–Albert
preferential attachment; :func:`barabasi_albert` reproduces it (nodes
are placed in a plane, links are weighted by Euclidean distance, which
models link delay).

Everything is seeded through an explicit :class:`random.Random` so
experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

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

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        try:
            return set(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"unknown node {node}") from None

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between node positions (1.0 if unknown)."""
        if u not in self.positions or v not in self.positions:
            return 1.0
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    def __len__(self) -> int:
        return len(self._adjacency)

    # -- algorithms -------------------------------------------------------------------

    def minimum_spanning_tree_edges(
        self, fragments: Optional[Mapping[NodeId, Hashable]] = None
    ) -> List[Edge]:
        """Kruskal: the cheapest links that join ``fragments`` into one tree.

        ``fragments`` maps every node to the label of the fragment it
        lies in — a piece of tree already chosen, which the result
        leaves as it is (the forest a repair keeps); it defaults to
        every node of the topology on its own, which gives the MST.
        Only links whose ends lie in different fragments are
        candidates, taken by ``(weight, edge)``: a Kruskal seeded with
        the fragments' own edges would accept no link inside one, so
        this is the same completion, in the same order, without
        touching a link it could not take.  Raises
        :class:`TopologyError` when the links do not join every
        fragment.
        """
        if fragments is None:
            fragments = {node: node for node in self._adjacency}
        weights = self.weights
        candidates = sorted(
            (
                edge
                for edge in weights
                if edge[0] in fragments
                and edge[1] in fragments
                and fragments[edge[0]] != fragments[edge[1]]
            ),
            key=lambda edge: (weights[edge], edge),
        )
        parent: Dict[Hashable, Hashable] = {
            label: label for label in fragments.values()
        }

        def find(x: Hashable) -> Hashable:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        joins: List[Edge] = []
        needed = len(parent) - 1
        for edge in candidates:
            ru, rv = find(fragments[edge[0]]), find(fragments[edge[1]])
            if ru != rv:
                parent[ru] = rv
                joins.append(edge)
                if len(joins) == needed:
                    break
        if len(joins) != needed:
            raise TopologyError("topology is not connected; MST is incomplete")
        return joins


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
