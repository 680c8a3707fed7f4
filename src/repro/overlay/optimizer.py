"""Adaptive reorganisation of dissemination trees.

Section 3.2: *"The overlay network optimizer periodically monitors the
status of the network and performs the reorganization of the overlay
network if necessary. [...] By using a configurable cost function
defined on these parameters, it estimates whether a local
reorganization of the overlay trees is beneficial."* (refs [18, 19]).

The implementation here follows the cost-based local-transformation
approach of those references:

* The optimizer is given the current :class:`DisseminationTree`, the
  underlying :class:`Topology` (which physical links exist and their
  delays) and a traffic matrix of ``(source, sink, rate)`` demands.
* The **cost function is configurable**: it maps per-link
  ``(link_weight, flow, node_load)`` observations to a scalar; the
  default is delay-weighted traffic.
* Each round performs *local* transformations: for every tree edge it
  considers replacing it by a nearby topology edge that reconnects the
  two components more cheaply, accepting the best improving swap
  (hill-climbing), subject to a node degree cap (server capability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.overlay.topology import Edge, NodeId, Topology, edge_key
from repro.overlay.tree import DisseminationTree, TreeError

#: One traffic demand: ``rate`` units/second flowing from source to sink.
Demand = Tuple[NodeId, NodeId, float]

#: Cost function signature: (link_weight, flow_on_link) -> cost.
CostFunction = Callable[[float, float], float]


def weighted_traffic_cost(weight: float, flow: float) -> float:
    """Default cost function: link delay x carried traffic."""
    return weight * flow


def hop_count_cost(weight: float, flow: float) -> float:
    """Alternative cost function: every link hop costs its traffic."""
    return flow


@dataclass
class OptimizationReport:
    """Outcome of one :meth:`OverlayOptimizer.optimize` call."""

    rounds: int
    swaps: int
    initial_cost: float
    final_cost: float

    @property
    def improvement(self) -> float:
        """Fraction of cost removed (0 when there was nothing to improve)."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


class OverlayOptimizer:
    """Cost-based local reorganisation of a dissemination tree.

    Parameters
    ----------
    topology:
        The physical overlay graph; only its edges may appear in trees.
    cost_function:
        Per-link cost model, default delay x traffic.
    max_degree:
        Cap on tree degree per node, modelling heterogeneous server
        capability ("different capabilities due to their different
        hardware and software configurations"). ``None`` disables it.
    """

    def __init__(
        self,
        topology: Topology,
        cost_function: CostFunction = weighted_traffic_cost,
        max_degree: Optional[int] = None,
    ) -> None:
        self._topology = topology
        self._cost_function = cost_function
        self._max_degree = max_degree

    # -- cost evaluation ---------------------------------------------------------

    def link_flows(
        self, tree: DisseminationTree, demands: Sequence[Demand]
    ) -> Dict[Edge, float]:
        """Aggregate per-link flow induced by routing demands on the tree."""
        flows: Dict[Edge, float] = {}
        for source, sink, rate in demands:
            if rate <= 0 or source == sink:
                continue
            for edge in tree.path_edges(source, sink):
                flows[edge] = flows.get(edge, 0.0) + rate
        return flows

    def tree_cost(self, tree: DisseminationTree, demands: Sequence[Demand]) -> float:
        """Total cost of the tree under the configured cost function.

        Every tree link contributes (even with zero flow, the cost
        function decides whether idle links cost anything).
        """
        flows = self.link_flows(tree, demands)
        total = 0.0
        for edge in tree.edges:
            u, v = edge
            total += self._cost_function(tree.weight(u, v), flows.get(edge, 0.0))
        return total

    # -- local reorganisation --------------------------------------------------------

    def _candidate_swaps(
        self, tree: DisseminationTree, edge: Edge
    ) -> List[Tuple[Edge, float]]:
        """Topology edges that could replace ``edge`` in the tree."""
        u, v = edge
        side_v = tree.component_via(u, v)
        candidates: List[Tuple[Edge, float]] = []
        for cand in self._topology.edges:
            a, b = cand
            if cand == edge_key(u, v):
                continue
            crosses = (a in side_v) != (b in side_v)
            if not crosses:
                continue
            if self._max_degree is not None:
                if tree.degree(a) >= self._max_degree or tree.degree(b) >= self._max_degree:
                    continue
            candidates.append((cand, self._topology.weights[cand]))
        return candidates

    def optimize(
        self,
        tree: DisseminationTree,
        demands: Sequence[Demand],
        max_rounds: int = 10,
    ) -> Tuple[DisseminationTree, OptimizationReport]:
        """Hill-climb edge swaps until no local move improves the cost.

        Returns the improved tree and an :class:`OptimizationReport`.
        The input tree is never mutated.
        """
        current = tree
        initial_cost = self.tree_cost(current, demands)
        current_cost = initial_cost
        swaps = 0
        rounds = 0
        for rounds in range(1, max_rounds + 1):
            best_gain = 0.0
            best_swap: Optional[Tuple[Edge, Edge, float]] = None
            for edge in current.edges:
                for cand, cand_weight in self._candidate_swaps(current, edge):
                    try:
                        trial = current.with_edge_swap(edge, cand, cand_weight)
                    except TreeError:
                        continue
                    trial_cost = self.tree_cost(trial, demands)
                    gain = current_cost - trial_cost
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_swap = (edge, cand, cand_weight)
            if best_swap is None:
                break
            removed, added, added_weight = best_swap
            current = current.with_edge_swap(removed, added, added_weight)
            current_cost -= best_gain
            swaps += 1
        final_cost = self.tree_cost(current, demands)
        return current, OptimizationReport(rounds, swaps, initial_cost, final_cost)
