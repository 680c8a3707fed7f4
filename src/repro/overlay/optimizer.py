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
* A local move is priced locally.  A round routes the demands once;
  a swap then changes the flow only on the cycle the new edge closes,
  so a trial evaluates the cost function on that cycle's edges and
  never builds a tree (DESIGN.md section 6, "Pricing a local move").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.overlay.topology import Edge, Topology
from repro.overlay.tree import Demand, DisseminationTree

#: Cost function signature: (link_weight, flow_on_link) -> cost.
CostFunction = Callable[[float, float], float]

#: One way to replace a tree edge: the topology edge added, its weight,
#: the tree path it closes into a cycle as ``(edge, weight, flow)``, and
#: what that path costs now.
_Swap = Tuple[Edge, float, List[Tuple[Edge, float, float]], float]


def weighted_traffic_cost(weight: float, flow: float) -> float:
    """Default cost function: link delay x carried traffic."""
    return weight * flow


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

    @staticmethod
    def _routed(
        tree: DisseminationTree, demands: Sequence[Demand]
    ) -> Iterator[Tuple[List[Edge], float]]:
        """(tree path, rate) of every demand that puts flow on a link."""
        for source, sink, rate in demands:
            if rate > 0 and source != sink:
                yield tree.path_edges(source, sink), rate

    def link_flows(
        self, tree: DisseminationTree, demands: Sequence[Demand]
    ) -> Dict[Edge, float]:
        """Aggregate per-link flow induced by routing demands on the tree."""
        flows: Dict[Edge, float] = {}
        for path, rate in self._routed(tree, demands):
            for edge in path:
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

    def _shared_flows(
        self, tree: DisseminationTree, demands: Sequence[Demand]
    ) -> Dict[Edge, Dict[Edge, float]]:
        """Per tree edge ``e``, the flow it shares with every edge
        ``g``: the rate of the demands whose path crosses both.  The
        diagonal ``[e][e]`` is ``e``'s own flow, accumulated in demand
        order like :meth:`link_flows`."""
        shared: Dict[Edge, Dict[Edge, float]] = {}
        for path, rate in self._routed(tree, demands):
            for edge in path:
                row = shared.setdefault(edge, {})
                for other in path:
                    row[other] = row.get(other, 0.0) + rate
        return shared

    def _candidate_swaps(
        self, tree: DisseminationTree, flows: Dict[Edge, float]
    ) -> Dict[Edge, List[_Swap]]:
        """Per tree edge, in sorted order, the topology edges that
        could replace it, in ``topology.edges`` order.

        A non-tree link ``(a, b)`` between two tree nodes reconnects the
        tree exactly when the removed edge lies on the tree path
        ``a -> b`` (the cycle the link closes), so each link walks its
        path once and is filed under every edge of it.
        """
        cost = self._cost_function
        swaps: Dict[Edge, List[_Swap]] = {edge: [] for edge in tree.edges}
        for cand, cand_weight in sorted(self._topology.weights.items()):
            a, b = cand
            if a not in tree or b not in tree:
                continue  # a failed broker stays in the topology
            path = tree.path_edges(a, b)
            if len(path) == 1:
                continue  # a tree edge
            cycle = [(edge, tree.weight(*edge), flows.get(edge, 0.0)) for edge in path]
            before = 0.0
            for __, weight, flow in cycle:
                before += cost(weight, flow)
            swap = (cand, cand_weight, cycle, before)
            for edge in path:
                swaps[edge].append(swap)
        return swaps

    def optimize(
        self,
        tree: DisseminationTree,
        demands: Sequence[Demand],
        max_rounds: int = 10,
    ) -> Tuple[DisseminationTree, OptimizationReport]:
        """Hill-climb edge swaps until no local move improves the cost.

        A swap is priced along its cycle: replacing ``removed`` by
        ``added`` re-routes only the demands that crossed ``removed``,
        and only around the cycle ``added`` closes.  ``added`` carries
        ``flow[removed]``; every other cycle edge ``g`` loses the
        demands that crossed both and gains those that crossed
        ``removed`` alone — ``flow[g] + flow[removed] - 2 *
        shared[removed][g]`` — and nothing off the cycle moves.  A tree
        is built once per accepted swap.

        Returns the improved tree and an :class:`OptimizationReport`.
        The input tree is never mutated.
        """
        cost = self._cost_function
        cap = self._max_degree
        current = tree
        initial_cost = self.tree_cost(current, demands)
        swaps = 0
        rounds = 0
        for rounds in range(1, max_rounds + 1):
            best_gain = 0.0
            best_swap: Optional[Tuple[Edge, Edge, float]] = None
            shared = self._shared_flows(current, demands)
            flows = {edge: row[edge] for edge, row in shared.items()}
            for removed, candidates in self._candidate_swaps(current, flows).items():
                row = shared.get(removed, {})
                moved = flows.get(removed, 0.0)
                for added, added_weight, cycle, before in candidates:
                    # an endpoint shared with the removed edge frees the
                    # slot the added one takes
                    if cap is not None and any(
                        current.degree(end) >= cap and end not in removed
                        for end in added
                    ):
                        continue
                    after = cost(added_weight, moved)
                    for edge, weight, flow in cycle:
                        if edge != removed:
                            after += cost(
                                weight, flow + moved - 2.0 * row.get(edge, 0.0)
                            )
                    gain = before - after
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_swap = (removed, added, added_weight)
            if best_swap is None:
                break
            current = current.with_edge_swap(*best_swap)
            swaps += 1
        final_cost = self.tree_cost(current, demands)
        return current, OptimizationReport(rounds, swaps, initial_cost, final_cost)
