"""Analytic model of shared vs non-shared result delivery.

This is the communication-cost model behind Figure 3 and the benefit
ratio of Figure 4(a):

* **Non-shared** delivery transmits each member query's result stream
  separately from its processor to its user along the tree path, so a
  link shared by two members carries both streams (Figure 3(a)).
* **Shared** delivery transmits the group's representative result
  stream once along the union of those paths; the CBN re-tightens at
  branch points, so a link with exactly one member downstream carries
  only that member's own stream again, while links feeding several
  members carry the representative stream (Figure 3(b)).

Rates come from the :class:`~repro.core.cost.CostModel` estimates,
exactly the quantities the paper's benefit formula ``sum_i C(q_i) -
C(q)`` is defined over.  Non-shared delivery is the group's member
flows (:meth:`~repro.core.cost.CostModel.group_flows`) priced like every
other flow (:meth:`~repro.overlay.tree.DisseminationTree.flow_cost`);
shared delivery keeps its own per-link rule for links with several
members behind them, the one price still outside that routine
(DESIGN.md section 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
from repro.core.cost import CostModel
from repro.core.grouping import QueryGroup
from repro.overlay.topology import Edge, NodeId
from repro.overlay.tree import DisseminationTree


@dataclass
class GroupPlacement:
    """Where one query group lives on the tree.

    ``member_nodes`` maps member query names to the user nodes that
    must receive their results; the processor executes the group's
    representative.
    """

    group: QueryGroup
    processor_node: NodeId
    member_nodes: Dict[str, NodeId]


class DeliveryCostModel:
    """Computes shared / non-shared delivery costs for placed groups."""

    def __init__(
        self,
        tree: DisseminationTree,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self._tree = tree
        self._catalog = catalog
        self._cost = cost_model or CostModel()

    # -- per-group ------------------------------------------------------------

    def unshared_cost(self, placement: GroupPlacement) -> float:
        """Every member's own stream unicast separately (Figure 3(a)):
        the price of the group's member flows."""
        group = placement.group
        members = [(m, placement.member_nodes[m.name]) for m in group.members]
        flows = self._cost.group_flows(
            group.representative, members, {}, placement.processor_node, self._catalog
        )
        return self._tree.flow_cost(flows)

    def shared_cost(self, placement: GroupPlacement) -> float:
        """Representative multicast with CBN re-tightening (Figure 3(b)).

        Each link of the union of processor->user paths carries:

        * the single downstream member's own stream, when exactly one
          member lies behind the link (fully re-tightened);
        * the representative stream otherwise (the re-tightened union of
          several members is approximated by the full representative,
          an upper bound that keeps the sweep tractable).
        """
        group = placement.group
        member_rates = {
            member.name: self._cost.result_rate(member, self._catalog)
            for member in group.members
        }
        rep_rate = self._cost.result_rate(group.representative, self._catalog)
        edge_members: Dict[Edge, List[str]] = {}
        for member in group.members:
            user = placement.member_nodes[member.name]
            for edge in self._tree.path_edges(placement.processor_node, user):
                edge_members.setdefault(edge, []).append(member.name)
        total = 0.0
        for edge, names in edge_members.items():
            weight = self._tree.weight(*edge)
            if len(names) == 1:
                total += member_rates[names[0]] * weight
            else:
                total += min(rep_rate, sum(member_rates[n] for n in names)) * weight
        return total

    # -- sweeps -------------------------------------------------------------------

    def costs(
        self, placements: Sequence[GroupPlacement]
    ) -> Tuple[float, float]:
        """(non-shared, shared) total costs over all placed groups."""
        unshared = sum(self.unshared_cost(p) for p in placements)
        shared = sum(self.shared_cost(p) for p in placements)
        return unshared, shared

    def benefit_ratio(self, placements: Sequence[GroupPlacement]) -> float:
        """Fraction of communication cost removed by merging (Fig 4(a))."""
        unshared, shared = self.costs(placements)
        if unshared == 0:
            return 0.0
        return (unshared - shared) / unshared
