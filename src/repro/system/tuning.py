"""The self-tuning loop: observed workload -> overlay reorganisation.

COSMOS is "COoperative and *Self-tuning*": the overlay network
optimizer "periodically monitors the status of the network and performs
the reorganization of the overlay network if necessary" (section 3.2).
This module closes that loop at the system level:

* :func:`traffic_demands` derives the (source, sink, rate) matrix the
  optimizer needs from the system's *current* subscriptions — source
  streams flowing to the processors that subscribed to them, and
  representative result streams flowing to their users — priced by the
  same C(q) estimator the query layer uses;
* :func:`reorganize_overlay` runs the cost-based local optimizer on the
  default dissemination tree against that matrix and, when it found
  improving swaps, rebuilds the routing state over the new tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.overlay.optimizer import (
    Demand,
    OptimizationReport,
    OverlayOptimizer,
)
from repro.system.rebuild import rebuild_network

if TYPE_CHECKING:
    from repro.system.cosmos import CosmosSystem


class TuningError(Exception):
    """Raised when reorganisation is impossible (no topology)."""


def traffic_demands(system: "CosmosSystem") -> List[Demand]:
    """The current demand matrix of the deployment.

    For every query group: each source stream flows from its source
    node to the group's processor at the (filtered, projected) rate the
    group's source profile admits — approximated by the representative's
    per-stream filtered rate — and the representative's result stream
    flows from the processor to every member's user at the member's own
    estimated rate (the CBN re-tightens en route).
    """
    demands: List[Demand] = []
    cost = system.cost_model
    for processor in system.processors.values():
        for group in processor.manager.groups:
            representative = group.representative
            closed = representative.predicate.closure()
            for ref in representative.streams:
                if ref.stream not in system._sources:
                    continue
                schema = system.catalog.get(ref.stream)
                selectivity = cost.stream_selectivity(
                    closed, ref.name, ref.stream, system.catalog
                )
                rate = schema.rate * selectivity * schema.tuple_width
                demands.append(
                    (system._sources[ref.stream], processor.node_id, rate)
                )
            for member in group.members:
                handle = system._queries.get(member.name)
                if handle is None:
                    continue
                rate = cost.result_rate(member, system.catalog)
                demands.append((processor.node_id, handle.user_node, rate))
    return demands


def reorganize_overlay(
    system: "CosmosSystem",
    max_rounds: int = 5,
    max_degree: Optional[int] = None,
) -> OptimizationReport:
    """One self-tuning round: optimize the tree, rebuild if improved.

    Returns the optimizer's report; when no improving swap exists the
    system is left untouched.  Requires the underlying topology (only
    physical links can enter the tree).
    """
    if system.topology is None:
        raise TuningError("overlay reorganisation needs the underlying topology")
    demands = traffic_demands(system)
    optimizer = OverlayOptimizer(system.topology, max_degree=max_degree)
    improved, report = optimizer.optimize(system.tree, demands, max_rounds)
    if report.swaps > 0:
        rebuild_network(system, improved)
    return report
