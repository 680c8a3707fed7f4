"""The self-tuning loop: observed workload -> overlay reorganisation.

COSMOS is "COoperative and *Self-tuning*": the overlay network
optimizer "periodically monitors the status of the network and performs
the reorganization of the overlay network if necessary" (section 3.2).
This module closes that loop at the system level:

* :func:`traffic_demands` derives the (source, sink, rate) matrix the
  optimizer needs from the system's *current* groups — the same flows
  load management prices (:func:`~repro.system.loadmgr.group_flows`):
  each group's representative pulls its source streams, filtered and
  projected, to the group's processor, and each member's result stream
  flows from there to its user;
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
from repro.system.loadmgr import group_flows
from repro.system.rebuild import rebuild_network

if TYPE_CHECKING:
    from repro.system.cosmos import CosmosSystem


class TuningError(Exception):
    """Raised when reorganisation is impossible (no topology)."""


def traffic_demands(system: "CosmosSystem") -> List[Demand]:
    """The current demand matrix of the deployment: every group's flows
    at its processor, processor by processor, group by group."""
    return [
        flow
        for processor in system.processors.values()
        for group in processor.manager.groups
        for flow in group_flows(system, group, processor.node_id)
    ]


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
