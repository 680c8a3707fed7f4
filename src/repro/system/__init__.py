"""Whole-system simulation of COSMOS (sections 2 and 5).

Puts the layers together: processors (:mod:`repro.system.node`) on an
overlay tree whose other nodes are brokers, a query distribution
service (:mod:`repro.system.distribution`), the end-to-end facade
(:mod:`repro.system.cosmos`), an analytic model of shared vs non-shared
result delivery (:mod:`repro.system.delivery`, Figure 3), two-layer
fault tolerance (:mod:`repro.system.fault`) and a small discrete-event
simulator (:mod:`repro.system.events`), plus the self-healing
reliability layer (:mod:`repro.system.reliability`): sequenced uplinks,
heartbeat failure detection, and degraded-mode quarantine.
"""

from __future__ import annotations

from repro.system.cosmos import CosmosSystem, QueryStatus, SubmittedQuery
from repro.system.delivery import DeliveryCostModel, GroupPlacement
from repro.system.distribution import (
    QueryDistribution,
    RoundRobinDistribution,
    StreamAffinityDistribution,
)
from repro.system.events import EventSimulator
from repro.system.feeds import LiveFeedRunner, ScheduledSource
from repro.system.monitor import SystemMonitor
from repro.system.node import Processor
from repro.system.reliability import (
    FailureDetector,
    ReliabilityState,
    SequencedUplink,
    UplinkReceiver,
    attach_reliability,
    heal_partition,
    quarantine_partitioned,
)
from repro.system.tuning import reorganize_overlay, traffic_demands

__all__ = [
    "CosmosSystem",
    "DeliveryCostModel",
    "EventSimulator",
    "FailureDetector",
    "GroupPlacement",
    "LiveFeedRunner",
    "Processor",
    "QueryDistribution",
    "QueryStatus",
    "ReliabilityState",
    "RoundRobinDistribution",
    "ScheduledSource",
    "SequencedUplink",
    "StreamAffinityDistribution",
    "SubmittedQuery",
    "SystemMonitor",
    "UplinkReceiver",
    "attach_reliability",
    "heal_partition",
    "quarantine_partitioned",
    "reorganize_overlay",
    "traffic_demands",
]
