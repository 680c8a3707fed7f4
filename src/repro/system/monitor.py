"""System monitoring: the status the self-tuning loop observes.

Section 3.2: each node's optimizer "monitors the workloads and
connections of its neighbors".  :class:`SystemMonitor` aggregates that
view for a whole deployment — per-processor query-layer load, the
hottest overlay links, subscription pressure — as structured data and
as a rendered text report (used by the examples and by operators of the
simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.overlay.topology import Edge

if TYPE_CHECKING:
    from repro.system.cosmos import CosmosSystem


@dataclass(frozen=True)
class ProcessorLoad:
    """Query-layer load of one processor."""

    node_id: int
    queries: int
    groups: int
    merged_rate: float

    @property
    def grouping_ratio(self) -> float:
        return self.groups / self.queries if self.queries else 1.0


@dataclass(frozen=True)
class LinkHotspot:
    """One overlay link and its accumulated data traffic."""

    edge: Edge
    messages: int
    bytes: float


class SystemMonitor:
    """Read-only aggregate view over a running :class:`CosmosSystem`."""

    def __init__(self, system: "CosmosSystem") -> None:
        self._system = system

    # -- query layer -------------------------------------------------------------

    def processor_loads(self) -> List[ProcessorLoad]:
        loads = []
        for processor in self._system.processors.values():
            grouping = processor.manager.grouping
            loads.append(
                ProcessorLoad(
                    node_id=processor.node_id,
                    queries=grouping.query_count,
                    groups=grouping.group_count,
                    merged_rate=grouping.total_merged_rate(),
                )
            )
        return sorted(loads, key=lambda l: l.node_id)

    # -- data layer ----------------------------------------------------------------

    def hottest_links(self, top: int = 5) -> List[LinkHotspot]:
        usage = self._system.network.data_stats.as_dict()
        spots = [
            LinkHotspot(edge, messages, size)
            for edge, (messages, size) in usage.items()
        ]
        spots.sort(key=lambda s: s.bytes, reverse=True)
        return spots[:top]

    def routing_pressure(self) -> Dict[str, float]:
        """Routing state, traffic volumes and how publication was served:
        datagrams routed by replaying a cached route (``route_cache_hits``)
        or by the hop-by-hop walk (``route_cache_misses``), and the
        route classes currently remembered."""
        network = self._system.network
        return {
            "subscriptions": float(network.subscription_count),
            "routing_entries": float(network.routing_state_size()),
            "control_bytes": network.control_stats.total_bytes(),
            "data_bytes": network.data_stats.total_bytes(),
            **{
                f"route_cache_{name}": float(count)
                for name, count in network.route_cache_stats().items()
            },
        }

    # -- reliability ---------------------------------------------------------------

    def reliability_counts(self) -> Dict[str, int]:
        """What the attached
        :class:`~repro.system.reliability.ReliabilityState` did (zeros
        without one).  Each count but ``retransmits`` (NACKs a sender
        answered) and the reorder buffers' occupancy and peak is read
        off a lifecycle executor's rows (``Lifecycle.taken``)."""
        from repro.system.reliability import ReliabilityState

        system = self._system
        state = system.reliability or ReliabilityState()
        receivers = state.receivers.values()
        supervision = state.supervision

        def slots(label: str) -> int:
            return sum(receiver.slots.taken(label) for receiver in receivers)

        def supervised(label: str) -> int:
            return supervision.taken(label) if supervision is not None else 0

        return {
            "nacks_sent": slots("nack"),
            "retransmits": sum(uplink.retransmits for uplink in state.uplinks.values()),
            "duplicates_suppressed": slots("duplicate"),
            "reorder_occupancy": sum(receiver.occupancy for receiver in receivers),
            "reorder_peak": max((r.reorder_peak for r in receivers), default=0),
            "gaps_abandoned": slots("abandon"),
            "nodes_suspected": state.detector.leases.taken("suspect"),
            "repairs_applied": supervised("repair_applied"),
            "repairs_retried": supervised("repair_retry"),
            "queries_quarantined": system.lifecycle.taken("quarantine_partitioned"),
            "queries_resumed": system.lifecycle.taken("heal_partition"),
        }

    def health(self) -> Dict[str, object]:
        """Reliability- and load-layer health in one flat mapping.

        The :meth:`reliability_counts` and the attached
        :class:`~repro.system.reliability.ReliabilityState`'s lists,
        then the attached :class:`~repro.system.loadmgr.LoadState`'s
        counts (completed and aborted migrations are rows of its
        lifecycle executor) and lists.  Without a state its counts read
        zero and its lists are empty (an unmonitored system is
        trivially healthy); the keys and their order are stable either
        way, so sweeps can aggregate blindly.
        """
        from repro.system.loadmgr import LoadState
        from repro.system.reliability import ReliabilityState

        system = self._system
        state = system.reliability or ReliabilityState()
        load = system.load or LoadState()
        return {
            **self.reliability_counts(),
            "suspected_nodes": state.detector.suspected,
            "quarantined_queries": sorted(state.quarantined),
            "degraded_queries": sum(
                1 for handle in system.queries if handle.status.name == "DEGRADED"
            ),
            "hotspots_detected": load.counters.hotspots_detected,
            "migrations_started": load.counters.migrations_started,
            "migrations_completed": load.lifecycle.taken("complete"),
            "migrations_aborted": load.lifecycle.taken("abort"),
            "migrations_retried": load.counters.migrations_retried,
            "state_chunks_sent": load.counters.state_chunks_sent,
            "hot_processors": load.detector.hot,
            "migrations_in_flight": len(load.active),
        }

    # -- reporting -------------------------------------------------------------------

    def report(self) -> str:
        """A multi-section plain-text status report."""
        from repro.experiments.runner import render_table

        sections = []
        loads = self.processor_loads()
        sections.append(
            render_table(
                ["processor", "queries", "groups", "grouping ratio", "rep rate B/s"],
                [
                    [l.node_id, l.queries, l.groups, l.grouping_ratio, l.merged_rate]
                    for l in loads
                ],
                "Query layer",
            )
        )
        hot = self.hottest_links()
        if hot:
            sections.append(
                render_table(
                    ["link", "messages", "bytes"],
                    [[f"{s.edge[0]}-{s.edge[1]}", s.messages, s.bytes] for s in hot],
                    "Hottest links",
                )
            )
        pressure = self.routing_pressure()
        sections.append(
            render_table(
                ["metric", "value"],
                sorted(pressure.items()),
                "Data layer",
            )
        )
        health = self.health()
        sections.append(
            render_table(
                ["metric", "value"],
                [
                    [key, value if not isinstance(value, list) else
                     (", ".join(str(v) for v in value) or "-")]
                    for key, value in sorted(health.items())
                ],
                "Reliability",
            )
        )
        return "\n\n".join(sections)
