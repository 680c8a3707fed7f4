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

    def health(self) -> Dict[str, object]:
        """Reliability- and load-layer health in one flat mapping.

        Counter values come from the attached
        :class:`~repro.system.reliability.ReliabilityState` and
        :class:`~repro.system.loadmgr.LoadState`; without one, the
        corresponding counters read zero and the node/query lists are
        empty (an unmonitored system is trivially healthy).  The key
        set is stable either way, so sweeps can aggregate blindly.
        """
        state = self._system.reliability
        if state is None:
            from repro.system.reliability import ReliabilityCounters

            counters = ReliabilityCounters().as_dict()
            suspected: List[int] = []
            quarantined: List[str] = []
        else:
            counters = state.counters.as_dict()
            suspected = state.detector.suspected
            quarantined = sorted(state.quarantined)
        out: Dict[str, object] = dict(counters)
        out["suspected_nodes"] = suspected
        out["quarantined_queries"] = quarantined
        out["degraded_queries"] = sum(
            1
            for handle in self._system.queries
            if handle.status.name == "DEGRADED"
        )
        load = self._system.load
        if load is None:
            from repro.system.loadmgr import LoadCounters

            out.update(LoadCounters().as_dict())
            out["hot_processors"] = []
            out["migrations_in_flight"] = 0
        else:
            out.update(load.counters.as_dict())
            out["hot_processors"] = load.detector.hot
            out["migrations_in_flight"] = len(load.active)
        return out

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
