"""The system monitor."""

import pytest

from repro.system.cosmos import CosmosSystem
from repro.system.monitor import SystemMonitor
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)


@pytest.fixture
def busy_system(line_tree):
    system = CosmosSystem(line_tree, processor_nodes=[2])
    system.add_source(OPEN_AUCTION_SCHEMA, 0)
    system.add_source(CLOSED_AUCTION_SCHEMA, 0)
    system.submit(TABLE1_Q1, user_node=4, name="q1")
    system.submit(TABLE1_Q2, user_node=3, name="q2")
    system.publish(
        "OpenAuction",
        {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
        0.0,
    )
    system.publish(
        "ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 60.0}, 60.0
    )
    return system


class TestProcessorLoads:
    def test_counts(self, busy_system):
        monitor = SystemMonitor(busy_system)
        (load,) = monitor.processor_loads()
        assert load.node_id == 2
        assert load.queries == 2
        assert load.groups == 1
        assert load.grouping_ratio == 0.5
        assert load.merged_rate > 0


class TestDataLayer:
    def test_hottest_links_ordered(self, busy_system):
        spots = SystemMonitor(busy_system).hottest_links()
        assert spots
        sizes = [s.bytes for s in spots]
        assert sizes == sorted(sizes, reverse=True)

    def test_routing_pressure_keys(self, busy_system):
        pressure = SystemMonitor(busy_system).routing_pressure()
        assert pressure["subscriptions"] >= 3  # 2 users + 1 source profile
        assert pressure["data_bytes"] > 0
        assert pressure["routing_entries"] > 0
        assert set(pressure) == {
            "subscriptions", "routing_entries", "control_bytes", "data_bytes",
            "route_cache_hits", "route_cache_misses", "route_cache_classes",
        }
        # every routed datagram was served one way or the other
        assert pressure["route_cache_misses"] >= pressure["route_cache_classes"] > 0
        # a second tuple of a class already routed replays its route
        busy_system.publish(
            "OpenAuction",
            {"itemID": 2, "sellerID": 1, "start_price": 1.0, "timestamp": 61.0},
            61.0,
        )
        again = SystemMonitor(busy_system).routing_pressure()
        assert again["route_cache_hits"] > pressure["route_cache_hits"]
        assert again["route_cache_classes"] == pressure["route_cache_classes"]

    def test_report_shows_the_route_cache(self, busy_system):
        report = SystemMonitor(busy_system).report()
        assert "Data layer" in report and "route_cache_misses" in report

    def test_health_keys_do_not_carry_the_route_cache(self, busy_system):
        # health()'s key set is serialised into the pinned BENCH_chaos*.json
        assert not any("route_cache" in key for key in SystemMonitor(busy_system).health())


class TestHealth:
    def test_unmonitored_system_is_trivially_healthy(self, busy_system):
        health = SystemMonitor(busy_system).health()
        assert health["retransmits"] == 0
        assert health["suspected_nodes"] == []
        assert health["quarantined_queries"] == []
        assert health["degraded_queries"] == 0

    def test_reliability_state_is_surfaced(self, busy_system):
        from repro.system.reliability import attach_reliability

        state = attach_reliability(busy_system)
        receiver = state.receiver("Temp")
        receiver.offer(2, {"a": 2}, 3.0)  # seqs 0 and 1 become gaps
        receiver.offer(2, {"a": 2}, 3.0)  # a wire duplicate
        receiver.slots.step(0, "nack")
        state.uplink("Temp").record(0, {"a": 0}, 1.0)
        state.uplink("Temp").retransmit(0)  # the sender answers the NACK
        receiver.abandon(1)  # seq 2 still waits on seq 0
        state.detector.register(7, 0.0)
        state.detector.check(100.0)
        state.quarantined["q2"] = 3
        health = SystemMonitor(busy_system).health()
        assert health["nacks_sent"] == 1
        assert health["retransmits"] == 1
        assert health["duplicates_suppressed"] == 1
        assert health["gaps_abandoned"] == 1
        assert (health["reorder_occupancy"], health["reorder_peak"]) == (1, 1)
        assert health["nodes_suspected"] == 1
        assert health["suspected_nodes"] == [7]
        assert health["quarantined_queries"] == ["q2"]
        # nothing handed the state a supervision executor: no repairs
        assert (health["repairs_applied"], health["repairs_retried"]) == (0, 0)

    def test_reorder_occupancy_is_the_states_not_the_last_receivers(
        self, busy_system
    ):
        # One stream still holds three out-of-order arrivals when
        # another releases an in-order one: the state holds three.
        from repro.system.reliability import attach_reliability

        state = attach_reliability(busy_system)
        for seq in (1, 2, 3):
            state.receiver("A").offer(seq, {"a": seq}, float(seq))
        state.receiver("B").offer(0, {"b": 0}, 4.0)
        health = SystemMonitor(busy_system).health()
        assert health["reorder_occupancy"] == 3
        assert health["reorder_peak"] == 3

    def test_degraded_queries_counted_from_handles(self, busy_system):
        from repro.system.cosmos import QueryStatus

        busy_system.query("q1").status = QueryStatus.DEGRADED
        assert SystemMonitor(busy_system).health()["degraded_queries"] == 1


class TestReport:
    def test_report_contains_sections(self, busy_system):
        report = SystemMonitor(busy_system).report()
        assert "Query layer" in report
        assert "Hottest links" in report
        assert "Data layer" in report

    def test_report_on_idle_system(self, line_tree):
        system = CosmosSystem(line_tree, processor_nodes=[2])
        report = SystemMonitor(system).report()
        assert "Query layer" in report
        assert "Hottest links" not in report  # no traffic yet

    def test_report_has_reliability_section(self, busy_system):
        from repro.system.reliability import attach_reliability

        attach_reliability(busy_system)
        report = SystemMonitor(busy_system).report()
        assert "Reliability" in report
        assert "retransmits" in report
