"""VirtualNetwork execution and the seed-to-report runner."""

import pytest

from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import Topology
from repro.overlay.tree import DisseminationTree
from repro.sim.network import VirtualNetwork
from repro.sim.oracle import compare_systems
from repro.sim.reference import CheckedNetwork
from repro.sim.runner import (
    ChaosConfig,
    build_system,
    generate_schedule,
    protected_nodes,
    query_ids,
    run_chaos,
    run_schedule,
)
from repro.sim.schedule import FaultEvent, InjectEvent
from repro.system.cosmos import CosmosSystem

CONFIG = ChaosConfig(seed=11)


class TestBuildSystem:
    def test_build_is_pure(self):
        first, second = build_system(CONFIG), build_system(CONFIG)
        assert first is not second and first.network is not second.network
        assert type(first.network) is type(second.network)
        assert sorted(first.tree.edges) == sorted(second.tree.edges)
        assert first.network.subscriptions() == second.network.subscriptions()
        assert [(h.query_id, h.processor_node) for h in first.queries] == [
            (h.query_id, h.processor_node) for h in second.queries
        ]

    def test_queries_are_single_stream(self):
        system = build_system(CONFIG)
        for handle in system.queries:
            assert len(handle.query.streams) == 1

    def test_protected_nodes_cover_all_roles(self):
        system = build_system(CONFIG)
        protected = set(protected_nodes(CONFIG))
        assert set(system.processors) <= protected
        assert set(system._sources.values()) <= protected
        assert {h.user_node for h in system.queries} <= protected

    def test_too_small_layout_rejected(self):
        with pytest.raises(ValueError):
            build_system(ChaosConfig(seed=1, n_nodes=6))


class TestGenerateSchedule:
    def test_time_ordered_and_windowed(self):
        schedule = generate_schedule(CONFIG)
        times = [e.time for e in schedule.events]
        assert times == sorted(times)
        for fault in [e for e in schedule.events if isinstance(e, FaultEvent)]:
            assert 0.2 * CONFIG.duration <= fault.time <= 0.6 * CONFIG.duration

    def test_fault_victims_respect_roles(self):
        protected = set(protected_nodes(CONFIG))
        for seed in range(20):
            schedule = generate_schedule(ChaosConfig(seed=seed))
            for fault in [e for e in schedule.events if isinstance(e, FaultEvent)]:
                if fault.kind == "broker":
                    assert fault.node not in protected
                else:
                    assert fault.node in range(CONFIG.n_processors)

    def test_epilogue_is_pristine_and_late(self):
        schedule = generate_schedule(CONFIG)
        epilogue = [
            e for e in schedule.events if e.time >= CONFIG.epilogue_start
        ]
        assert epilogue
        assert all(isinstance(e, InjectEvent) for e in epilogue)
        assert all(not e.duplicate for e in epilogue)


class TestVirtualNetwork:
    def test_inject_is_checked_against_the_scan(self):
        vnet = VirtualNetwork(build_system(CONFIG))
        network = vnet.system.network
        assert isinstance(network, CheckedNetwork)
        event = InjectEvent(1.0, "Temp", (("celsius", 35.0), ("station", 0)))
        vnet.execute([event])
        assert vnet.counters.injects == 1
        assert len(vnet.effective_feed) == 1
        assert vnet.counters.deliveries > 0
        # the source tuple, then each processor's results
        assert network.checked >= 2
        assert network.reference_stats.as_dict()
        assert compare_systems(vnet.system) == []

    def test_partitioned_repair_is_recorded_as_refused(self):
        def build_line():
            topo = Topology()
            for u, v in [(0, 1), (1, 2), (2, 3)]:
                topo.add_edge(u, v, 1.0)
            tree = DisseminationTree(
                [(0, 1), (1, 2), (2, 3)],
                {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
            )
            system = CosmosSystem(tree, processor_nodes=[0], topology=topo)
            system.add_source(
                StreamSchema(
                    "Temp", [Attribute("station", "int", 0, 9)], rate=1.0
                ),
                3,
            )
            system.submit(
                parse_query("SELECT T.station FROM Temp [Now] T"),
                user_node=3,
                name="q",
            )
            return system

        vnet = VirtualNetwork(build_line())
        # Node 1 is a physical cut vertex: the repair must refuse.
        vnet.execute([FaultEvent(1.0, "broker", 1)])
        assert vnet.counters.faults_refused == 1
        assert vnet.counters.faults_applied == 0
        assert any("refused" in line for line in vnet.trace.render().splitlines())
        # The system keeps working after the refusal.
        vnet.execute(
            [InjectEvent(2.0, "Temp", (("station", 1),))]
        )
        assert vnet.system.query("q").result_count == 1


class TestRunner:
    def test_empty_schedule_is_ok(self):
        report = run_schedule(CONFIG, [])
        assert report.ok
        assert report.counters.injects == 0

    def test_report_render_names_seed_and_status(self):
        report = run_chaos(CONFIG)
        rendered = report.render()
        assert f"seed={CONFIG.seed}" in rendered
        assert ("OK" in rendered) == report.ok

    def test_counters_account_for_every_event(self):
        schedule = generate_schedule(CONFIG)
        report = run_schedule(CONFIG, schedule.events)
        c = report.counters
        assert c.injects + c.drops + c.faults_applied + c.faults_refused == len(
            schedule.events
        )

    def test_query_ids_match_built_system(self):
        system = build_system(CONFIG)
        assert query_ids(CONFIG) == [h.query_id for h in system.queries]
