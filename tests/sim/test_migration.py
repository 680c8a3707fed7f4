"""Migration-mode chaos: zero-loss live group moves under the oracle."""

import pytest

from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import Topology
from repro.overlay.tree import DisseminationTree
from repro.sim import (
    ChaosConfig,
    ChaosExecutionError,
    FaultEvent,
    InjectEvent,
    MigrationEvent,
    VirtualNetwork,
    generate_schedule,
    run_chaos,
)
from repro.sim import network
from repro.system.cosmos import CosmosSystem, QueryStatus

MIGRATE = ChaosConfig(seed=0, recovery=True, migrate=True)


def build_pair():
    """0(src+user) - 1(proc) - 2 - 3(proc) - 4.

    The source and the user both sit on node 0, so the query lands on
    processor 1 (cost 8 vs 24) and the only migration target is 3 —
    every protocol timeline below is deterministic.
    """
    topo = Topology()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    for u, v in edges:
        topo.add_edge(u, v, 1.0)
    tree = DisseminationTree(edges, {e: 1.0 for e in edges})
    system = CosmosSystem(tree, processor_nodes=[1, 3], topology=topo)
    system.add_source(
        StreamSchema("Temp", [Attribute("station", "int", 0, 9)], rate=1.0), 0
    )
    system.submit(
        parse_query("SELECT T.station FROM Temp [Now] T"),
        user_node=0,
        name="q",
    )
    return system


def inject(time, seq, station=3):
    return InjectEvent(
        time, "Temp", (("station", station),), seq=seq, sent=time
    )


def trace_kinds(vnet):
    return [line.split(" ", 1)[0] for line in vnet.trace.render().splitlines()]


class TestModeValidation:
    def test_config_requires_recovery(self):
        with pytest.raises(ValueError):
            ChaosConfig(seed=0, migrate=True)

    def test_network_requires_recovery(self):
        with pytest.raises(ChaosExecutionError):
            VirtualNetwork(build_pair(), migrate=True)


class TestInertness:
    def test_non_migrate_schedules_carry_no_probes(self):
        for config in (ChaosConfig(seed=0), ChaosConfig(seed=0, recovery=True)):
            events = generate_schedule(config).events
            assert not any(isinstance(e, MigrationEvent) for e in events)

    def test_migrate_schedules_carry_a_forced_rebalance(self):
        events = generate_schedule(MIGRATE).events
        probes = [e for e in events if isinstance(e, MigrationEvent)]
        assert probes and any(p.kind == "rebalance" for p in probes)
        assert any(p.kind == "scan" for p in probes)

    def test_non_migrate_digests_are_unchanged(self):
        # The pinned pre-migration digests: the load-management layer
        # must be byte-inert unless switched on.
        assert run_chaos(ChaosConfig(seed=0)).trace.digest() == "ce3e9e088b39"
        assert (
            run_chaos(ChaosConfig(seed=0, recovery=True)).trace.digest()
            == "259e9fa81b34"
        )

    def test_probe_without_load_state_is_inert(self):
        vnet = VirtualNetwork(build_pair(), recovery=True)
        assert vnet.load is None
        vnet.execute([MigrationEvent(1.0, "scan")])
        assert vnet.trace.render().splitlines() == ["migrate t=1 scan -> inert"]


class TestHappyPath:
    def test_rebalance_moves_the_group_with_zero_loss(self):
        vnet = VirtualNetwork(build_pair(), recovery=True, migrate=True)
        vnet.execute(
            [
                inject(0.5, seq=0),
                MigrationEvent(1.0, "rebalance"),
                inject(2.0, seq=1),  # lands mid-quarantine
                inject(7.0, seq=2),  # lands after cutover
            ]
        )
        # t=1 start, t=3 drain (prepare_delay=2), t=6 cutover (+3).
        assert "migrate_start t=1 group=g0 n1->n3 quarantined [q]" in (
            vnet.trace.render().splitlines()
        )
        assert "drain t=3 group=g0 n1->n3 chunks=2" in vnet.trace.render().splitlines()
        assert "cutover t=6 group=g0 n1->n3 moved [q]" in vnet.trace.render().splitlines()
        assert vnet.load.counters.migrations_started == 1
        assert vnet.load.lifecycle.taken("complete") == 1
        assert vnet.load.lifecycle.taken("abort") == 0
        assert vnet.load.counters.state_chunks_sent == 2
        assert vnet.load.active == {}
        handle = vnet.system.query("q")
        assert handle.status is QueryStatus.ACTIVE
        assert handle.processor_node == 3
        # Zero loss: the mid-quarantine tuple was deferred by the
        # ordering stage and delivered after the resume.
        assert handle.result_count == 3

    def test_migration_counts_as_recovery_activity(self):
        vnet = VirtualNetwork(build_pair(), recovery=True, migrate=True)
        vnet.execute([MigrationEvent(1.0, "rebalance")])
        assert vnet.last_recovery_time == 6.0


class TestTargetFailure:
    def test_retries_then_aborts_home_with_zero_loss(self):
        vnet = VirtualNetwork(build_pair(), recovery=True, migrate=True)
        vnet.execute(
            [
                inject(0.5, seq=0),
                MigrationEvent(1.0, "rebalance"),
                inject(2.0, seq=1),
                FaultEvent(4.0, "processor", 3),  # target dies mid-drain
                inject(12.0, seq=2),
            ]
        )
        # Cutover attempt 1 at t=6 finds the target dead; capped
        # backoff retries at t=10 (+4) and t=18 (+8) exhaust
        # max_migrate_attempts=3 and the group aborts home.
        assert "migrate_retry t=6 group=g0 target=n3 attempt=2" in (
            vnet.trace.render().splitlines()
        )
        assert "migrate_retry t=10 group=g0 target=n3 attempt=3" in (
            vnet.trace.render().splitlines()
        )
        assert (
            "migrate_abort t=18 group=g0 n1->n3 target-lost resumed [q]"
            in vnet.trace.render().splitlines()
        )
        assert vnet.load.counters.migrations_retried == 2
        assert vnet.load.lifecycle.taken("abort") == 1
        assert vnet.load.lifecycle.taken("complete") == 0
        assert vnet.load.active == {}
        handle = vnet.system.query("q")
        assert handle.status is QueryStatus.ACTIVE
        assert handle.processor_node == 1  # back at the source
        assert handle.result_count == 3  # nothing lost in the abort


class TestSourceFailure:
    def test_drain_on_a_crashed_source_aborts(self):
        vnet = VirtualNetwork(build_pair(), recovery=True, migrate=True)
        vnet.execute(
            [
                MigrationEvent(1.0, "rebalance"),
                FaultEvent(2.0, "processor", 1),  # source dies pre-drain
            ]
        )
        abort = next(
            line for line in vnet.trace.render().splitlines() if line.startswith("migrate_abort")
        )
        assert "source-lost" in abort
        assert vnet.load.lifecycle.taken("abort") == 1
        assert vnet.load.lifecycle.taken("complete") == 0
        # The detector-driven repair then re-homes the query off the
        # dead processor; the run ends healthy on the survivor.
        handle = vnet.system.query("q")
        assert handle.status is QueryStatus.ACTIVE
        assert handle.processor_node == 3

    def test_repair_first_supersedes_the_migration(self, monkeypatch):
        # Stretch the prepare window past the failure detector's
        # repair: by drain time the crash repair already re-homed the
        # group, so the move aborts as superseded (nothing to resume).
        monkeypatch.setattr(network, "PREPARE_DELAY", 30.0)
        vnet = VirtualNetwork(build_pair(), recovery=True, migrate=True)
        vnet.execute(
            [
                MigrationEvent(1.0, "rebalance"),
                FaultEvent(2.0, "processor", 1),
            ]
        )
        abort = next(
            line for line in vnet.trace.render().splitlines() if line.startswith("migrate_abort")
        )
        assert abort.endswith("superseded resumed [-]")
        assert vnet.load.lifecycle.taken("abort") == 1
        handle = vnet.system.query("q")
        assert handle.status is QueryStatus.ACTIVE
        assert handle.processor_node == 3


class TestDoubleMigration:
    def test_second_probe_skips_the_in_flight_group(self):
        vnet = VirtualNetwork(build_pair(), recovery=True, migrate=True)
        vnet.execute(
            [
                MigrationEvent(1.0, "rebalance"),
                MigrationEvent(1.5, "rebalance"),  # same group, still moving
            ]
        )
        assert "migrate_skip t=1.5 node=1 reason=in-flight" in vnet.trace.render().splitlines()
        assert vnet.load.counters.migrations_started == 1
        assert vnet.load.lifecycle.taken("complete") == 1


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_sweep_is_exact_and_migrates(self, seed):
        report = run_chaos(
            ChaosConfig(seed=seed, recovery=True, migrate=True)
        )
        assert report.ok, report.violations
        assert report.health["migrations_completed"] >= 1
        assert report.health["migrations_in_flight"] == 0

    def test_seed0_executor_counts_match_the_load_counters(self):
        report = run_chaos(MIGRATE)
        assert report.ok, report.violations
        moves = report.transitions["MigrationState"]
        completed = report.health["migrations_completed"]
        assert completed >= 1
        assert moves["complete CUTOVER->COMPLETED"] == completed
        assert moves["start_drain PREPARING->DRAINING"] == report.health["migrations_started"]
        statuses = report.transitions["QueryStatus"]
        assert (
            statuses["quarantine_for_migration ACTIVE->DEGRADED"]
            == statuses["resume_after_migration DEGRADED->ACTIVE"]
        )
