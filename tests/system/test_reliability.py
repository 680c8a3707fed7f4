"""The self-healing reliability layer: transport, detection, degradation."""

import pytest

from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import Topology
from repro.overlay.tree import DisseminationTree
from repro.sim import ChaosConfig, network
from repro.system import reliability
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.fault import FaultError
from repro.system.reliability import (
    FailureDetector,
    ReliabilityError,
    SequencedUplink,
    UplinkReceiver,
    _components,
    attach_reliability,
    heal_partition,
    quarantine_partitioned,
)

TEMP = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("celsius", "float", -20, 40)],
    rate=1.0,
)


class TestTimingBudget:
    """The chaos harness's timing budget, computed from the timing
    constants and the default :class:`ChaosConfig`."""

    config = ChaosConfig(seed=0)

    def test_detection_and_every_repair_retry_end_before_the_epilogue(self):
        # The last fault lands at 0.6 * duration and is suspected at most
        # a lease plus one sweep period later; each failed repair then
        # waits REPAIR_BACKOFF times its attempt number.
        last_fault = 0.6 * self.config.duration
        detected = last_fault + reliability.lease() + reliability.HEARTBEAT_PERIOD
        retries = sum(
            network.REPAIR_BACKOFF * attempt
            for attempt in range(1, network.MAX_REPAIR_ATTEMPTS)
        )
        assert detected + retries < self.config.epilogue_start

    def test_a_migration_to_a_live_target_resolves_before_a_crash_is_detected(self):
        # A node that crashes after a migration started answered the
        # sweep before its crash, so it is suspected no sooner than a
        # lease less one sweep period later.
        earliest_detection = reliability.lease() - reliability.HEARTBEAT_PERIOD
        assert network.PREPARE_DELAY + network.DRAIN_DELAY < earliest_detection

    def test_the_closing_punctuation_is_nacked_after_the_epilogue_starts(self):
        # So NACK recovery is bounded by quiescence, not by time: the
        # main phase's execute runs every timer before the convergence
        # check.
        punctuation = self.config.duration + 2.0 * self.config.max_delay
        first_nack = punctuation + network.NACK_DELAY
        assert punctuation < self.config.epilogue_start < first_nack


class TestSequencedUplink:
    def test_record_retains_each_number(self):
        uplink = SequencedUplink()
        uplink.record(0, {"a": 1}, 1.0)
        uplink.record(1, {"a": 2}, 2.0)
        assert uplink.retransmit(0) == ({"a": 1}, 1.0)
        assert uplink.retransmit(1) == ({"a": 2}, 2.0)
        assert uplink.retransmit(2) is None

    def test_record_out_of_order_is_allowed(self):
        # The simulator learns of sends in arrival order, which may
        # trail the sequence order under link delay.
        uplink = SequencedUplink()
        uplink.record(3, {"a": 3}, 3.0)
        uplink.record(1, {"a": 1}, 1.0)
        assert uplink.retransmit(3) == ({"a": 3}, 3.0)
        assert uplink.retransmit(1) == ({"a": 1}, 1.0)

    def test_reuse_raises(self):
        uplink = SequencedUplink()
        uplink.record(0, {"a": 1}, 1.0)
        with pytest.raises(ReliabilityError):
            uplink.record(0, {"a": 2}, 2.0)

    def test_negative_seq_raises(self):
        with pytest.raises(ReliabilityError):
            SequencedUplink().record(-1, {}, 0.0)

    def test_retransmit_unknown_returns_none(self):
        assert SequencedUplink().retransmit(7) is None

    def test_retransmit_returns_a_copy(self):
        uplink = SequencedUplink()
        uplink.record(0, {"a": 1}, 1.0)
        payload, __ = uplink.retransmit(0)
        payload["a"] = 99
        assert uplink.retransmit(0) == ({"a": 1}, 1.0)


class TestUplinkReceiver:
    def test_in_order_releases_immediately(self):
        receiver = UplinkReceiver()
        offer = receiver.offer(0, {"a": 0}, 1.0)
        assert offer.released == [(0, {"a": 0}, 1.0)]
        assert not offer.duplicate and not offer.fresh_gaps
        assert receiver._expected == 1

    def test_out_of_order_buffers_and_reports_gap(self):
        receiver = UplinkReceiver()
        offer = receiver.offer(2, {"a": 2}, 3.0)
        assert offer.released == []
        assert offer.fresh_gaps == [0, 1]
        assert len(receiver._buffer) == 1
        # The same gaps are not reported twice.
        assert receiver.offer(3, {"a": 3}, 4.0).fresh_gaps == []

    def test_gap_heal_releases_in_sequence_order(self):
        receiver = UplinkReceiver()
        receiver.offer(1, {"a": 1}, 2.0)
        offer = receiver.offer(0, {"a": 0}, 1.0)
        assert [seq for seq, __, __ in offer.released] == [0, 1]
        assert len(receiver._buffer) == 0

    def test_duplicate_below_watermark_suppressed(self):
        receiver = UplinkReceiver()
        receiver.offer(0, {"a": 0}, 1.0)
        offer = receiver.offer(0, {"a": 0}, 1.0)
        assert offer.duplicate and offer.released == []
        assert receiver.slots.taken("duplicate") == 1

    def test_duplicate_of_buffered_arrival_suppressed(self):
        receiver = UplinkReceiver()
        receiver.offer(2, {"a": 2}, 3.0)
        assert receiver.offer(2, {"a": 2}, 3.0).duplicate

    def test_abandon_releases_blocked_arrivals(self):
        receiver = UplinkReceiver()
        receiver.offer(1, {"a": 1}, 2.0)
        released = receiver.abandon(0)
        assert [seq for seq, __, __ in released] == [1]
        assert receiver._expected == 2
        assert receiver.slots.taken("abandon") == 1

    def test_announce_exposes_trailing_gaps(self):
        receiver = UplinkReceiver()
        receiver.offer(0, {"a": 0}, 1.0)
        # Seqs 1 and 2 were sent but never arrived; no higher arrival
        # exists, so only punctuation can expose them.
        assert receiver.announce(2) == [1, 2]
        # Idempotent: already-known gaps are not re-reported.
        assert receiver.announce(2) == []

    def test_announce_below_watermark_is_empty(self):
        receiver = UplinkReceiver()
        receiver.offer(0, {"a": 0}, 1.0)
        assert receiver.announce(0) == []

    def test_outstanding_tracks_gap_lifecycle(self):
        receiver = UplinkReceiver()
        receiver.offer(1, {"a": 1}, 2.0)
        assert receiver.outstanding(0)
        receiver.offer(0, {"a": 0}, 1.0)
        assert not receiver.outstanding(0)

    def test_reorder_limit_forces_low_watermark_flush(self, monkeypatch):
        monkeypatch.setattr(reliability, "REORDER_LIMIT", 3)
        receiver = UplinkReceiver()
        released = []
        for seq in range(1, 5):  # seq 0 never arrives
            released.extend(receiver.offer(seq, {"a": seq}, float(seq)).released)
        assert [seq for seq, __, __ in released] == [1, 2, 3, 4]
        assert receiver.slots.taken("abandon") == 1
        assert len(receiver._buffer) == 0
        assert receiver.reorder_peak == 3

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 25")
    def test_a_late_copy_of_a_force_abandoned_seq_is_no_duplicate(self):
        # Seqs 1..REORDER_LIMIT + 1 overflow the buffer: seq 0 is
        # force-abandoned and the watermark passes it.  Its only copy
        # then arrives; it was never delivered, so it is not a duplicate.
        receiver = UplinkReceiver()
        for seq in range(1, reliability.REORDER_LIMIT + 2):
            receiver.offer(seq, {"a": seq}, float(seq))
        assert receiver.slots.taken("abandon") == 1
        receiver.offer(0, {"a": 0}, 0.0)
        assert receiver.slots.taken("duplicate") == 0


class TestFailureDetector:
    def test_suspects_after_lease_expiry(self):
        detector = FailureDetector()
        detector.register(7, 0.0)
        assert detector.check(10.0) == []
        assert detector.check(15.0) == [7]
        assert detector.suspected == [7]

    def test_sweep_renews_lease(self):
        detector = FailureDetector()
        detector.register(7, 0.0)
        detector.sweep(10.0, silent=())
        assert detector.check(15.0) == []
        assert detector.check(25.0) == [7]

    def test_silent_node_keeps_its_deadline(self):
        detector = FailureDetector()
        for node in (3, 7):
            detector.register(node, 0.0)
        detector.sweep(5.0, silent=())
        detector.sweep(10.0, silent={7})  # 7 last answered at 5
        detector.sweep(15.0, silent={7})
        assert detector.check(15.0) == []
        assert detector.check(20.0) == [7]
        assert detector.check(30.0) == [3]

    def test_registration_after_a_sweep_has_its_own_lease(self):
        detector = FailureDetector()
        detector.register(3, 0.0)
        detector.sweep(5.0, silent=())
        detector.register(7, 8.0)
        assert detector.check(20.0) == [3]
        assert detector.check(23.0) == [7]

    def test_suspected_only_once(self):
        detector = FailureDetector()
        detector.register(7, 0.0)
        assert detector.check(100.0) == [7]
        assert detector.check(200.0) == []

    def test_deregister_forgets(self):
        detector = FailureDetector()
        detector.register(7, 0.0)
        detector.deregister(7)
        assert detector.check(100.0) == []
        assert sorted(detector._shared.union(detector._deadlines)) == []

    def test_unmonitored_nodes_ignored_by_sweep(self):
        detector = FailureDetector()
        detector.sweep(0.0, silent={99})  # never registered: no-op
        assert sorted(detector._shared.union(detector._deadlines)) == []
        detector.register(7, 0.0)
        detector.sweep(5.0, silent={99})
        assert sorted(detector._shared.union(detector._deadlines)) == [7]

    def test_check_returns_sorted(self):
        detector = FailureDetector()
        for node in (9, 3, 5):
            detector.register(node, 0.0)
        assert detector.check(100.0) == [3, 5, 9]


def build_chain_system(processor=1, source=0, users=(2, 4)):
    """0 - 1 - 2 - 3 - 4 chain; removing 3 strands node 4."""
    topo = Topology()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    for u, v in edges:
        topo.add_edge(u, v, 1.0)
    tree = DisseminationTree(edges, {e: 1.0 for e in edges})
    system = CosmosSystem(
        tree, processor_nodes=[processor], topology=topo
    )
    system.add_source(TEMP, source)
    handles = []
    for index, user in enumerate(users):
        handles.append(
            system.submit(
                "SELECT T.celsius FROM Temp [Now] T WHERE T.celsius > 0",
                user_node=user,
                name=f"q{index}",
            )
        )
    return system, handles


class TestQuarantine:
    def test_stranded_user_query_degrades(self):
        system, (qa, qb) = build_chain_system()
        quarantined = quarantine_partitioned(system, 3)
        assert quarantined == ["q1"]
        assert system.query("q1").status is QueryStatus.DEGRADED
        assert system.query("q0").status is QueryStatus.ACTIVE
        assert sorted(system.tree.nodes) == [0, 1, 2]

    def test_survivor_keeps_delivering_while_degraded(self):
        system, (qa, qb) = build_chain_system()
        quarantine_partitioned(system, 3)
        system.publish("Temp", {"station": 1, "celsius": 20.0}, 1.0)
        assert system.query("q0").result_count == 1
        assert system.query("q1").result_count == 0

    def test_counters_and_state_updated(self):
        system, __ = build_chain_system()
        state = attach_reliability(system)
        quarantine_partitioned(system, 3)
        assert system.lifecycle.taken("quarantine_partitioned") == 1
        assert state.quarantined == {"q1": 4}
        assert 3 in state.failed_nodes

    def test_stranded_processor_is_a_hard_fault(self):
        system, __ = build_chain_system(processor=4, users=(2, 2))
        with pytest.raises(FaultError, match="stranded"):
            quarantine_partitioned(system, 3)

    def test_needs_topology(self, line_tree):
        system = CosmosSystem(line_tree, processor_nodes=[1])
        with pytest.raises(FaultError, match="topology"):
            quarantine_partitioned(system, 3)


class TestComponents:
    def test_an_excluded_cut_vertex_splits_the_topology(self):
        topo = Topology()
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            topo.add_edge(u, v, 1.0)
        assert _components(topo, {2}) == [{0, 1}, {3, 4}]
        assert _components(topo, set()) == [{0, 1, 2, 3, 4}]

    @pytest.mark.parametrize("seed", range(4))
    def test_components_partition_the_survivors(self, seed):
        import random

        from repro.overlay.topology import barabasi_albert

        rng = random.Random(seed)
        topo = barabasi_albert(40, 1, rng)
        excluded = set(rng.sample(sorted(topo.nodes), 6))
        components = _components(topo, excluded)
        assert sum(map(len, components)) == len(set().union(*components))
        assert set().union(*components) == set(topo.nodes) - excluded
        where = {node: index for index, part in enumerate(components) for node in part}
        for node, index in where.items():
            # no surviving link joins two components
            assert {where[n] for n in topo.neighbors(node) if n in where} <= {index}


class TestHeal:
    def test_heal_resumes_quarantined_query(self):
        system, __ = build_chain_system()
        quarantine_partitioned(system, 3)
        system.topology.add_edge(2, 4, 1.0)  # the partition heals
        assert heal_partition(system) == ["q1"]
        assert system.query("q1").status is QueryStatus.ACTIVE
        assert 4 in system.tree.nodes
        system.publish("Temp", {"station": 1, "celsius": 20.0}, 1.0)
        assert system.query("q1").result_count == 1

    def test_heal_without_connectivity_is_a_noop(self):
        system, __ = build_chain_system()
        quarantine_partitioned(system, 3)
        assert heal_partition(system) == []
        assert system.query("q1").status is QueryStatus.DEGRADED

    def test_heal_without_state_is_a_noop(self):
        system, __ = build_chain_system()
        assert heal_partition(system) == []

    def test_heal_preserves_surviving_tree_edges(self):
        system, __ = build_chain_system()
        quarantine_partitioned(system, 3)
        before = set(system.tree.edges)
        system.topology.add_edge(2, 4, 1.0)
        heal_partition(system)
        # The extension only adds edges; the surviving paths stay put.
        assert before <= set(system.tree.edges)

    def test_accumulated_results_survive_the_round_trip(self):
        system, __ = build_chain_system()
        system.publish("Temp", {"station": 1, "celsius": 15.0}, 1.0)
        assert system.query("q1").result_count == 1
        quarantine_partitioned(system, 3)
        system.topology.add_edge(2, 4, 1.0)
        heal_partition(system)
        system.publish("Temp", {"station": 2, "celsius": 25.0}, 2.0)
        assert system.query("q1").result_count == 2
