"""Adaptive load management: detector, placement, migration mechanics."""

import pytest

from repro.cql.schema import Attribute, StreamSchema
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.loadmgr import (
    GroupMigration,
    HotspotDetector,
    LoadManagementError,
    LoadParams,
    LoadState,
    MigrationChannel,
    MigrationState,
    attach_load_manager,
    capture_group_state,
    choose_target,
    cutover_group,
    placement_cost,
    quarantine_for_migration,
    resume_after_migration,
)
from repro.system.monitor import ProcessorLoad, SystemMonitor

TEMP = StreamSchema(
    "Temp",
    [
        Attribute("station", "int", 0, 9),
        Attribute("celsius", "float", -20.0, 40.0),
    ],
    rate=1.0,
)


def loads(*pairs):
    """ProcessorLoad snapshots from ``(node_id, merged_rate)`` pairs."""
    return [
        ProcessorLoad(node_id=node, queries=1, groups=1, merged_rate=rate)
        for node, rate in pairs
    ]


class TestHotspotDetector:
    def test_reports_newly_hot_once_and_latches(self):
        detector = HotspotDetector()
        assert detector.observe(loads((0, 10.0), (1, 1.0), (2, 1.0))) == [0]
        assert detector.hot == [0]
        # Still overloaded: latched, not re-reported.
        assert detector.observe(loads((0, 10.0), (1, 1.0), (2, 1.0))) == []
        assert detector.hot == [0]

    def test_hysteresis_clears_only_below_clear_ratio(self):
        detector = HotspotDetector()
        detector.observe(loads((0, 10.0), (1, 1.0), (2, 1.0)))
        # Ratio 5/4.33 = 1.15: below overload (1.25) but above clear
        # (1.05) — the latch holds.
        assert detector.observe(loads((0, 5.0), (1, 4.0), (2, 4.0))) == []
        assert detector.hot == [0]
        # Fully balanced: ratio 1.0 < 1.05 clears the latch.
        assert detector.observe(loads((0, 4.0), (1, 4.0), (2, 4.0))) == []
        assert detector.hot == []

    def test_between_thresholds_never_latches_fresh(self):
        detector = HotspotDetector()
        assert detector.observe(loads((0, 5.0), (1, 4.0), (2, 4.0))) == []
        assert detector.hot == []

    def test_single_processor_is_never_hot(self):
        detector = HotspotDetector()
        detector.observe(loads((0, 10.0), (1, 1.0), (2, 1.0)))
        assert detector.observe(loads((0, 10.0))) == []
        assert detector.hot == []

    def test_zero_mean_clears(self):
        detector = HotspotDetector()
        detector.observe(loads((0, 10.0), (1, 1.0), (2, 1.0)))
        assert detector.observe(loads((0, 0.0), (1, 0.0))) == []
        assert detector.hot == []

    def test_departed_processors_are_pruned(self):
        detector = HotspotDetector()
        detector.observe(loads((0, 10.0), (1, 1.0), (2, 1.0)))
        # Node 0 crashed: its snapshot vanishes and so must its latch.
        assert detector.observe(loads((1, 1.0), (2, 1.0))) == []
        assert detector.hot == []

    def test_custom_thresholds(self):
        detector = HotspotDetector(LoadParams(overload_ratio=2.0))
        assert detector.observe(loads((0, 5.0), (1, 4.0), (2, 4.0))) == []
        assert detector.observe(loads((0, 20.0), (1, 4.0), (2, 4.0))) == [0]


class TestMigrationStateMachine:
    def migration(self):
        return GroupMigration("m0", "G1", source_node=1, target_node=3)

    def test_happy_path(self):
        m = self.migration()
        assert m.state is MigrationState.PREPARING
        for label in ("start_drain", "cut_over", "complete"):
            m.step(label)
        assert m.state is MigrationState.COMPLETED

    def test_abort_from_every_in_flight_state(self):
        for advance in (0, 1, 2):
            m = self.migration()
            for label in ("start_drain", "cut_over")[:advance]:
                m.step(label)
            m.step("abort")
            assert m.state is MigrationState.ABORTED

    def test_out_of_order_transitions_raise(self):
        m = self.migration()
        with pytest.raises(LoadManagementError):
            m.step("cut_over")
        with pytest.raises(LoadManagementError):
            m.step("complete")
        m.step("start_drain")
        with pytest.raises(LoadManagementError):
            m.step("start_drain")

    def test_terminal_states_refuse_abort(self):
        m = self.migration()
        for label in ("start_drain", "cut_over", "complete"):
            m.step(label)
        with pytest.raises(LoadManagementError):
            m.step("abort")
        aborted = self.migration()
        aborted.step("abort")
        with pytest.raises(LoadManagementError):
            aborted.step("abort")

    def test_key_is_group_at_source(self):
        assert self.migration().key == "G1@n1"


class TestMigrationChannel:
    def test_empty_channel_closes_gap_free(self):
        assert MigrationChannel().close(0.0) == []

    def test_in_order_handoff_releases_everything(self):
        channel = MigrationChannel()
        released = [
            channel.send({"kind": "member", "name": f"q{i}"}, float(i))
            for i in range(3)
        ]
        assert released == [1, 1, 1]
        assert channel.receiver._expected == 3
        assert channel.close(3.0) == []

    def test_lost_chunk_surfaces_as_gap(self):
        channel = MigrationChannel()
        channel.uplink.stamp({"kind": "header"}, 0.0)  # seq 0, never offered
        seq = channel.uplink.stamp({"kind": "member"}, 1.0)
        channel.receiver.offer(seq, {"kind": "member"}, 1.0)
        assert channel.close(2.0) == [0]


@pytest.fixture
def system(line_tree):
    """Two processors (1, 3) on the 0-1-2-3-4 line, source at 0."""
    sys_ = CosmosSystem(line_tree, processor_nodes=[1, 3])
    sys_.add_source(TEMP, 0)
    return sys_


def submit_pair(system):
    """Two identical queries from node 4 — they merge into one group."""
    qa = system.submit(
        "SELECT T.station FROM Temp [Now] T", user_node=4, name="qa"
    )
    qb = system.submit(
        "SELECT T.station FROM Temp [Now] T", user_node=4, name="qb"
    )
    assert qa.processor_node == qb.processor_node
    processor = system.processors[qa.processor_node]
    (group,) = processor.manager.groups
    return qa, qb, group


class TestPlacement:
    def test_cost_prices_source_pull_and_result_push(self, system):
        __, __, group = submit_pair(system)
        near_source = placement_cost(system, group, 1)
        near_user = placement_cost(system, group, 3)
        assert near_source > 0.0 and near_user > 0.0
        # Both processors pay the same 4-hop source->user span split
        # differently; the cheaper one wins in choose_target.
        best = choose_target(system, group, exclude=set())
        assert best in (1, 3)
        assert placement_cost(system, group, best) == min(near_source, near_user)

    def test_choose_target_honours_exclusions(self, system):
        __, __, group = submit_pair(system)
        best = choose_target(system, group, exclude=set())
        other = choose_target(system, group, exclude={best})
        assert other is not None and other != best
        assert choose_target(system, group, exclude={1, 3}) is None


class TestCaptureState:
    def test_header_plus_one_chunk_per_member(self, system):
        qa, __, group = submit_pair(system)
        chunks = capture_group_state(system, qa.processor_node, group.group_id)
        assert chunks[0]["kind"] == "header"
        assert chunks[0]["group"] == group.group_id
        assert chunks[0]["members"] == 2
        assert [c["name"] for c in chunks[1:]] == ["qa", "qb"]

    def test_gone_group_captures_empty(self, system):
        qa, __, group = submit_pair(system)
        assert capture_group_state(system, qa.processor_node, "nope") == []
        assert capture_group_state(system, 99, group.group_id) == []


class TestQuarantineResume:
    def test_quarantine_withdraws_users_and_degrades(self, system):
        qa, qb, group = submit_pair(system)
        names = quarantine_for_migration(system, qa.processor_node, group.group_id)
        assert names == ["qa", "qb"]
        assert qa.status is QueryStatus.DEGRADED
        assert qb.status is QueryStatus.DEGRADED
        assert "qa" not in system._user_subscriptions
        # Deliveries stop while the group is in motion.
        system.publish("Temp", {"station": 3, "celsius": 20.0}, 1.0)
        assert qa.result_count == 0

    def test_quarantine_is_idempotent_per_member(self, system):
        qa, __, group = submit_pair(system)
        quarantine_for_migration(system, qa.processor_node, group.group_id)
        # Already-degraded members belong to their first quarantiner.
        assert (
            quarantine_for_migration(system, qa.processor_node, group.group_id)
            == []
        )

    def test_quarantine_unknown_endpoints_raise(self, system):
        qa, __, group = submit_pair(system)
        with pytest.raises(LoadManagementError):
            quarantine_for_migration(system, 99, group.group_id)
        with pytest.raises(LoadManagementError):
            quarantine_for_migration(system, qa.processor_node, "nope")

    def test_resume_at_source_is_the_abort_path(self, system):
        qa, qb, group = submit_pair(system)
        node = qa.processor_node
        quarantine_for_migration(system, node, group.group_id)
        resumed = resume_after_migration(system, node, ["qa", "qb"])
        assert resumed == ["qa", "qb"]
        assert qa.status is QueryStatus.ACTIVE
        assert qb.status is QueryStatus.ACTIVE
        system.publish("Temp", {"station": 3, "celsius": 20.0}, 1.0)
        assert qa.result_count == 1 and qb.result_count == 1

    def test_resume_skips_members_it_does_not_own(self, system):
        qa, __, group = submit_pair(system)
        node = qa.processor_node
        # qa never quarantined: ACTIVE members are left untouched.
        assert resume_after_migration(system, node, ["qa", "ghost"]) == []


class TestCutover:
    def test_cutover_moves_group_and_keeps_delivering(self, system):
        qa, qb, group = submit_pair(system)
        source = qa.processor_node
        target = 3 if source == 1 else 1
        quarantine_for_migration(system, source, group.group_id)
        migration = GroupMigration(
            "m0", group.group_id, source, target, members=["qa", "qb"]
        )
        migration.step("start_drain")
        migration.step("cut_over")
        resumed = cutover_group(system, migration)
        migration.step("complete")
        assert resumed == ["qa", "qb"]
        assert qa.processor_node == target and qb.processor_node == target
        assert system.processors[source].manager.grouping.group_count == 0
        assert system.processors[target].manager.grouping.group_count == 1
        # Zero loss: post-move tuples flow to both members.
        system.publish("Temp", {"station": 5, "celsius": 21.0}, 2.0)
        assert qa.result_count == 1 and qb.result_count == 1

    def test_cutover_with_missing_endpoint_raises(self, system):
        qa, __, group = submit_pair(system)
        migration = GroupMigration("m0", group.group_id, qa.processor_node, 99)
        with pytest.raises(LoadManagementError):
            cutover_group(system, migration)

    def test_release_group_hands_back_members_intact(self, system):
        qa, __, group = submit_pair(system)
        processor = system.processors[qa.processor_node]
        members = processor.release_group(group.group_id)
        assert [m.name for m in members] == ["qa", "qb"]
        assert processor.manager.grouping.group_count == 0
        with pytest.raises(KeyError):
            processor.release_group(group.group_id)


class TestAttachLoadManager:
    def test_attach_creates_and_installs_state(self, system):
        state = attach_load_manager(system, LoadParams(overload_ratio=1.5))
        assert system.load is state
        assert state.params.overload_ratio == 1.5
        assert state.detector.params is state.params

    def test_twins_share_one_state(self, system, line_tree):
        twin = CosmosSystem(line_tree, processor_nodes=[1, 3])
        twin.add_source(TEMP, 0)
        state = attach_load_manager(system)
        assert attach_load_manager(twin, state=state) is state
        assert twin.load is system.load

    def test_health_exposes_load_keys_with_and_without_state(self, system):
        bare = SystemMonitor(system).health()
        attach_load_manager(system)
        system.load.counters.hotspots_detected = 2
        system.load.detector._hot.add(1)
        system.load.active["G1@n1"] = GroupMigration("m0", "G1", 1, 3)
        managed = SystemMonitor(system).health()
        assert set(bare) == set(managed)  # stable key set either way
        assert bare["migrations_in_flight"] == 0
        assert managed["hotspots_detected"] == 2
        assert managed["hot_processors"] == [1]
        assert managed["migrations_in_flight"] == 1


class TestLoadState:
    def test_post_init_builds_detector_from_params(self):
        params = LoadParams(clear_ratio=1.2)
        state = LoadState(params=params)
        assert state.detector.params is params
        assert state.active == {}
        assert state.counters.as_dict()["migrations_started"] == 0
