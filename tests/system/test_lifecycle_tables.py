"""The five lifecycles the runtime runs from a table.

``QUERY_LIFECYCLE`` (``system/cosmos.py``) and ``MIGRATION_LIFECYCLE``
(``system/loadmgr.py``) are executed by ``SubmittedQuery.step`` and
``GroupMigration.step``, the only writers of a handle's status and a
migration's state.  ``UPLINK_RECEIVER`` and ``FAILURE_DETECTOR``
(``system/reliability.py``) and ``NODE_SUPERVISION`` (``sim/network.py``)
are keyed: one state per sequence number or node, in the ``states`` of
the owner's :class:`~repro.system.lifecycle.Lifecycle`.  Every
``(label, state)`` pair is tried against the lifecycle written out
below: a listed step reaches its target, any other raises and leaves
the state as it was.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import ChaosConfig, run_chaos
from repro.sim.network import NODE_SUPERVISION, ChaosExecutionError
from repro.system import cosmos, loadmgr, reliability
from repro.system.cosmos import QueryStatus, SubmittedQuery, SystemError_
from repro.system.lifecycle import Lifecycle
from repro.system.loadmgr import (
    GroupMigration,
    LoadManagementError,
    MigrationState,
    quarantine_for_migration,
    resume_after_migration,
)
from repro.system.reliability import (
    FailureDetector,
    ReliabilityError,
    ReliabilityParams,
    UplinkReceiver,
    heal_partition,
    quarantine_partitioned,
)
from tests.system.test_reliability import build_chain_system

#: (label, from) -> to: quarantine and resume, by either owner.
QUERY_STEPS = {
    ("quarantine_for_migration", "ACTIVE"): "DEGRADED",
    ("resume_after_migration", "DEGRADED"): "ACTIVE",
    ("quarantine_partitioned", "ACTIVE"): "DEGRADED",
    ("heal_partition", "DEGRADED"): "ACTIVE",
}

#: (label, from) -> to: a live migration finishes or rolls back.
MIGRATION_STEPS = {
    ("start_drain", "PREPARING"): "DRAINING",
    ("cut_over", "DRAINING"): "CUTOVER",
    ("complete", "CUTOVER"): "COMPLETED",
    ("abort", "PREPARING"): "ABORTED",
    ("abort", "DRAINING"): "ABORTED",
    ("abort", "CUTOVER"): "ABORTED",
}


#: (label, from) -> to: one uplink sequence number's slot.
SLOT_STEPS = {
    ("arrive", "UNSEEN"): "BUFFERED",
    ("arrive", "GAP"): "BUFFERED",
    ("arrive", "ABANDONED"): "BUFFERED",
    ("drop", "UNSEEN"): "LOST",
    ("gap_detect", "UNSEEN"): "GAP",
    ("gap_detect", "LOST"): "GAP",
    ("nack", "GAP"): "GAP",
    ("retransmit", "GAP"): "BUFFERED",
    ("retransmit", "ABANDONED"): "BUFFERED",
    ("duplicate", "BUFFERED"): "BUFFERED",
    ("duplicate", "RELEASED"): "RELEASED",
    ("abandon", "GAP"): "ABANDONED",
    ("release", "BUFFERED"): "RELEASED",
}

#: (label, from) -> to: one node's lease.
LEASE_STEPS = {
    ("register", "UNKNOWN"): "MONITORED",
    ("register", "SUSPECTED"): "MONITORED",
    ("heartbeat", "MONITORED"): "MONITORED",
    ("suspect", "MONITORED"): "SUSPECTED",
    ("deregister", "MONITORED"): "UNKNOWN",
    ("deregister", "SUSPECTED"): "UNKNOWN",
}

#: (label, from) -> to: one chaos node under supervision.
NODE_STEPS = {
    ("crash", "LIVE"): "CRASHED",
    ("fail_applied", "LIVE"): "REMOVED",
    ("fail_refused", "LIVE"): "LIVE",
    ("suspect", "CRASHED"): "SUSPECTED",
    ("repair_applied", "SUSPECTED"): "REMOVED",
    ("repair_retry", "SUSPECTED"): "SUSPECTED",
    ("degraded", "SUSPECTED"): "REMOVED",
    ("gave_up", "SUSPECTED"): "REMOVED",
}


class _Keyed:
    """One key of a keyed table, read through its owner's executor."""

    def __init__(self, lifecycle, state, key=7):
        self.lifecycle, self.key = lifecycle, key
        if state != lifecycle.initial:
            lifecycle.states[key] = state

    @property
    def state(self):
        return self.lifecycle.states.get(self.key, self.lifecycle.initial)

    def step(self, label):
        self.lifecycle.step(self.key, label)


def _handle(status):
    return SubmittedQuery("q", None, 0, 0, "g0:results", status=status)


def _migration(state):
    return GroupMigration("m0", "G1", source_node=1, target_node=3, state=state)


def _by_name(enum):
    return {member.name: member for member in enum}


def _slot(state):
    return _Keyed(UplinkReceiver().slots, state)


def _lease(state):
    return _Keyed(FailureDetector().leases, state)


def _node(state):
    return _Keyed(Lifecycle(NODE_SUPERVISION, ChaosExecutionError, "node"), state)


def _names(table):
    return {name: name for name in table["states"]}


#: name -> (state name -> state, steps, make, error)
_LIFECYCLES = {
    "QueryStatus": (_by_name(QueryStatus), QUERY_STEPS, _handle, SystemError_),
    "MigrationState": (
        _by_name(MigrationState), MIGRATION_STEPS, _migration, LoadManagementError,
    ),
    "uplink-receiver": (
        _names(reliability.UPLINK_RECEIVER), SLOT_STEPS, _slot, ReliabilityError,
    ),
    "failure-detector": (
        _names(reliability.FAILURE_DETECTOR), LEASE_STEPS, _lease, ReliabilityError,
    ),
    "node-supervision": (_names(NODE_SUPERVISION), NODE_STEPS, _node, ChaosExecutionError),
}

_CASES = [
    (name, label, state)
    for name, (states, steps, _make, _error) in _LIFECYCLES.items()
    for label in dict.fromkeys(label for label, _source in steps)
    for state in states
]


def _state(subject):
    return subject.status if isinstance(subject, SubmittedQuery) else subject.state


@pytest.mark.parametrize(
    "name, label, state", _CASES, ids=["-".join(case) for case in _CASES]
)
def test_a_step_is_taken_only_where_the_table_lists_it(name, label, state):
    states, steps, make, error = _LIFECYCLES[name]
    subject = make(states[state])
    target = steps.get((label, state))
    if target is not None:
        subject.step(label)
        assert _state(subject) == states[target]
    else:
        with pytest.raises(error, match=label):
            subject.step(label)
        assert _state(subject) == states[state]


def test_the_tables_list_these_steps_and_nothing_else():
    for table, steps in (
        (cosmos.QUERY_LIFECYCLE, QUERY_STEPS),
        (loadmgr.MIGRATION_LIFECYCLE, MIGRATION_STEPS),
        (reliability.UPLINK_RECEIVER, SLOT_STEPS),
        (reliability.FAILURE_DETECTOR, LEASE_STEPS),
        (NODE_SUPERVISION, NODE_STEPS),
    ):
        rows = {(label, source): target for label, source, target in table["rows"]}
        assert rows == steps and len(table["rows"]) == len(steps)
    assert SubmittedQuery("q", None, 0, 0, "r").status is QueryStatus.ACTIVE
    assert GroupMigration("m", "G", 1, 3).state is MigrationState.PREPARING


def test_a_step_counts_its_row_and_a_refused_one_counts_nothing():
    lifecycle = Lifecycle(NODE_SUPERVISION, ChaosExecutionError, "node")
    lifecycle.step(4, "crash")
    lifecycle.step(4, "suspect")
    with pytest.raises(ChaosExecutionError, match="node 4: no step 'crash' from SUSPECTED"):
        lifecycle.step(4, "crash")
    lifecycle.step(5, "fail_refused")  # back at LIVE: not stored
    assert lifecycle.states == {4: "SUSPECTED"}
    assert lifecycle.counts == {
        "crash LIVE->CRASHED": 1,
        "suspect CRASHED->SUSPECTED": 1,
        "fail_refused LIVE->LIVE": 1,
    }


def test_a_sweep_counts_its_heartbeats_in_bulk():
    """Every node that answered renews its lease as one count of the
    heartbeat row: no node's state is stepped or stored again."""
    detector = FailureDetector(ReliabilityParams(heartbeat_period=5.0, lease_misses=3))
    for node in range(5):
        detector.register(node, 0.0)
    states = dict(detector.leases.states)
    detector.sweep(5.0, silent={3})
    detector.sweep(10.0, silent={3})
    assert detector.leases.counts["heartbeat MONITORED->MONITORED"] == 8
    assert detector.leases.states == states


def test_a_lossy_feed_leaves_no_slot_below_the_watermark():
    """Below the watermark a slot is RELEASED or ABANDONED by
    construction: the receiver stores only the slots it still waits on."""
    rng = random.Random(7)
    receiver = UplinkReceiver()
    sent = [seq for seq in range(400) if rng.random() > 0.1]  # the rest drop
    arrivals = []
    for seq in sent:
        arrivals.insert(len(arrivals) - rng.randrange(3), seq)  # reorder
        if rng.random() < 0.1:
            arrivals.append(seq)  # a wire duplicate
    for seq in arrivals:
        receiver.offer(seq, {"v": seq}, float(seq))
        assert all(slot >= receiver._expected for slot in receiver.slots.states)
        assert "RELEASED" not in receiver.slots.states.values()
    receiver.announce(399)
    for gap in receiver.open_gaps:
        receiver.abandon(gap)
    assert receiver._expected == 400 and receiver.slots.states == {}
    counts = receiver.slots.counts
    assert counts["release BUFFERED->RELEASED"] == len(sent)
    assert counts["abandon GAP->ABANDONED"] == 400 - len(sent)
    duplicates = sum(n for row, n in counts.items() if row.startswith("duplicate"))
    assert duplicates == len(arrivals) - len(sent) > 0


def test_chaos_seed_0_counts_the_same_rows_twice_in_one_process():
    config = ChaosConfig(seed=0, recovery=True, migrate=True)
    first, second = run_chaos(config), run_chaos(config)
    assert first.transitions == second.transitions
    assert set(first.transitions) == set(_LIFECYCLES)
    assert first.transitions["failure-detector"]["heartbeat MONITORED->MONITORED"] > 0


class TestWithoutTheHealRows:
    """The runtime half of the canary whose static half is
    ``tests/analysis/test_model.py``: with both ``DEGRADED -> ACTIVE``
    rows deleted, nothing may bring a quarantined query back."""

    @pytest.fixture
    def no_heal_rows(self, monkeypatch):
        rows = tuple(
            row for row in cosmos.QUERY_LIFECYCLE["rows"]
            if row[1:] != ("DEGRADED", "ACTIVE")
        )
        assert len(rows) == 2
        monkeypatch.setitem(cosmos.QUERY_LIFECYCLE, "rows", rows)

    def test_heal_partition_raises(self, no_heal_rows):
        system, _handles = build_chain_system()
        assert quarantine_partitioned(system, 3) == ["q1"]
        system.topology.add_edge(2, 4, 1.0)  # the partition heals
        with pytest.raises(SystemError_, match="heal_partition"):
            heal_partition(system)
        assert system.query("q1").status is QueryStatus.DEGRADED

    def test_resume_after_migration_raises(self, no_heal_rows):
        system, _handles = build_chain_system()
        group = system.processors[1].manager.grouping.group_of("q0")
        assert quarantine_for_migration(system, 1, group.group_id) == ["q0", "q1"]
        with pytest.raises(SystemError_, match="resume_after_migration"):
            resume_after_migration(system, 1, ["q0", "q1"])
