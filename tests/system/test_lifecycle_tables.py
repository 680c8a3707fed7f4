"""The two lifecycles the runtime runs from a table.

``QUERY_LIFECYCLE`` (``system/cosmos.py``) and ``MIGRATION_LIFECYCLE``
(``system/loadmgr.py``) are executed by ``SubmittedQuery.step`` and
``GroupMigration.step``, the only writers of a handle's status and a
migration's state.  Every ``(label, state)`` pair is tried against the
lifecycle written out below: a listed step reaches its target, any
other raises and leaves the state as it was.
"""

from __future__ import annotations

import pytest

from repro.system import cosmos, loadmgr
from repro.system.cosmos import QueryStatus, SubmittedQuery, SystemError_
from repro.system.loadmgr import (
    GroupMigration,
    LoadManagementError,
    MigrationState,
    quarantine_for_migration,
    resume_after_migration,
)
from repro.system.reliability import heal_partition, quarantine_partitioned
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


def _handle(status):
    return SubmittedQuery("q", None, 0, 0, "g0:results", status=status)


def _migration(state):
    return GroupMigration("m0", "G1", source_node=1, target_node=3, state=state)


_LIFECYCLES = {
    "QueryStatus": (QueryStatus, QUERY_STEPS, _handle, "status", SystemError_),
    "MigrationState": (
        MigrationState, MIGRATION_STEPS, _migration, "state", LoadManagementError,
    ),
}

_CASES = [
    (name, label, member.name)
    for name, (enum, steps, _make, _attr, _error) in _LIFECYCLES.items()
    for label in dict.fromkeys(label for label, _source in steps)
    for member in enum
]


@pytest.mark.parametrize(
    "name, label, state", _CASES, ids=["-".join(case) for case in _CASES]
)
def test_a_step_is_taken_only_where_the_table_lists_it(name, label, state):
    enum, steps, make, attr, error = _LIFECYCLES[name]
    subject = make(enum[state])
    target = steps.get((label, state))
    if target is not None:
        subject.step(label)
        assert getattr(subject, attr) is enum[target]
    else:
        with pytest.raises(error, match=label):
            subject.step(label)
        assert getattr(subject, attr) is enum[state]


def test_the_tables_list_these_steps_and_nothing_else():
    for table, steps in (
        (cosmos.QUERY_LIFECYCLE, QUERY_STEPS),
        (loadmgr.MIGRATION_LIFECYCLE, MIGRATION_STEPS),
    ):
        rows = {(label, source): target for label, source, target in table["rows"]}
        assert rows == steps and len(table["rows"]) == len(steps)
    assert SubmittedQuery("q", None, 0, 0, "r").status is QueryStatus.ACTIVE
    assert GroupMigration("m", "G", 1, 3).state is MigrationState.PREPARING


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
