"""Activity counts: ``ChaosCounters.as_dict`` and ``health()``'s key order.

Both are serialised into ``health()``, the CLI totals and the pinned
``BENCH_chaos*.json`` sweeps, so their keys are pinned here as literals
and their values must be snapshots.  A count that a lifecycle row also
counts is read off the executor (``Lifecycle.taken``), never kept twice.
"""

import json
from pathlib import Path

import pytest

from repro.sim.network import NODE_SUPERVISION, ChaosCounters, ChaosExecutionError
from repro.system.cosmos import CosmosSystem
from repro.system.lifecycle import Lifecycle
from repro.system.monitor import SystemMonitor

CHAOS_KEYS = [
    "injects",
    "duplicates",
    "drops",
    "faults_applied",
    "faults_refused",
    "deliveries",
]

HEALTH_KEYS = [
    # reliability counts
    "nacks_sent",
    "retransmits",
    "duplicates_suppressed",
    "reorder_occupancy",
    "reorder_peak",
    "gaps_abandoned",
    "nodes_suspected",
    "repairs_applied",
    "repairs_retried",
    "queries_quarantined",
    "queries_resumed",
    # reliability lists
    "suspected_nodes",
    "quarantined_queries",
    "degraded_queries",
    # load counts
    "hotspots_detected",
    "migrations_started",
    "migrations_completed",
    "migrations_aborted",
    "migrations_retried",
    "state_chunks_sent",
    # load lists
    "hot_processors",
    "migrations_in_flight",
]


#: Each count read off an executor: (key, machine, the labels it sums).
VIEWS = [
    ("nacks_sent", "uplink-receiver", ("nack",)),
    ("duplicates_suppressed", "uplink-receiver", ("duplicate",)),
    ("gaps_abandoned", "uplink-receiver", ("abandon",)),
    ("nodes_suspected", "failure-detector", ("suspect",)),
    ("repairs_applied", "node-supervision", ("repair_applied",)),
    ("repairs_retried", "node-supervision", ("repair_retry",)),
    ("queries_quarantined", "QueryStatus", ("quarantine_partitioned",)),
    ("queries_resumed", "QueryStatus", ("heal_partition",)),
    ("migrations_completed", "MigrationState", ("complete",)),
    ("migrations_aborted", "MigrationState", ("abort",)),
    ("faults_applied", "node-supervision", ("fail_applied", "repair_applied", "degraded")),
    ("faults_refused", "node-supervision", ("fail_refused", "gave_up")),
]

ROOT = Path(__file__).resolve().parents[2]
SWEEPS = ["BENCH_chaos.json", "BENCH_chaos_recovery.json",
          "BENCH_chaos_migration.json", "BENCH_chaos_scale.json"]


def committed_records():
    for name in SWEEPS:
        for record in json.loads((ROOT / name).read_text())["seeds"]:
            yield name, record


def chaos_counters():
    return ChaosCounters(Lifecycle(NODE_SUPERVISION, ChaosExecutionError, "node"))


class TestAsDict:
    def test_keys_are_pinned(self):
        assert list(chaos_counters().as_dict()) == CHAOS_KEYS

    def test_values_are_the_current_counts(self):
        counters = chaos_counters()
        counters.injects, counters.duplicates, counters.drops = 1, 2, 3
        counters.deliveries = 6
        supervision = counters.supervision
        supervision.step(1, "fail_applied")
        for node in (2, 3):
            supervision.step(node, "crash")
            supervision.step(node, "suspect")
        supervision.step(2, "repair_applied")
        supervision.step(3, "degraded")
        for node in (4, 5):
            supervision.step(node, "fail_refused")
        supervision.step(6, "crash")
        supervision.step(6, "suspect")
        supervision.step(6, "gave_up")
        assert list(counters.as_dict().values()) == [1, 2, 3, 3, 3, 6]

    def test_is_a_snapshot(self):
        counters = chaos_counters()
        view = counters.as_dict()
        view["injects"] = 99
        counters.injects = 5
        counters.supervision.step(1, "fail_applied")
        assert view["injects"] == 99 and view["faults_applied"] == 0
        assert counters.as_dict()["injects"] == 5
        assert counters.as_dict()["faults_applied"] == 1


def test_health_keys_in_pinned_order(line_tree):
    # Reliability counts, the reliability lists, then load counts and
    # the load lists: the order the chaos sweeps serialise.
    health = SystemMonitor(CosmosSystem(line_tree, processor_nodes=[2])).health()
    assert list(health) == HEALTH_KEYS


@pytest.mark.parametrize("key, machine, labels", VIEWS, ids=[view[0] for view in VIEWS])
def test_every_committed_seed_reports_its_rows(key, machine, labels):
    # The sweeps record each run's counts and the rows its executors
    # took side by side; on every committed seed they are one number.
    seen = 0
    for name, record in committed_records():
        rows = record["transitions"].get(machine, {})
        taken = sum(n for row, n in rows.items() if row.partition(" ")[0] in labels)
        reported = record[key] if key.startswith("faults_") else record["health"][key]
        assert reported == taken, (name, record["seed"])
        if record.get("reliability") is not None and key in record["reliability"]:
            assert record["reliability"][key] == taken, (name, record["seed"])
        seen += 1
    assert seen == 78
