"""Deterministic chaos simulation: seeded fault injection with oracles.

Layered on the repo's own building blocks — the
:class:`~repro.system.events.EventSimulator` for global time ordering,
the real fault-tolerance entry points for crash/repair — this package
turns a single seed into a fully resolved chaos schedule (lossy source
links, broker/processor crashes), executes it against one system whose
every publication is also scanned by the naive reference data plane, and
checks delivery against an oracle that computes ground truth directly
from the queries and the effective input feed.
Failing seeds replay byte-identically and shrink to minimal schedules.
"""

from __future__ import annotations

from repro.sim.network import ChaosCounters, ChaosExecutionError, VirtualNetwork
from repro.sim.oracle import (
    check_chronology,
    check_ground_truth,
    check_no_orphans,
    compare_systems,
    expected_results,
    pristine_feed_from_events,
)
from repro.sim.runner import (
    ChaosConfig,
    ChaosReport,
    build_system,
    generate_schedule,
    protected_nodes,
    query_ids,
    run_chaos,
    run_schedule,
    shrink_failing_schedule,
)
from repro.sim.schedule import (
    ChaosSchedule,
    DropEvent,
    FaultEvent,
    InjectEvent,
    LinkModel,
    MigrationEvent,
    PunctuationEvent,
    merge_events,
    perturb_feed,
    plan_faults,
)
from repro.sim.trace import ChaosTrace, shrink_schedule

__all__ = [
    "ChaosConfig",
    "ChaosCounters",
    "ChaosExecutionError",
    "ChaosReport",
    "ChaosSchedule",
    "ChaosTrace",
    "DropEvent",
    "FaultEvent",
    "InjectEvent",
    "LinkModel",
    "MigrationEvent",
    "PunctuationEvent",
    "VirtualNetwork",
    "build_system",
    "check_chronology",
    "check_ground_truth",
    "check_no_orphans",
    "compare_systems",
    "expected_results",
    "generate_schedule",
    "merge_events",
    "perturb_feed",
    "plan_faults",
    "pristine_feed_from_events",
    "protected_nodes",
    "query_ids",
    "run_chaos",
    "run_schedule",
    "shrink_failing_schedule",
    "shrink_schedule",
]
