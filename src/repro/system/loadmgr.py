"""Adaptive load management: hotspots, placement, live migration.

The paper's load management service (section 2) both *distributes* a
new query to a processor and *re*-distributes running work when the
load landscape shifts.  Submission-time placement lives in
:mod:`repro.system.distribution`; this module adds the runtime half:

* **Hotspot detection** — :class:`HotspotDetector` turns
  :meth:`~repro.system.monitor.SystemMonitor.processor_loads` snapshots
  into threshold-crossing overload events with hysteresis (a processor
  must fall back below a lower clear ratio before it can trigger
  again), so a load hovering at the threshold cannot flap.
* **Cost-driven placement** — :func:`placement_cost` prices hosting one
  *whole merged query group* on a candidate processor: the tree's
  :meth:`~repro.overlay.tree.DisseminationTree.flow_cost` of the
  group's flows (representative source flows in, per-member result
  flows out — the allocation model of Benoit et al.), and
  :func:`choose_target` picks the cheapest candidate.  The unit of
  migration is the group, never a member, so grouping opportunities
  are preserved by construction.
* **Live migration** — :class:`GroupMigration` is the per-move state
  machine (``PREPARING -> DRAINING -> CUTOVER -> COMPLETED``, with
  ``ABORTED`` reachable from every non-terminal state).  The group is
  quarantined through the same ``DEGRADED`` lifecycle the partition
  path uses (:func:`quarantine_for_migration`), its state is captured
  at the source (:func:`capture_group_state`, the drain), and once the
  target is up :func:`cutover_group` re-registers the members on the
  target in process and :func:`resume_after_migration` heals them back
  to ``ACTIVE`` (both install subscriptions only through
  :meth:`CosmosSystem.reconcile_group`).  Retry/abort policy (capped
  exponential backoff towards a possibly-crashed target,
  abort-to-source) is the caller's job — the chaos executor in
  :mod:`repro.sim.network` drives it over the event simulator,
  deterministically.

:func:`attach_load_manager` hangs a :class:`LoadState` on a
:class:`~repro.system.cosmos.CosmosSystem`; the monitor's ``health()``
reads it from there, migrations completed and aborted as rows of
:data:`MIGRATION_LIFECYCLE`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.grouping import QueryGroup
from repro.overlay.topology import NodeId
from repro.overlay.tree import Demand
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.lifecycle import Lifecycle


class LoadManagementError(Exception):
    """Raised for invalid migration protocol transitions or targets."""


# ---------------------------------------------------------------------------
# thresholds and counters
# ---------------------------------------------------------------------------


# The detector compares one processor's merged representative output
# rate against the mean across live processors; the gap between the two
# ratios is hysteresis, so a load hovering at the threshold cannot flap.
# The migration timings the chaos executor schedules sit beside it, in
# :mod:`repro.sim.network`.  Read at call time, so a test substitutes
# one with ``monkeypatch.setattr``.

#: merged_rate / mean ratio at which a processor becomes hot.
OVERLOAD_RATIO = 1.25
#: Ratio the processor must fall below before it can re-trigger.
CLEAR_RATIO = 1.05


@dataclass
class LoadCounters:
    """Load-management activity no row of :attr:`LoadState.lifecycle`
    counts (a cutover retry stays in ``DRAINING``), exposed via
    ``health()``; ``migrations_started`` also names migrations."""

    hotspots_detected: int = 0
    migrations_started: int = 0
    migrations_retried: int = 0
    state_chunks_sent: int = 0


# ---------------------------------------------------------------------------
# hotspot detection
# ---------------------------------------------------------------------------


class HotspotDetector:
    """Threshold-crossing overload detection with hysteresis.

    Feed it :class:`~repro.system.monitor.ProcessorLoad` snapshots;
    :meth:`observe` returns the processors that *newly* crossed the
    overload ratio this observation.  A processor already flagged hot
    stays latched (and is not re-reported) until its ratio falls below
    :data:`CLEAR_RATIO`; single-processor deployments are never hot (there
    is nowhere to shed load to).
    """

    def __init__(self) -> None:
        self._hot: Set[NodeId] = set()

    @property
    def hot(self) -> List[NodeId]:
        """Currently latched hot processors (sorted)."""
        return sorted(self._hot)

    def observe(self, loads: Sequence) -> List[NodeId]:
        """Ingest one load snapshot; returns newly hot processors."""
        if len(loads) < 2:
            self._hot.clear()
            return []
        mean = sum(load.merged_rate for load in loads) / len(loads)
        if mean <= 0.0:
            self._hot.clear()
            return []
        present = {load.node_id for load in loads}
        self._hot &= present
        newly: List[NodeId] = []
        for load in sorted(loads, key=lambda l: l.node_id):
            ratio = load.merged_rate / mean
            if load.node_id in self._hot:
                if ratio < CLEAR_RATIO:
                    self._hot.discard(load.node_id)
                continue
            if ratio >= OVERLOAD_RATIO:
                self._hot.add(load.node_id)
                newly.append(load.node_id)
        return newly


# ---------------------------------------------------------------------------
# cost-driven placement
# ---------------------------------------------------------------------------


def group_flows(
    system: CosmosSystem, group: QueryGroup, node: NodeId
) -> List[Demand]:
    """The flows of ``group`` if ``node`` hosted it: the representative
    pulls its sources, every member with a user pushes its results
    (:meth:`~repro.core.cost.CostModel.group_flows`)."""
    handles = [system.find_query(member.name) for member in group.members]
    members = [
        (member, handle.user_node)
        for member, handle in zip(group.members, handles)
        if handle is not None
    ]
    return system.cost_model.group_flows(
        group.representative, members, system.sources, node, system.catalog
    )


def placement_cost(
    system: CosmosSystem, group: QueryGroup, node: NodeId
) -> float:
    """Estimated communication cost of hosting ``group`` on ``node``:
    the price of its :func:`group_flows` on the tree.  The unit is the
    merged group, so placement and migration agree on the unit of work;
    a lone query placed by
    :class:`~repro.system.distribution.CostAwareDistribution` is the
    group of one."""
    return system.tree.flow_cost(group_flows(system, group, node))


def choose_target(
    system: CosmosSystem, group: QueryGroup, exclude: Set[NodeId]
) -> Optional[NodeId]:
    """The cheapest live processor to move ``group`` to, or ``None``.

    ``exclude`` lists processors that cannot receive the group (the
    source itself, plus anything the caller knows to be crashed).
    """
    candidates = [
        node for node in sorted(system.processors) if node not in exclude
    ]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda node: (placement_cost(system, group, node), node),
    )


# ---------------------------------------------------------------------------
# the migration state machine
# ---------------------------------------------------------------------------


class MigrationState(enum.Enum):
    """Lifecycle of one live group migration.

    ``PREPARING`` — group quarantined at the source, waiting for the
    drain.  ``DRAINING`` — the group's state is captured, waiting for
    the target to be up.  ``CUTOVER`` — the group is being
    re-registered on the target.  ``COMPLETED`` and ``ABORTED`` are
    terminal.
    """

    PREPARING = "preparing"
    DRAINING = "draining"
    CUTOVER = "cutover"
    COMPLETED = "completed"
    ABORTED = "aborted"


#: The migration lifecycle: one ``(label, from, to)`` row per step, and
#: the states a migration ends in.  The in-flight states may never be
#: where a group parks: each must finish or roll back.
#: :meth:`GroupMigration.step` runs it, and ``repro flow`` reads this
#: literal from the source.
MIGRATION_LIFECYCLE = {
    "initial": "PREPARING",
    "terminal": ("COMPLETED", "ABORTED"),
    "rows": (
        # the group's state was captured at the source
        ("start_drain", "PREPARING", "DRAINING"),
        # the target is up
        ("cut_over", "DRAINING", "CUTOVER"),
        # the group runs on the target
        ("complete", "CUTOVER", "COMPLETED"),
        ("abort", "PREPARING", "ABORTED"),
        ("abort", "DRAINING", "ABORTED"),
        ("abort", "CUTOVER", "ABORTED"),
    ),
}


@dataclass
class GroupMigration:
    """One in-flight migration of a whole merged query group."""

    migration_id: str
    group_id: str
    source_node: NodeId
    target_node: NodeId
    #: Member query ids quarantined by this migration (the ones the
    #: protocol owns and must resume, at the target on completion or
    #: back at the source on abort).
    members: List[str] = field(default_factory=list)
    state: MigrationState = MigrationState[MIGRATION_LIFECYCLE["initial"]]
    #: The executor that counts this migration's steps: its load state's.
    lifecycle: Lifecycle = field(
        default_factory=lambda: Lifecycle(MIGRATION_LIFECYCLE, LoadManagementError),
        repr=False,
        compare=False,
    )

    def step(self, label: str) -> None:
        """Take the lifecycle step ``label`` from the current state.

        The one writer of :attr:`state`; raises
        :class:`LoadManagementError` for a step
        :data:`MIGRATION_LIFECYCLE` does not list.
        """
        self.state = MigrationState[
            self.lifecycle.take(label, self.state.name, f"migration {self.migration_id}")
        ]

    @property
    def key(self) -> str:
        """The in-flight registry key: one live move per (group, source)."""
        return f"{self.group_id}@n{self.source_node}"


# ---------------------------------------------------------------------------
# migration mechanics over a CosmosSystem
# ---------------------------------------------------------------------------


def capture_group_state(
    system: CosmosSystem, node: NodeId, group_id: str
) -> List[Dict[str, object]]:
    """The drain's snapshot of a group, as ordered chunks.

    One header chunk (group identity, membership size, SPE engine name)
    followed by one chunk per member (name and accumulated result
    count).  The drain counts the chunks; nothing reads them yet, since
    the cutover re-registers the members in process.  Returns ``[]``
    when the group is gone — the caller treats that as a superseded
    migration.
    """
    processor = system.processors.get(node)
    if processor is None:
        return []
    group = processor.manager.grouping.group(group_id)
    if group is None:
        return []
    chunks: List[Dict[str, object]] = [
        {
            "kind": "header",
            "group": group_id,
            "members": len(group.members),
            "engine": processor.engine_name_of(group_id) or "-",
        }
    ]
    for member in group.members:
        handle = system.find_query(member.name)
        chunks.append(
            {
                "kind": "member",
                "name": member.name,
                "results": handle.result_count if handle is not None else 0,
            }
        )
    return chunks


def quarantine_for_migration(
    system: CosmosSystem, source_node: NodeId, group_id: str
) -> List[str]:
    """Quarantine every active member of ``group_id`` for a move.

    Same lifecycle as the partition path: the user subscription is
    withdrawn and the handle flips to ``DEGRADED`` — results stop
    flowing while the group is in motion, but the handle (and its
    accumulated results) survives.  Members already degraded (e.g.
    partition-quarantined) are left to their owner.  Returns the
    quarantined query ids in group-member order.
    """
    processor = system.processors.get(source_node)
    if processor is None:
        raise LoadManagementError(f"no processor on node {source_node}")
    group = processor.manager.grouping.group(group_id)
    if group is None:
        raise LoadManagementError(
            f"no group {group_id!r} on processor {source_node}"
        )
    quarantined: List[str] = []
    for member in group.members:
        handle = system.find_query(member.name)
        if handle is None:
            continue
        if handle.status is not QueryStatus.ACTIVE:
            continue
        system.detach_result_subscription(member.name)
        handle.step("quarantine_for_migration")
        quarantined.append(member.name)
    return quarantined


def resume_after_migration(
    system: CosmosSystem, processor_node: NodeId, members: Sequence[str]
) -> List[str]:
    """Heal migration-quarantined ``members`` on ``processor_node``.

    Used both for completion (resume at the target) and abort (resume
    back at the source).  The ``DEGRADED`` members this protocol owns
    flip back to ``ACTIVE``, then each group they live in on the
    processor is reconciled once (:meth:`CosmosSystem.reconcile_group`):
    every member's handle is re-pointed at the processor and the
    resumed ones are re-subscribed (the others keep subscriptions whose
    profile did not change); no grouping changes, so the processor
    commits nothing.  A group the cutover just reconciled composes no
    profile here: its representative has not moved since.
    Members that vanished, are not
    ``DEGRADED``, are owned by the reliability partition quarantine, or
    whose user node left the tree stay as they are (their owning path
    heals them).  Returns the resumed ids in ``members`` order.
    """
    processor = system.processors.get(processor_node)
    if processor is None:
        raise LoadManagementError(f"no processor on node {processor_node}")
    reliability = system.reliability
    resumed: List[str] = []
    touched: Dict[str, QueryGroup] = {}
    for member_name in members:
        handle = system.find_query(member_name)
        group = processor.manager.grouping.group_of(member_name)
        if handle is None or group is None:
            continue
        touched[group.group_id] = group
        if handle.status is not QueryStatus.DEGRADED:
            continue
        if reliability is not None and member_name in reliability.quarantined:
            continue
        if handle.user_node not in system.tree:
            continue
        handle.step("resume_after_migration")
        resumed.append(member_name)
    for group in touched.values():
        system.reconcile_group(processor, group)
    return resumed


def cutover_group(
    system: CosmosSystem, migration: GroupMigration
) -> List[str]:
    """Re-home the migrating group onto the target and heal members.

    The whole group is torn off the source (its commit drops the SPE
    registration and source subscription; the member list comes back
    intact) and re-accepted member by member on the target *in group
    order* (each accept commits the target group), so the target's
    grouping optimizer reproduces the merge (or folds the members into
    an existing compatible group — merging never decreases).  Every touched
    target group is reconciled once all movers are in — each mover's
    profile is composed there, once; resident active members' result
    subscriptions are refreshed where the changed representative changed
    their profiles, the migrated ones are still ``DEGRADED`` and
    skipped — then the migrated members are resumed, which reuses
    those profiles.  Returns the resumed ids.
    """
    source = system.processors.get(migration.source_node)
    target = system.processors.get(migration.target_node)
    if source is None or target is None:
        raise LoadManagementError(
            f"migration {migration.migration_id} endpoints missing "
            f"(n{migration.source_node} -> n{migration.target_node})"
        )
    queries = source.release_group(migration.group_id)
    touched: Dict[str, QueryGroup] = {}
    for query in queries:
        group = target.accept(query).group
        touched[group.group_id] = group
    for group in touched.values():
        system.reconcile_group(target, group)
    return resume_after_migration(
        system, migration.target_node, [query.name for query in queries]
    )


# ---------------------------------------------------------------------------
# shared state
# ---------------------------------------------------------------------------


@dataclass
class LoadState:
    """Everything the load manager knows about one deployment: its
    hotspot detector, counters and in-flight migrations.  The chaos
    harness makes the detection and placement decisions; the protocol
    functions below apply them to the system.
    """

    counters: LoadCounters = field(default_factory=LoadCounters)
    detector: HotspotDetector = field(default_factory=HotspotDetector)
    #: in-flight migrations, keyed by ``GroupMigration.key``
    active: Dict[str, GroupMigration] = field(default_factory=dict)
    #: Runs every migration's :data:`MIGRATION_LIFECYCLE` steps and counts them.
    lifecycle: Lifecycle = field(
        default_factory=lambda: Lifecycle(MIGRATION_LIFECYCLE, LoadManagementError)
    )


def attach_load_manager(system: CosmosSystem) -> LoadState:
    """Attach a fresh load-management state on ``system``."""
    state = LoadState()
    system.load = state
    return state
