"""The virtual network: chaos schedules executed against twin systems.

:class:`VirtualNetwork` wraps a pair of :class:`CosmosSystem` twins —
one routing through the production CBN data plane, one through the naive
reference scan of :mod:`repro.sim.reference` — and drives both through
the *same* resolved chaos schedule via the
:class:`~repro.system.events.EventSimulator`'s
``step()`` API.  Tuple injections go end to end through
``CosmosSystem.publish``; crash events route through the real
fault-tolerance entry points (``fail_broker`` / ``fail_processor``),
so the chaos harness exercises exactly the repair code production
would run, never a simulation-only shortcut.

A crash whose repair finds the survivors physically partitioned is
*refused* (``FaultError``) and recorded as such — a legitimate outcome,
not a violation.  The twins share one topology and tree, so a refusal
in one twin must occur in the other; divergence there is itself a bug
and raises immediately.

Every executed event appends one canonical line to the run's
:class:`~repro.sim.trace.ChaosTrace` (payloads pre-sorted by the
schedule layer, counters instead of delivery lists), which is what
makes replays byte-identical across processes.

**Recovery mode** (``recovery=True``) runs the same schedule through
the self-healing path of :mod:`repro.system.reliability` instead of
booking losses:

* injections travel a reliable sequenced uplink — one shared protocol
  brain decides releases/suppressions once and applies them to both
  twins, so transport nondeterminism cannot diverge them;
* drops are recorded on the sender and healed by receiver-driven NACK /
  retransmit timers with capped exponential backoff; end-of-phase
  source punctuation (``seq<=top``) exposes trailing drops that no
  higher arrival would ever reveal;
* released tuples pass through a front-end *ordering stage*: they are
  buffered during the batch and published to the SPE at batch end in
  global send-time order.  The SPE engine enforces non-decreasing
  timestamps across *all* streams, so a retransmission carrying its
  original (old) send time must not be pushed after another stream
  already advanced the engine clock — the ordering stage is the K-way
  merge that restores global timestamp order, with the batch boundary
  (quiescence) as its watermark;
* crash events merely mark the node dead; a periodic heartbeat sweep
  (implicit heartbeats for live nodes) lets the
  :class:`~repro.system.reliability.FailureDetector` suspect it after
  its lease expires, and only then does the supervisor run
  ``fail_broker``/``fail_processor`` — with retry/backoff when a repair
  raises, and degraded-mode quarantine when the survivors are
  physically partitioned.

All timers ride the same :class:`EventSimulator`, scheduled in a fixed
order, so recovery traces replay byte-identically too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.cbn.datagram import Datagram
from repro.sim.reference import as_reference
from repro.sim.schedule import (
    ChaosEvent,
    DropEvent,
    FaultEvent,
    InjectEvent,
    MigrationEvent,
    PunctuationEvent,
)
from repro.sim.trace import ChaosTrace
from repro.system.cosmos import CosmosSystem
from repro.system.events import EventSimulator
from repro.system.fault import (
    FaultError,
    PartitionError,
    fail_broker,
    fail_processor,
)
from repro.system.lifecycle import Lifecycle
from repro.system.loadmgr import (
    GroupMigration,
    LoadParams,
    LoadState,
    MigrationChannel,
    attach_load_manager,
    capture_group_state,
    choose_target,
    cutover_group,
    quarantine_for_migration,
    resume_after_migration,
)
from repro.system.monitor import SystemMonitor
from repro.system.reliability import (
    ReliabilityParams,
    ReliabilityState,
    attach_reliability,
    quarantine_partitioned,
)


T = TypeVar("T")


class ChaosExecutionError(Exception):
    """Raised when the twins diverge structurally mid-run (a harness bug
    or a nondeterministic repair path — either way, not a normal oracle
    violation)."""


#: Supervision of one chaos node: crash, heartbeat-driven suspicion,
#: repair with retry/degrade/give-up, plus the lossy-mode immediate
#: fail-and-repair labels.  :attr:`VirtualNetwork.supervision` runs it,
#: and ``repro flow`` reads this literal from the source.
NODE_SUPERVISION = {
    "states": ("LIVE", "CRASHED", "SUSPECTED", "REMOVED"),
    "initial": "LIVE",
    "terminal": ("LIVE", "REMOVED"),
    "rows": (
        ("crash", "LIVE", "CRASHED"),
        ("fail_applied", "LIVE", "REMOVED"),
        ("fail_refused", "LIVE", "LIVE"),
        ("suspect", "CRASHED", "SUSPECTED"),
        ("repair_applied", "SUSPECTED", "REMOVED"),
        ("repair_retry", "SUSPECTED", "SUSPECTED"),
        ("degraded", "SUSPECTED", "REMOVED"),
        ("gave_up", "SUSPECTED", "REMOVED"),
    ),
}


@dataclass
class ChaosCounters:
    """What a run did, for CI gates and BENCH output."""

    injects: int = 0
    duplicates: int = 0
    drops: int = 0
    faults_applied: int = 0
    faults_refused: int = 0
    deliveries: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class VirtualNetwork:
    """Twin COSMOS systems driven by one chaos schedule.

    ``build`` provisions one complete system (topology, tree, sources,
    queries) and must be deterministic: it is called twice, and the
    second result becomes the shadow twin on the reference data plane —
    the twins *must* be structurally identical for the
    production-vs-reference oracle to be meaningful.
    """

    build: Callable[[], CosmosSystem]
    #: Run the schedule through the self-healing reliability path.
    recovery: bool = False
    #: Execute migration probes (requires ``recovery``: zero-loss
    #: migration rides the ordering stage's deferred publication).
    migrate: bool = False
    params: Optional[ReliabilityParams] = None
    load_params: Optional[LoadParams] = None
    primary: CosmosSystem = field(init=False)
    shadow: CosmosSystem = field(init=False)
    trace: ChaosTrace = field(init=False, default_factory=ChaosTrace)
    counters: ChaosCounters = field(init=False, default_factory=ChaosCounters)
    #: The tuples that actually entered the system (post-perturbation,
    #: duplicates included; post-release in recovery mode), in
    #: injection order — the oracle's input.
    effective_feed: List[Datagram] = field(init=False, default_factory=list)
    #: Shared protocol brain (primary's ReliabilityState) in recovery mode.
    state: Optional[ReliabilityState] = field(init=False, default=None)
    #: Shared load-management brain in migration mode; ``None`` keeps the
    #: whole migration machinery inert (``system.load`` stays unset).
    load: Optional[LoadState] = field(init=False, default=None)
    #: Simulated time of the last self-healing action (repair applied,
    #: retransmission released, gap abandoned); ``None`` = never needed.
    last_recovery_time: Optional[float] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.migrate and not self.recovery:
            raise ChaosExecutionError(
                "migrate=True requires recovery=True (zero-loss "
                "migration rides the recovery ordering stage)"
            )
        self.primary = self.build()
        self.shadow = as_reference(self.build())
        #: node -> its supervision state; a live node is not stored, so
        #: the keys are the nodes that went down
        self.supervision = Lifecycle(NODE_SUPERVISION, ChaosExecutionError, "node")
        #: node -> what crashed there ("broker" / "processor")
        self._crash_kind: Dict[int, str] = {}
        #: Ordering stage: released-but-unpublished (sent, stream, seq,
        #: payload), flushed to the SPE in send-time order at batch end.
        self._pending: List[tuple] = []
        if self.recovery:
            self.state = attach_reliability(self.primary, self.params)
            attach_reliability(self.shadow, self.state.params)
            for node in self.primary.tree.nodes:
                self.state.detector.register(node, 0.0)
        if self.migrate:
            self.load = attach_load_manager(self.primary, self.load_params)
            attach_load_manager(self.shadow, state=self.load)

    @property
    def systems(self) -> List[CosmosSystem]:
        return [self.primary, self.shadow]

    def _on_twins(self, what: str, action: Callable[[CosmosSystem], T]) -> T:
        """Apply ``action`` to both twins; their outcomes must agree."""
        primary, shadow = [action(system) for system in self.systems]
        if primary != shadow:
            raise ChaosExecutionError(
                f"twins diverged {what}: {[primary, shadow]}"
            )
        return primary

    def routing_epoch(self) -> int:
        return self.primary.network.routing_epoch

    def transitions(self) -> Dict[str, Dict[str, int]]:
        """The rows the run's lifecycle executors took, by machine:
        ``"label from->to"`` -> count (the primary's query handles; the
        migration channels' receivers are not counted)."""
        executors = {
            "QueryStatus": [self.primary.lifecycle],
            "node-supervision": [self.supervision],
        }
        if self.state is not None:
            executors["failure-detector"] = [self.state.detector.leases]
            executors["uplink-receiver"] = [
                receiver.slots for receiver in self.state.receivers.values()
            ]
        if self.load is not None:
            executors["MigrationState"] = [self.load.lifecycle]
        counts: Dict[str, Dict[str, int]] = {}
        for machine, lifecycles in sorted(executors.items()):
            bucket: Dict[str, int] = {}
            for lifecycle in lifecycles:
                for row, count in lifecycle.counts.items():
                    bucket[row] = bucket.get(row, 0) + count
            if bucket:
                counts[machine] = dict(sorted(bucket.items()))
        return counts

    def execute(self, events: Sequence[ChaosEvent]) -> ChaosCounters:
        """Run ``events`` through the simulator in global time order.

        In recovery mode, heartbeat sweeps are pre-scheduled over the
        batch's time range (plus a lease of slack so a crash near the
        end is still detected) — data events first, sweeps second, so
        equal-time ties always resolve the same way.
        """
        sim = EventSimulator()
        if self.recovery:
            # The sender retains a reliable send when it sends it (as
            # SequencedUplink.stamp does), so a NACK for a tuple still
            # in flight is answered.
            sends = [e for e in events if isinstance(e, InjectEvent)
                     and e.seq is not None and not e.duplicate]
            for event in sends:
                sent = event.time if event.sent is None else event.sent
                sim.schedule(sent, lambda e=event, t=sent: self._record(e, t))
        for event in events:
            sim.schedule(event.time, lambda e=event: self._apply(e, sim))
        if self.recovery and events:
            self._schedule_sweeps(sim, events)
        while sim.step() is not None:
            pass
        if self.recovery:
            self._flush_deliveries()
        return self.counters

    def _schedule_sweeps(
        self, sim: EventSimulator, events: Sequence[ChaosEvent]
    ) -> None:
        params = self.state.params
        period = params.heartbeat_period
        first = min(event.time for event in events)
        last = max(event.time for event in events)
        horizon = last + params.lease + 2.0 * period
        tick = max(1, int(first // period))
        while tick * period <= horizon:
            sim.schedule(tick * period, lambda s=sim: self._sweep(s))
            tick += 1

    # -- event application -------------------------------------------------------

    def _apply(self, event: ChaosEvent, sim: EventSimulator) -> None:
        if isinstance(event, InjectEvent):
            self._apply_inject(event, sim)
        elif isinstance(event, DropEvent):
            self._apply_drop(event)
        elif isinstance(event, FaultEvent):
            self._apply_fault(event)
        elif isinstance(event, PunctuationEvent):
            self._apply_punctuation(event, sim)
        elif isinstance(event, MigrationEvent):
            self._apply_migration(event, sim)
        else:  # pragma: no cover - schedule layer only emits the above
            raise ChaosExecutionError(f"unknown chaos event {event!r}")

    def _apply_inject(self, event: InjectEvent, sim: EventSimulator) -> None:
        if self.recovery and event.seq is not None:
            self._apply_inject_reliable(event, sim)
            return
        # one dict of the event's items; both twins copy it on publish
        datagram = Datagram(event.stream, event.payload, event.time)
        payload = datagram.payload
        delivered = len(self.primary.publish(event.stream, payload, event.time))
        self.shadow.publish(event.stream, payload, event.time)
        self.effective_feed.append(datagram)
        self.counters.injects += 1
        if event.duplicate:
            self.counters.duplicates += 1
        self.counters.deliveries += delivered
        self.trace.record(f"{event.render()} -> {delivered} deliveries")

    def _apply_drop(self, event: DropEvent) -> None:
        self.counters.drops += 1
        if self.recovery and event.seq is not None:
            # The wire ate the tuple but the sender did send it: retain
            # it for retransmission (the gap shows up when a higher
            # sequence number reaches the receiver).
            self.state.uplink(event.stream).record(
                event.seq, dict(event.payload or ()), event.sent or event.time
            )
            self.state.receiver(event.stream).slots.step(event.seq, "drop")
        self.trace.record(event.render())

    def _apply_fault(self, event: FaultEvent) -> None:
        if self.recovery:
            # Nothing repairs here: the node just goes silent, and the
            # heartbeat sweep must notice on its own.
            self.supervision.step(event.node, "crash")
            self._crash_kind[event.node] = event.kind
            self.trace.record(f"{event.render()} -> crashed")
            return

        def fail(system: CosmosSystem) -> str:
            try:
                if event.kind == "broker":
                    fail_broker(system, event.node)
                else:
                    fail_processor(system, event.node)
                return "applied"
            except FaultError as exc:
                return f"refused ({exc})"

        outcome = self._on_twins(f"on {event.render()}", fail)
        if outcome == "applied":
            self.supervision.step(event.node, "fail_applied")
            self.counters.faults_applied += 1
        else:
            self.supervision.step(event.node, "fail_refused")
            self.counters.faults_refused += 1
        self.trace.record(f"{event.render()} -> {outcome}")

    # -- reliable uplink ----------------------------------------------------------

    def _apply_inject_reliable(
        self, event: InjectEvent, sim: EventSimulator
    ) -> None:
        stream = event.stream
        payload = dict(event.payload)
        sent = event.sent if event.sent is not None else event.time
        offer = self.state.receiver(stream).offer(event.seq, payload, sent)
        self.counters.injects += 1
        if event.duplicate:
            self.counters.duplicates += 1
        released = self._release(stream, offer.released)
        for gap in offer.fresh_gaps:
            self._schedule_nack(sim, stream, gap, attempt=1)
        tag = " suppressed" if offer.duplicate else ""
        self.trace.record(
            f"{event.render()} -> {released} released{tag}"
        )

    def _record(self, event: InjectEvent, sent: float) -> None:
        self.state.uplink(event.stream).record(event.seq, dict(event.payload), sent)

    def _apply_punctuation(
        self, event: PunctuationEvent, sim: EventSimulator
    ) -> None:
        if not self.recovery:
            self.trace.record(event.render())
            return
        fresh = self.state.receiver(event.stream).announce(event.top)
        for gap in fresh:
            self._schedule_nack(sim, event.stream, gap, attempt=1)
        self.trace.record(f"{event.render()} -> {len(fresh)} gaps")

    def _release(self, stream: str, released: Sequence[tuple]) -> int:
        """Stage receiver-released tuples for the batch-end flush.

        Releases are *transport*-ordered (per-stream sequence order) but
        may lag other streams in time, so publishing here would violate
        the SPE's cross-stream timestamp contract; the ordering stage
        (:meth:`_flush_deliveries`) publishes them in global send-time
        order once the batch quiesces.
        """
        for seq, payload, sent in released:
            self._pending.append((sent, stream, seq, payload))
        return len(released)

    def _flush_deliveries(self) -> None:
        """Publish everything the ordering stage holds, in time order."""
        if not self._pending:
            return
        self._pending.sort(key=lambda item: (item[0], item[1], item[2]))
        delivered = 0
        for sent, stream, seq, payload in self._pending:
            delivered += len(self.primary.publish(stream, payload, sent, seq=seq))
            self.shadow.publish(stream, payload, sent, seq=seq)
            self.effective_feed.append(Datagram(stream, payload, sent, seq))
        self.counters.deliveries += delivered
        self.trace.record(
            f"flush {len(self._pending)} tuples -> {delivered} deliveries"
        )
        self._pending.clear()

    def _schedule_nack(
        self, sim: EventSimulator, stream: str, gap: int, attempt: int
    ) -> None:
        params = self.state.params
        delay = min(
            params.nack_delay * (params.nack_backoff ** (attempt - 1)),
            params.nack_cap,
        )
        sim.schedule_in(delay, lambda: self._nack(sim, stream, gap, attempt))

    def _nack(
        self, sim: EventSimulator, stream: str, gap: int, attempt: int
    ) -> None:
        receiver = self.state.receiver(stream)
        if not receiver.outstanding(gap):
            return  # healed (or abandoned) while the timer was pending
        receiver.slots.step(gap, "nack")
        self.state.counters.nacks_sent += 1
        item = self.state.uplink(stream).retransmit(gap)
        if item is None:
            # The sender never sent this number (a shrunken schedule cut
            # the send): the gap can never heal — abandon immediately.
            self._abandon(sim.now, stream, gap)
            return
        payload, sent = item
        self.state.counters.retransmits += 1
        self.trace.record(
            f"nack t={sim.now:g} {stream} seq={gap} attempt={attempt}"
        )
        sim.schedule_in(
            self.state.params.retransmit_rtt,
            lambda: self._retransmit_arrival(sim, stream, gap, payload, sent),
        )
        if attempt < self.state.params.max_nacks:
            self._schedule_nack(sim, stream, gap, attempt + 1)
        else:
            # Last NACK in flight; if even its retransmission is lost
            # the gap is abandoned when the final timer fires.
            sim.schedule_in(
                self.state.params.nack_cap,
                lambda: self._give_up(sim, stream, gap),
            )

    def _retransmit_arrival(
        self,
        sim: EventSimulator,
        stream: str,
        seq: int,
        payload: Dict[str, object],
        sent: float,
    ) -> None:
        offer = self.state.receiver(stream).offer(seq, payload, sent, "retransmit")
        released = self._release(stream, offer.released)
        if offer.released:
            self.last_recovery_time = sim.now
        tag = " suppressed" if offer.duplicate else ""
        self.trace.record(
            f"retransmit t={sim.now:g} {stream} seq={seq} -> "
            f"{released} released{tag}"
        )

    def _give_up(self, sim: EventSimulator, stream: str, gap: int) -> None:
        if self.state.receiver(stream).outstanding(gap):
            self._abandon(sim.now, stream, gap)

    def _abandon(self, now: float, stream: str, gap: int) -> None:
        released = self._release(stream, self.state.receiver(stream).abandon(gap))
        self.last_recovery_time = now
        self.trace.record(
            f"abandon t={now:g} {stream} seq={gap} -> {released} released"
        )

    # -- adaptive load management ---------------------------------------------------

    def _apply_migration(self, event: MigrationEvent, sim: EventSimulator) -> None:
        """Execute one load-management probe.

        ``scan`` feeds the hotspot detector a live-processor load
        snapshot and plans one migration per newly hot processor;
        ``rebalance`` unconditionally plans one off the busiest live
        processor that hosts any group.  All decisions read the primary
        only (the shared-brain pattern); mutations are applied to both
        twins inside :meth:`_plan_migration`.
        """
        if self.load is None:
            self.trace.record(f"{event.render()} -> inert")
            return
        loads = [
            load
            for load in SystemMonitor(self.primary).processor_loads()
            if load.node_id not in self.supervision.states
        ]
        if event.kind == "scan":
            hot = self.load.detector.observe(loads)
            names = ",".join(f"n{node}" for node in hot) or "-"
            self.trace.record(
                f"{event.render()} -> {len(hot)} hotspots [{names}]"
            )
            self.load.counters.hotspots_detected += len(hot)
            # Planning is deferred a tick: the probe only *decides*;
            # the protocol actions run as their own simulator events.
            for node in hot:
                sim.schedule_in(
                    0.0, lambda node=node: self._plan_migration(sim, node)
                )
            return
        candidates = [load for load in loads if load.groups > 0]
        if not candidates:
            self.trace.record(f"{event.render()} -> idle")
            return
        candidates.sort(key=lambda load: (-load.merged_rate, load.node_id))
        node = candidates[0].node_id
        self.trace.record(f"{event.render()} -> node={node}")
        sim.schedule_in(0.0, lambda: self._plan_migration(sim, node))

    def _plan_migration(self, sim: EventSimulator, source_node: int) -> None:
        """Quarantine the source's hottest group and start its move."""
        processor = self.primary.processors.get(source_node)
        if processor is None or source_node in self.supervision.states:
            self.trace.record(
                f"migrate_skip t={sim.now:g} node={source_node} reason=no-source"
            )
            return
        groups = processor.manager.groups
        if not groups:
            self.trace.record(
                f"migrate_skip t={sim.now:g} node={source_node} reason=no-group"
            )
            return
        group = max(
            groups, key=lambda g: (g.representative_rate, g.group_id)
        )
        key = f"{group.group_id}@n{source_node}"
        if key in self.load.active:
            self.trace.record(
                f"migrate_skip t={sim.now:g} node={source_node} reason=in-flight"
            )
            return
        exclude = set(self.supervision.states) | {source_node}
        target = choose_target(self.primary, group, exclude)
        if target is None:
            self.trace.record(
                f"migrate_skip t={sim.now:g} node={source_node} reason=no-target"
            )
            return
        quarantined = self._on_twins(
            f"quarantining {key}",
            lambda system: quarantine_for_migration(
                system, source_node, group.group_id
            ),
        )
        if not quarantined:
            # Every member already degraded (e.g. partition-owned):
            # nothing was touched and there is nothing to move.
            self.trace.record(
                f"migrate_skip t={sim.now:g} node={source_node} reason=degraded"
            )
            return
        migration = GroupMigration(
            migration_id=f"m{self.load.counters.migrations_started}",
            group_id=group.group_id,
            source_node=source_node,
            target_node=target,
            members=list(quarantined),
            lifecycle=self.load.lifecycle,
        )
        self.load.active[key] = migration
        self.load.counters.migrations_started += 1
        names = ",".join(migration.members) or "-"
        self.trace.record(
            f"migrate_start t={sim.now:g} group={migration.group_id} "
            f"n{source_node}->n{target} quarantined [{names}]"
        )
        sim.schedule_in(
            self.load.params.prepare_delay,
            lambda: self._drain_migration(sim, migration.key),
        )

    def _drain_migration(self, sim: EventSimulator, key: str) -> None:
        """Hand the group's state to the target over the channel."""
        migration = self.load.active.get(key)
        if migration is None:
            return
        if migration.source_node not in self.primary.processors:
            # The crash-repair path already re-homed the group's members
            # elsewhere and resumed them there; this move is obsolete.
            self._abort_migration(sim, key, "superseded")
            return
        if migration.source_node in self.supervision.states:
            self._abort_migration(sim, key, "source-lost")
            return
        chunks = capture_group_state(
            self.primary, migration.source_node, migration.group_id
        )
        if not chunks:
            self._abort_migration(sim, key, "superseded")
            return
        migration.channel = MigrationChannel(self.state.params)
        for chunk in chunks:
            migration.channel.send(chunk, sim.now)
        migration.step("start_drain")
        self.load.counters.state_chunks_sent += len(chunks)
        self.trace.record(
            f"drain t={sim.now:g} group={migration.group_id} "
            f"n{migration.source_node}->n{migration.target_node} "
            f"chunks={len(chunks)}"
        )
        sim.schedule_in(
            self.load.params.drain_delay,
            lambda: self._cutover_migration(sim, key, attempt=1),
        )

    def _cutover_migration(
        self, sim: EventSimulator, key: str, attempt: int
    ) -> None:
        """Close the channel gap-free and re-home the group, with
        capped-backoff retries while the target is down."""
        migration = self.load.active.get(key)
        if migration is None:
            return
        if migration.source_node not in self.primary.processors:
            self._abort_migration(sim, key, "superseded")
            return
        if migration.source_node in self.supervision.states:
            self._abort_migration(sim, key, "source-lost")
            return
        target_live = (
            migration.target_node in self.primary.processors
            and migration.target_node not in self.supervision.states
        )
        if not target_live:
            if attempt < self.load.params.max_migrate_attempts:
                params = self.load.params
                delay = min(
                    params.migrate_backoff
                    * (params.migrate_backoff_base ** (attempt - 1)),
                    params.migrate_cap,
                )
                self.load.counters.migrations_retried += 1
                self.trace.record(
                    f"migrate_retry t={sim.now:g} group={migration.group_id} "
                    f"target=n{migration.target_node} attempt={attempt + 1}"
                )
                sim.schedule_in(
                    delay,
                    lambda: self._cutover_migration(sim, key, attempt + 1),
                )
                return
            self._abort_migration(sim, key, "target-lost")
            return
        gaps = migration.channel.close(sim.now) if migration.channel else [0]
        if gaps:
            # Unreachable with the in-process channel; kept as the
            # protocol's defensive barrier (cutover only on a gap-free
            # punctuation, exactly like PR 4's uplink close).
            self._abort_migration(sim, key, "handoff-gaps")
            return
        migration.step("cut_over")
        moved = self._on_twins(
            f"cutting over {key}",
            lambda system: cutover_group(system, migration),
        )
        migration.step("complete")
        self.load.active.pop(key, None)
        self.load.counters.migrations_completed += 1
        self.last_recovery_time = sim.now
        names = ",".join(moved) or "-"
        self.trace.record(
            f"cutover t={sim.now:g} group={migration.group_id} "
            f"n{migration.source_node}->n{migration.target_node} "
            f"moved [{names}]"
        )

    def _abort_migration(
        self, sim: EventSimulator, key: str, reason: str
    ) -> None:
        """Abort back to the source (or drop a superseded move)."""
        migration = self.load.active.get(key)
        if migration is None:
            return
        migration.step("abort")
        resumed: List[str] = []
        if reason != "superseded":
            resumed = self._on_twins(
                f"aborting {key}",
                lambda system: resume_after_migration(
                    system, migration.source_node, migration.members
                ),
            )
        self.load.active.pop(key, None)
        self.load.counters.migrations_aborted += 1
        names = ",".join(resumed) or "-"
        self.trace.record(
            f"migrate_abort t={sim.now:g} group={migration.group_id} "
            f"n{migration.source_node}->n{migration.target_node} "
            f"{reason} resumed [{names}]"
        )

    # -- failure detection and repair ---------------------------------------------

    def _sweep(self, sim: EventSimulator) -> None:
        now = sim.now
        detector = self.state.detector
        # Every live node answers implicitly; only the crashed stay silent.
        detector.sweep(now, self.supervision.states)
        for node in detector.check(now):
            self.supervision.step(node, "suspect")
            self.state.counters.nodes_suspected += 1
            self.trace.record(f"suspect t={now:g} node={node}")
            self._repair(sim, node, attempt=1)

    def _repair(self, sim: EventSimulator, node: int, attempt: int) -> None:
        kind = self._crash_kind[node]
        errors: List[FaultError] = []

        def repair(system: CosmosSystem) -> str:
            try:
                if kind == "broker":
                    fail_broker(system, node)
                else:
                    fail_processor(system, node)
                return "repaired"
            except FaultError as exc:
                errors.append(exc)
                return f"error ({exc})"

        outcome = self._on_twins(f"repairing node {node}", repair)
        if outcome == "repaired":
            self.supervision.step(node, "repair_applied")
            self.counters.faults_applied += 1
            self.state.counters.repairs_applied += 1
            self.state.detector.deregister(node)
            self.last_recovery_time = sim.now
            self.trace.record(
                f"repair t={sim.now:g} fail_{kind} node={node} -> applied"
            )
            return
        if kind == "broker" and isinstance(errors[0], PartitionError):
            self._degrade(sim, node)
            return
        if attempt < self.state.params.max_repair_attempts:
            self.supervision.step(node, "repair_retry")
            self.state.counters.repairs_retried += 1
            self.trace.record(
                f"repair t={sim.now:g} fail_{kind} node={node} -> "
                f"retry {attempt + 1} ({errors[0]})"
            )
            sim.schedule_in(
                self.state.params.repair_backoff * attempt,
                lambda: self._repair(sim, node, attempt + 1),
            )
            return
        self.supervision.step(node, "gave_up")
        self.counters.faults_refused += 1
        self.state.detector.deregister(node)
        self.trace.record(
            f"repair t={sim.now:g} fail_{kind} node={node} -> "
            f"gave up ({errors[0]})"
        )

    def _degrade(self, sim: EventSimulator, node: int) -> None:
        """Partitioned survivors: quarantine instead of refusing."""
        quarantined = self._on_twins(
            f"degrading node {node}",
            lambda system: quarantine_partitioned(system, node),
        )
        self.supervision.step(node, "degraded")
        self.counters.faults_applied += 1
        self.state.detector.deregister(node)
        self.last_recovery_time = sim.now
        names = ",".join(quarantined) or "-"
        self.trace.record(
            f"repair t={sim.now:g} fail_broker node={node} -> "
            f"degraded [{names}]"
        )
