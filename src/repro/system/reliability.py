"""Self-healing reliability layer.

The paper's two-layer fault-tolerance story (section 2) repairs
*state* — :func:`~repro.system.fault.repair_tree` reconnects the
dissemination tree, :func:`~repro.system.fault.fail_processor` re-homes
queries — but nothing detects failures or recovers lost data.  This
module closes that gap with three cooperating mechanisms, all pure
value-level state machines so the chaos harness can drive them
deterministically over the :class:`~repro.system.events.EventSimulator`:

* **Reliable sequenced uplinks** — each source uplink carries a
  monotone per-stream sequence number (:attr:`Datagram.seq`).  The
  sender half (:class:`SequencedUplink`) retains sent tuples for
  retransmission; the receiver half (:class:`UplinkReceiver`) detects
  gaps, suppresses duplicates, and holds out-of-order arrivals in a
  bounded reorder buffer released in sequence order.  NACK scheduling
  (capped exponential backoff) is the *caller's* job — these classes
  only report which sequence numbers are missing, so the protocol state
  stays replayable.
* **Heartbeat failure detection** — :class:`FailureDetector` grants
  each registered node a lease of ``HEARTBEAT_PERIOD * LEASE_MISSES``,
  renewed by each heartbeat sweep it answers (one deadline shared by
  every answering node, so a sweep costs the silent ones only); a node
  whose lease expires is *suspected* and the supervisor invokes the
  existing repair path (``fail_broker``/``fail_processor``)
  automatically.
* **Graceful degradation** — when a repair finds the survivors
  physically partitioned, :func:`quarantine_partitioned` keeps the main
  component running and marks the stranded queries
  :attr:`~repro.system.cosmos.QueryStatus.DEGRADED` instead of raising
  into the caller; :func:`heal_partition` resumes them once the
  partition heals.

:func:`attach_reliability` hangs a :class:`ReliabilityState` on a
:class:`~repro.system.cosmos.CosmosSystem`, where
:class:`~repro.system.monitor.SystemMonitor.health` picks it up and
reads what the layer did off the row counts of the executors above.

The adaptive load manager (:mod:`repro.system.loadmgr`) builds on this
layer: live group migration reuses the same ``DEGRADED`` quarantine to
freeze members while they move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Set, Tuple

from repro.overlay.topology import NodeId, Topology
from repro.system import rebuild
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.fault import FaultError, spanning_tree
from repro.system.lifecycle import Lifecycle


class ReliabilityError(Exception):
    """Raised for transport protocol violations (bad sequence numbers)."""


# ---------------------------------------------------------------------------
# timing and sizing
# ---------------------------------------------------------------------------

# Sized for the chaos harness's timing budget: faults land in
# ``[0.2, 0.6] * duration`` and the epilogue starts at ``duration + 2 *
# max_delay + 1``, so detection (at most a lease plus one sweep period
# after the crash) ends before the epilogue.  The NACK, repair and
# migration timings the supervisor schedules, and the rest of the
# budget, are in :mod:`repro.sim.network`.  Read at call time, so a test
# substitutes one with ``monkeypatch.setattr``.

#: Seconds between heartbeat sweeps.
HEARTBEAT_PERIOD = 5.0
#: Missed periods before a node is suspected.
LEASE_MISSES = 3
#: Reorder-buffer entries held before the low-watermark force flush.
REORDER_LIMIT = 64


def lease() -> float:
    """Heartbeat lease duration: ``HEARTBEAT_PERIOD * LEASE_MISSES``."""
    return HEARTBEAT_PERIOD * LEASE_MISSES


# ---------------------------------------------------------------------------
# sequenced transport
# ---------------------------------------------------------------------------


class SequencedUplink:
    """Sender half of one (stream, source) reliable uplink.

    Retains sent tuples, under the sequence numbers the chaos scheduler
    assigned them, for retransmission.  Retention is unbounded here; a real
    deployment would trim on cumulative acknowledgement, which the
    chaos harness does not need (runs are finite).
    """

    def __init__(self) -> None:
        #: seq -> (payload mapping, original send time)
        self._history: Dict[int, Tuple[Dict[str, object], float]] = {}
        #: NACKs answered; a retransmission the original overtook is a
        #: receiver ``duplicate`` row, so this is no row's count.
        self.retransmits = 0

    def record(self, seq: int, payload: Dict[str, object], sent: float) -> None:
        """Retain a tuple under an externally assigned sequence number.

        The chaos scheduler pre-assigns sequence numbers at generation
        time (schedules are pure values) and the simulator records each
        send at its send time; a number may be skipped (a shrunken
        schedule cut the send), so out-of-order recording is allowed;
        re-recording an already retained number is a protocol violation.
        """
        if seq < 0:
            raise ReliabilityError(f"negative sequence number {seq}")
        if seq in self._history:
            raise ReliabilityError(f"sequence number {seq} reused")
        self._history[seq] = (dict(payload), float(sent))

    def retransmit(self, seq: int) -> Optional[Tuple[Dict[str, object], float]]:
        """The retained (payload, sent) for ``seq``; ``None`` if never sent.

        ``None`` tells the receiver the gap can never heal (the sender
        has no such tuple — e.g. a shrunken chaos schedule removed the
        send), so it should abandon the gap immediately instead of
        backing off through ``MAX_NACKS``.
        """
        item = self._history.get(seq)
        if item is None:
            return None
        self.retransmits += 1
        payload, sent = item
        return dict(payload), sent


@dataclass
class Offer:
    """Outcome of handing one arrival to an :class:`UplinkReceiver`.

    ``released`` lists the (seq, payload, sent) tuples now deliverable
    in sequence order; ``duplicate`` flags a suppressed arrival;
    ``fresh_gaps`` lists sequence numbers newly detected missing (the
    caller schedules NACKs for exactly these).
    """

    released: List[Tuple[int, Dict[str, object], float]]
    duplicate: bool = False
    fresh_gaps: List[int] = field(default_factory=list)


#: The uplink receiver's per-sequence-number slot protocol.  UNSEEN is
#: a slot nothing happened to yet; LOST means the wire ate the send;
#: GAP means the receiver knows the number is missing; BUFFERED holds
#: an out-of-order arrival; RELEASED/ABANDONED are the two outcomes.
#: :attr:`UplinkReceiver.slots` runs it, and ``repro flow`` reads this
#: literal from the source.
UPLINK_RECEIVER = {
    "states": ("UNSEEN", "LOST", "GAP", "BUFFERED", "RELEASED", "ABANDONED"),
    "initial": "UNSEEN",
    "terminal": ("RELEASED", "ABANDONED"),
    "rows": (
        ("arrive", "UNSEEN", "BUFFERED"),
        ("arrive", "GAP", "BUFFERED"),
        # A late first copy can overtake its own abandonment.
        ("arrive", "ABANDONED", "BUFFERED"),
        ("drop", "UNSEEN", "LOST"),
        ("gap_detect", "UNSEEN", "GAP"),
        ("gap_detect", "LOST", "GAP"),
        ("nack", "GAP", "GAP"),
        ("retransmit", "GAP", "BUFFERED"),
        ("retransmit", "ABANDONED", "BUFFERED"),
        ("duplicate", "BUFFERED", "BUFFERED"),
        ("duplicate", "RELEASED", "RELEASED"),
        ("abandon", "GAP", "ABANDONED"),
        ("release", "BUFFERED", "RELEASED"),
    ),
}


class UplinkReceiver:
    """Receiver half of one (stream, source) reliable uplink.

    Delivers tuples in sequence order: in-order arrivals release
    immediately, out-of-order arrivals wait in a bounded reorder buffer
    until the gap below them heals (retransmission) or is abandoned.
    When the buffer exceeds :data:`REORDER_LIMIT` the low-watermark flush
    abandons the lowest outstanding gaps until occupancy is back under
    the bound — bounded memory beats completeness.

    Each sequence number is a slot of :data:`UPLINK_RECEIVER`, run by
    :attr:`slots`.  It stores only the slots at or above the watermark
    that something happened to: below it every slot is RELEASED or
    ABANDONED, and the watermark alone says so.
    """

    def __init__(self) -> None:
        self._expected = 0
        #: the BUFFERED slots' (payload, sent)
        self._buffer: Dict[int, Tuple[Dict[str, object], float]] = {}
        self.slots = Lifecycle(UPLINK_RECEIVER, ReliabilityError, "slot")
        #: The most arrivals the reorder buffer held after an offer.
        self.reorder_peak = 0

    @property
    def occupancy(self) -> int:
        """Arrivals the reorder buffer holds now."""
        return len(self._buffer)

    def outstanding(self, seq: int) -> bool:
        """Whether ``seq`` is still a gap worth NACKing."""
        return seq >= self._expected and self.slots.states.get(seq) not in (
            "BUFFERED",
            "ABANDONED",
        )

    def missing(self) -> List[int]:
        """Every outstanding gap below the highest buffered arrival."""
        if not self._buffer:
            return []
        top = max(self._buffer)
        return [
            seq
            for seq in range(self._expected, top)
            if self.slots.states.get(seq) not in ("BUFFERED", "ABANDONED")
        ]

    def offer(
        self,
        seq: int,
        payload: Dict[str, object],
        sent: float,
        label: str = "arrive",
    ) -> Offer:
        """Hand one arrival to the receiver; returns what it unlocked.

        ``label`` says how it came: ``"arrive"`` (the send itself or a
        wire duplicate) or ``"retransmit"`` (the answer to a NACK).
        """
        if seq < 0:
            raise ReliabilityError(f"negative sequence number {seq}")
        if seq < self._expected:
            # Below the watermark the slot was released (or abandoned)
            # and is no longer stored; a second copy is not delivered.
            self.slots.take("duplicate", "RELEASED", seq)
            return Offer(released=[], duplicate=True)
        if seq in self._buffer:
            self.slots.step(seq, "duplicate")
            return Offer(released=[], duplicate=True)
        self.slots.step(seq, label)
        self._buffer[seq] = (dict(payload), float(sent))
        released = self._flush()
        fresh = [gap for gap in self.missing() if self.slots.states.get(gap) != "GAP"]
        for gap in fresh:
            self.slots.step(gap, "gap_detect")
        if len(self._buffer) > REORDER_LIMIT:
            released.extend(self._force_flush())
        self.reorder_peak = max(self.reorder_peak, len(self._buffer))
        return Offer(released=released, fresh_gaps=fresh)

    def announce(self, top: int) -> List[int]:
        """Source punctuation: every sequence number up to ``top`` was sent.

        Exposes *trailing* gaps — drops after the last tuple that
        actually arrived, which ordinary gap detection (driven by higher
        arrivals) can never see.  Returns the newly detected gaps so the
        caller can NACK exactly those.
        """
        if top < self._expected:
            return []
        fresh = [
            seq
            for seq in range(self._expected, top + 1)
            if self.slots.states.get(seq, "UNSEEN") in ("UNSEEN", "LOST")
        ]
        for seq in fresh:
            self.slots.step(seq, "gap_detect")
        return fresh

    def abandon(self, seq: int) -> List[Tuple[int, Dict[str, object], float]]:
        """Give up on a gap; returns arrivals it was blocking."""
        if seq < self._expected or seq in self._buffer:
            return []
        self.slots.step(seq, "abandon")
        return self._flush()

    def _flush(self) -> List[Tuple[int, Dict[str, object], float]]:
        released: List[Tuple[int, Dict[str, object], float]] = []
        while True:
            seq = self._expected
            if seq in self._buffer:
                payload, sent = self._buffer.pop(seq)
                self.slots.step(seq, "release")
                released.append((seq, payload, sent))
            elif self.slots.states.get(seq) != "ABANDONED":
                break
            # the watermark passes the slot: it needs no storing
            self.slots.forget(seq)
            self._expected += 1
        return released

    def _force_flush(self) -> List[Tuple[int, Dict[str, object], float]]:
        """Low-watermark flush: abandon the oldest gaps until bounded."""
        released: List[Tuple[int, Dict[str, object], float]] = []
        while len(self._buffer) > REORDER_LIMIT:
            lowest = min(self._buffer)
            for gap in range(self._expected, lowest):
                if self.slots.states.get(gap) != "ABANDONED":
                    self.slots.step(gap, "abandon")
            released.extend(self._flush())
        return released


# ---------------------------------------------------------------------------
# failure detection
# ---------------------------------------------------------------------------


#: The heartbeat failure detector's lease states per node.
#: :attr:`FailureDetector.leases` runs it, and ``repro flow`` reads this
#: literal from the source.
FAILURE_DETECTOR = {
    "states": ("UNKNOWN", "MONITORED", "SUSPECTED"),
    "initial": "UNKNOWN",
    "terminal": ("UNKNOWN", "MONITORED"),
    "rows": (
        ("register", "UNKNOWN", "MONITORED"),
        ("register", "SUSPECTED", "MONITORED"),
        ("heartbeat", "MONITORED", "MONITORED"),
        ("suspect", "MONITORED", "SUSPECTED"),
        ("deregister", "MONITORED", "UNKNOWN"),
        ("deregister", "SUSPECTED", "UNKNOWN"),
    ),
}


class FailureDetector:
    """Lease-based heartbeat failure detector.

    Each registered node holds a :func:`lease` of ``HEARTBEAT_PERIOD *
    LEASE_MISSES`` seconds, renewed by every :meth:`sweep` it answers.
    All nodes that answered the last sweep hold the *same* deadline, so
    they share one: a sweep touches only the nodes that did not answer
    (and those registered since), and costs what fails rather than what
    is monitored.  :meth:`check` moves nodes whose lease expired into
    the suspected set and returns them (sorted, once each) so the
    supervisor can repair deterministically.  Time comes from the
    caller — the detector never reads a clock.  Each node's state is a
    key of :attr:`leases`, which runs :data:`FAILURE_DETECTOR` and
    counts a sweep's heartbeats in one go.
    """

    def __init__(self) -> None:
        #: Nodes with a deadline of their own: registered since the last
        #: sweep, or silent at it.
        self._deadlines: Dict[NodeId, float] = {}
        #: Nodes that answered the last sweep, and their one deadline.
        self._shared: Set[NodeId] = set()
        self._shared_deadline = 0.0
        self.leases = Lifecycle(FAILURE_DETECTOR, ReliabilityError, "node")

    @property
    def suspected(self) -> List[NodeId]:
        return sorted(
            node for node, state in self.leases.states.items()
            if state == "SUSPECTED"
        )

    def register(self, node: NodeId, now: float) -> None:
        self.leases.step(node, "register")
        self._deadlines[node] = now + lease()

    def deregister(self, node: NodeId) -> None:
        self.leases.step(node, "deregister")
        self._shared.discard(node)
        self._deadlines.pop(node, None)

    def sweep(self, now: float, silent: Collection[NodeId]) -> None:
        """One heartbeat round at ``now``: every monitored node outside
        ``silent`` renews its lease, a silent one keeps the deadline it
        had.  Silent nodes that are not monitored (already deregistered
        by repair) are ignored."""
        for node in silent:
            if node in self._shared:
                self._shared.remove(node)
                self._deadlines[node] = self._shared_deadline
        answered = [node for node in self._deadlines if node not in silent]
        for node in answered:
            del self._deadlines[node]
        self._shared.update(answered)
        self._shared_deadline = now + lease()
        if self._shared:
            self.leases.take("heartbeat", "MONITORED", times=len(self._shared))

    def check(self, now: float) -> List[NodeId]:
        """Nodes whose lease expired since the last check (sorted)."""
        newly = [
            node for node, deadline in self._deadlines.items() if deadline <= now
        ]
        if self._shared_deadline <= now:
            newly.extend(self._shared)
            self._shared.clear()
        newly.sort()
        for node in newly:
            self._deadlines.pop(node, None)
            self.leases.step(node, "suspect")
        return newly


# ---------------------------------------------------------------------------
# shared state
# ---------------------------------------------------------------------------


@dataclass
class ReliabilityState:
    """Everything the reliability layer knows about one deployment.

    What the layer did is the row counts of the executors it holds
    (receivers' ``slots``, the detector's ``leases``,
    :attr:`supervision`).  The chaos harness drives it and applies each
    decision to the system.
    """

    uplinks: Dict[str, SequencedUplink] = field(default_factory=dict)
    receivers: Dict[str, UplinkReceiver] = field(default_factory=dict)
    # looked up when a state is built, so a test may substitute the class
    detector: FailureDetector = field(default_factory=lambda: FailureDetector())
    failed_nodes: Set[NodeId] = field(default_factory=set)
    #: query id -> stranded user node, while DEGRADED
    quarantined: Dict[str, NodeId] = field(default_factory=dict)
    #: The chaos harness's ``NODE_SUPERVISION`` executor, whose repair
    #: rows ``health()`` reports; ``None`` where nothing supervises.
    supervision: Optional[Lifecycle] = None

    def uplink(self, stream: str) -> SequencedUplink:
        if stream not in self.uplinks:
            self.uplinks[stream] = SequencedUplink()
        return self.uplinks[stream]

    def receiver(self, stream: str) -> UplinkReceiver:
        if stream not in self.receivers:
            self.receivers[stream] = UplinkReceiver()
        return self.receivers[stream]


def attach_reliability(system: CosmosSystem) -> ReliabilityState:
    """Attach a fresh reliability state on ``system``."""
    state = ReliabilityState()
    system.reliability = state
    return state


# ---------------------------------------------------------------------------
# graceful degradation
# ---------------------------------------------------------------------------


def _components(topology: Topology, excluded: Set[NodeId]) -> List[Set[NodeId]]:
    """Connected components of the physical topology minus ``excluded``."""
    remaining = [n for n in topology.nodes if n not in excluded]
    seen: Set[NodeId] = set()
    components: List[Set[NodeId]] = []
    for start in remaining:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in sorted(topology.neighbors(node)):
                if other in excluded or other in component:
                    continue
                component.add(other)
                frontier.append(other)
        seen |= component
        components.append(component)
    return components


def quarantine_partitioned(
    system: CosmosSystem, failed: NodeId
) -> List[str]:
    """Degraded-mode fallback when removing ``failed`` partitions the net.

    Keeps the component that can still run the workload (every source
    and every processor must land in it), rebuilds the dissemination
    tree over that component alone, and quarantines each query whose
    user was stranded outside: its user subscription is withdrawn and
    its handle flips to :attr:`QueryStatus.DEGRADED` — results stop,
    but the handle, accumulated results, and the SPE-side group all
    survive for :func:`heal_partition`.

    Raises :class:`~repro.system.fault.FaultError` when a source or a
    processor is stranded — that data loss cannot be quarantined into
    a handle, so it stays a hard fault.  Returns the quarantined query
    ids (sorted).
    """
    if system.topology is None:
        raise FaultError("degraded-mode repair needs the underlying topology")
    state = system.reliability
    if state is None:
        state = attach_reliability(system)
    excluded = set(state.failed_nodes) | {failed}
    components = _components(system.topology, excluded)
    if not components:
        raise FaultError("cannot remove the last node of the topology")
    anchors = set(system.sources.values()) | set(system.processors)
    main = max(
        components,
        key=lambda c: (len(anchors & c), len(c), -min(c)),
    )
    stranded_anchors = sorted(anchors - main)
    if stranded_anchors:
        raise FaultError(
            f"cannot degrade: source/processor nodes {stranded_anchors} "
            f"stranded outside the main partition"
        )
    quarantined: List[str] = []
    for handle in sorted(system.queries, key=lambda h: h.query_id):
        query_id = handle.query_id
        if handle.status is not QueryStatus.ACTIVE:
            continue
        if handle.user_node in main:
            continue
        system.detach_result_subscription(query_id)
        handle.step("quarantine_partitioned")
        state.quarantined[query_id] = handle.user_node
        quarantined.append(query_id)
    rebuild.rebuild_network(
        system, spanning_tree(system.topology, {node: node for node in main})
    )
    state.failed_nodes.add(failed)
    return quarantined


def heal_partition(system: CosmosSystem) -> List[str]:
    """Resume quarantined queries whose partition has healed.

    Re-examines physical connectivity (the caller restored it — e.g.
    ``system.topology.add_edge`` across the old cut): any stranded
    component now reachable from the surviving tree is re-attached by
    extending the tree with the cheapest internal edges, the routing
    state is rebuilt, every quarantined query whose user node is back
    in the tree is flipped to ``ACTIVE``, and each group holding one is
    reconciled once (:meth:`CosmosSystem.reconcile_group` re-subscribes
    the resumed members; the others' profiles did not change); no
    grouping changes, so the processors commit nothing.
    Returns the resumed query ids (sorted); quarantined queries whose
    partition still stands are left untouched.
    """
    state = system.reliability
    if state is None or not state.quarantined:
        return []
    assert system.topology is not None
    components = _components(system.topology, set(state.failed_nodes))
    tree_nodes = set(system.tree.nodes)
    main = next((c for c in components if c & tree_nodes), tree_nodes)
    if not (main - tree_nodes):
        return []  # nothing newly reachable
    # the tree is one fragment (labelled by its least node), each newly
    # reachable node another
    fragments = {node: node for node in main - tree_nodes}
    fragments.update(dict.fromkeys(system.tree.nodes, min(tree_nodes)))
    rebuild.rebuild_network(
        system, spanning_tree(system.topology, fragments, system.tree)
    )
    resumed: List[str] = []
    #: (processor node, group id) -> (processor, group) holding a resumed query
    touched: Dict[Tuple[NodeId, str], tuple] = {}
    for query_id in sorted(state.quarantined):
        handle = system.find_query(query_id)
        if handle is None:  # withdrawn while degraded
            del state.quarantined[query_id]
            continue
        if handle.status is not QueryStatus.DEGRADED:
            del state.quarantined[query_id]  # stale entry: resumed elsewhere
            continue
        if handle.user_node not in main:
            continue
        processor = system.processors[handle.processor_node]
        group = processor.manager.grouping.group_of(query_id)
        del state.quarantined[query_id]
        if group is None:
            continue
        handle.step("heal_partition")
        resumed.append(query_id)
        touched[processor.node_id, group.group_id] = (processor, group)
    for processor, group in touched.values():
        system.reconcile_group(processor, group)
    return resumed
