"""COS90x: bounded model checking of the composed protocol machines.

:mod:`repro.analysis.lifecycle` reads five lifecycle tables from the
source (the uplink receiver, the failure detector, node supervision,
``QueryStatus`` and ``MigrationState``), and the runtime refuses any
step a table does not list.  Neither proves that the machines
**compose** safely — that a quarantined query can always be resumed,
that a migration whose target is down can always roll back, that the
repair loop cannot spin forever without making progress.

This module closes that gap.  It composes the extracted machines with
an explicit *environment automaton* — the adversarial moves chaos can
make (tuple loss, duplication, reordering, node crash, lease expiry,
partition heal, migration probes) plus small budgets that keep the
state space finite — into a product automaton, and explores it
exhaustively with bounded BFS over canonicalized states:

* **COS902** — deadlock: a product state outside the acceptable
  quiescent set with no enabled transition.
* **COS903** — livelock: a reachable cycle with no progress action
  and no exit (under weak fairness a run can stay in it forever
  without resolving a non-quiescent component).
* **COS904** — cross-machine invariant violations (a ``DEGRADED``
  query coexisting with a completed migration, a seq abandoned after
  it was released, a ``SUSPECTED`` detector entry for a live node).

The model is *small-scope*: one data-plane slot, one migration, one
supervised node (the migration's target: cutover waits for it to be
``LIVE``, as ``_cutover_migration`` does), one query group, and 0/1
budgets for duplication, crashes and probes.  That is deliberate —
the protocol bugs these checks target (missing heal path, missing
abort path) already manifest at scope 1, and the bounded product
stays a few hundred states, explored in well under a second inside
the ``repro check --self`` budget.

:mod:`repro.analysis.modelcov` maps the chaos runs' executor counts
onto the same machines for COS905 transition coverage; ``repro model``
is the CLI surface (``--depth``, ``--json``, ``--dot``, ``--coverage``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.lifecycle import StateMachine

State = Tuple[str, ...]

#: Exploration safety valve: far above the real product (~10^3–10^4
#: states) but a hard stop for doctored machine sets.
DEFAULT_MAX_STATES = 200_000


# ---------------------------------------------------------------------------
# model vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """One machine instance in the product.

    ``quiescent`` are the states in which the component may rest
    forever without the product being a deadlock/livelock: the
    machine's terminal states plus the never-started ones (an unsent
    seq, an unspawned migration).
    """

    name: str
    machine: StateMachine
    initial: str
    quiescent: FrozenSet[str]
    extra_states: Tuple[str, ...] = ()

    @property
    def states(self) -> Tuple[str, ...]:
        return tuple(self.extra_states) + tuple(self.machine.states)


@dataclass(frozen=True)
class EnvVar:
    """One environment variable (budget/flag) of the product."""

    name: str
    values: Tuple[str, ...]
    initial: str


@dataclass(frozen=True)
class Move:
    """One component step inside a rule.

    ``label`` names the machine transition the step must ride on: the
    move is enabled only when the extracted machine actually contains
    an edge ``(label, current -> target)``.  This is what makes
    source-level canaries propagate — deleting the code that produces
    a transition removes the machine edge, which disables every rule
    that needs it.  ``label=None`` is an environment-driven jump
    (spawning a migration), validated against the component's state
    set only.
    """

    component: str
    label: Optional[str]
    target: str


@dataclass(frozen=True)
class Rule:
    """One action of the product automaton.

    ``guards`` constrain current component/env values; ``moves`` are
    the synchronized machine steps; ``sets`` assign env vars.
    """

    action: str
    progress: bool
    moves: Tuple[Move, ...] = ()
    guards: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    sets: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Invariant:
    """A cross-machine safety property, violated when ``forbidden``
    (a conjunction of variable -> value-set constraints) is reachable."""

    name: str
    forbidden: Tuple[Tuple[str, Tuple[str, ...]], ...]
    message: str
    anchor_component: str


@dataclass
class ProductModel:
    """The composed automaton: components + env vars + rules."""

    components: List[Component]
    env: List[EnvVar]
    rules: List[Rule]
    invariants: List[Invariant]
    #: (rule action, reason) for rules whose components are missing
    #: from the machine set (the rule is omitted entirely).
    dropped: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index = {
            var.name: i
            for i, var in enumerate(
                [
                    EnvVar(c.name, c.states, c.initial)
                    for c in self.components
                ]
                + self.env
            )
        }
        self._edge_sets: Dict[str, FrozenSet[Tuple[str, str, str]]] = {
            c.name: frozenset(
                (t.label, t.source, t.target)
                for t in c.machine.transitions
            )
            for c in self.components
        }

    @property
    def variables(self) -> List[str]:
        return [c.name for c in self.components] + [v.name for v in self.env]

    def slot(self, name: str) -> int:
        return self._index[name]

    @property
    def initial_state(self) -> State:
        return tuple(
            [c.initial for c in self.components]
            + [v.initial for v in self.env]
        )

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def enabled(self, rule: Rule, state: State) -> Optional[State]:
        """The successor state when ``rule`` fires in ``state``,
        ``None`` when any guard or move is disabled."""
        for name, allowed in rule.guards:
            if state[self._index[name]] not in allowed:
                return None
        values = list(state)
        for move in rule.moves:
            idx = self._index[move.component]
            current = values[idx]
            if move.label is not None:
                edges = self._edge_sets[move.component]
                if (move.label, current, move.target) not in edges:
                    return None
            values[idx] = move.target
        for name, value in rule.sets:
            values[self._index[name]] = value
        return tuple(values)

    def acceptable(self, state: State) -> bool:
        """Whether every component rests in a quiescent state (env
        vars are unconstrained — a spent budget is not a defect)."""
        for i, component in enumerate(self.components):
            if state[i] not in component.quiescent:
                return False
        return True

    def render_state(self, state: State) -> str:
        return " ".join(
            f"{name}={value}"
            for name, value in zip(self.variables, state)
        )

    def reachable_machine_transitions(
        self, exploration: "Exploration"
    ) -> Dict[str, Set[Tuple[str, str, str]]]:
        """Machine transitions actually driven by the explored product
        (machine name -> set of (label, source, target)).  This is the
        COS905 coverage denominator before ε/baseline filtering."""
        used: Dict[str, Set[Tuple[str, str, str]]] = {
            c.machine.name: set() for c in self.components
        }
        by_component = {c.name: c.machine.name for c in self.components}
        for src_idx, rule_idx, _dst_idx in exploration.edges:
            state = exploration.states[src_idx]
            rule = self.rules[rule_idx]
            for move in rule.moves:
                if move.label is None:
                    continue
                current = state[self._index[move.component]]
                used[by_component[move.component]].add(
                    (move.label, current, move.target)
                )
        return used


# ---------------------------------------------------------------------------
# the COSMOS product: five machines + environment
# ---------------------------------------------------------------------------

#: Machine-name -> the product component it instantiates:
#: (component, machine, extra quiescent beyond machine.terminal,
#: extra states).
_COMPONENT_PLAN: Tuple[
    Tuple[str, str, Tuple[str, ...], Tuple[str, ...]], ...
] = (
    ("slot", "uplink-receiver", ("UNSEEN",), ()),
    ("detector", "failure-detector", (), ()),
    ("node", "node-supervision", (), ()),
    ("query", "QueryStatus", ("ACTIVE",), ()),
    ("migration", "MigrationState", ("-",), ("-",)),
)

_ENV_PLAN: Tuple[EnvVar, ...] = (
    EnvVar("link", ("calm", "partitioned"), "calm"),
    EnvVar("copies", ("0", "1"), "0"),
    EnvVar("crashes", ("0", "1"), "0"),
    EnvVar("probes", ("0", "1"), "0"),
    EnvVar("delivered", ("no", "yes"), "no"),
    EnvVar("owner", ("none", "partition", "migration"), "none"),
)

def _product_rules() -> Tuple[Rule, ...]:
    """The environment automaton, one rule per adversarial or protocol
    move.  Guards name current values; moves ride machine edges."""
    return (
        # -- data plane: loss, reordering, duplication ------------------
        Rule(
            "send_ok",
            progress=True,
            guards=(("slot", ("UNSEEN",)),),
            moves=(Move("slot", "arrive", "BUFFERED"),),
        ),
        Rule(
            "send_lost",
            progress=False,
            guards=(("slot", ("UNSEEN",)),),
            moves=(Move("slot", "drop", "LOST"),),
        ),
        Rule(
            # A later seq arrives first: the receiver sees the hole.
            "expose_reorder",
            progress=False,
            guards=(("slot", ("UNSEEN",)),),
            moves=(Move("slot", "gap_detect", "GAP"),),
        ),
        Rule(
            # Punctuation announces the watermark past a lost seq.
            "expose_punctuation",
            progress=False,
            guards=(("slot", ("LOST",)),),
            moves=(Move("slot", "gap_detect", "GAP"),),
        ),
        Rule(
            "nack",
            progress=False,
            guards=(("slot", ("GAP",)),),
            moves=(Move("slot", "nack", "GAP"),),
        ),
        Rule(
            "retransmit_ok",
            progress=True,
            guards=(("slot", ("GAP",)),),
            moves=(Move("slot", "retransmit", "BUFFERED"),),
        ),
        Rule(
            "abandon",
            progress=True,
            guards=(("slot", ("GAP",)),),
            moves=(Move("slot", "abandon", "ABANDONED"),),
        ),
        Rule(
            # A late original for a known gap / an abandoned seq.
            "late_arrival",
            progress=True,
            guards=(("slot", ("GAP", "ABANDONED")), ("copies", ("0",))),
            moves=(Move("slot", "arrive", "BUFFERED"),),
            sets=(("copies", "1"),),
        ),
        Rule(
            "late_retransmit",
            progress=True,
            guards=(("slot", ("ABANDONED",)), ("copies", ("0",))),
            moves=(Move("slot", "retransmit", "BUFFERED"),),
            sets=(("copies", "1"),),
        ),
        Rule(
            "duplicate_buffered",
            progress=False,
            guards=(("slot", ("BUFFERED",)), ("copies", ("0",))),
            moves=(Move("slot", "duplicate", "BUFFERED"),),
            sets=(("copies", "1"),),
        ),
        Rule(
            "duplicate_released",
            progress=False,
            guards=(("slot", ("RELEASED",)), ("copies", ("0",))),
            moves=(Move("slot", "duplicate", "RELEASED"),),
            sets=(("copies", "1"),),
        ),
        Rule(
            "release",
            progress=True,
            guards=(("slot", ("BUFFERED",)),),
            moves=(Move("slot", "release", "RELEASED"),),
            sets=(("delivered", "yes"),),
        ),
        # -- node supervision: crash, lease expiry, repair --------------
        Rule(
            "register",
            progress=True,
            guards=(("detector", ("UNKNOWN",)),),
            moves=(Move("detector", "register", "MONITORED"),),
        ),
        Rule(
            "heartbeat",
            progress=False,
            guards=(("detector", ("MONITORED",)), ("node", ("LIVE",))),
            moves=(Move("detector", "heartbeat", "MONITORED"),),
        ),
        Rule(
            "crash",
            progress=False,
            guards=(("node", ("LIVE",)), ("crashes", ("0",))),
            moves=(Move("node", "crash", "CRASHED"),),
            sets=(("crashes", "1"),),
        ),
        Rule(
            # Direct fail_broker injection (lossy mode).
            "fail_applied",
            progress=False,
            guards=(("node", ("LIVE",)), ("crashes", ("0",))),
            moves=(Move("node", "fail_applied", "REMOVED"),),
            sets=(("crashes", "1"),),
        ),
        Rule(
            # The injector refuses a fault that would disconnect the tree.
            "fail_refused",
            progress=False,
            guards=(("node", ("LIVE",)), ("crashes", ("0",))),
            moves=(Move("node", "fail_refused", "LIVE"),),
            sets=(("crashes", "1"),),
        ),
        Rule(
            # The heartbeat lease expires on the crashed node: the
            # detector and the supervisor suspect it together.
            "lease_expiry",
            progress=True,
            guards=(("node", ("CRASHED",)), ("detector", ("MONITORED",))),
            moves=(
                Move("detector", "suspect", "SUSPECTED"),
                Move("node", "suspect", "SUSPECTED"),
            ),
        ),
        Rule(
            "repair_retry",
            progress=False,
            guards=(("node", ("SUSPECTED",)),),
            moves=(Move("node", "repair_retry", "SUSPECTED"),),
        ),
        Rule(
            "repair_ok",
            progress=True,
            guards=(("node", ("SUSPECTED",)),),
            moves=(
                Move("node", "repair_applied", "REMOVED"),
                Move("detector", "deregister", "UNKNOWN"),
            ),
        ),
        Rule(
            "gave_up",
            progress=True,
            guards=(("node", ("SUSPECTED",)),),
            moves=(
                Move("node", "gave_up", "REMOVED"),
                Move("detector", "deregister", "UNKNOWN"),
            ),
        ),
        Rule(
            # Repair degrades to a partition: the stranded query is
            # quarantined until the partition heals.
            "degrade_quarantine",
            progress=True,
            guards=(("node", ("SUSPECTED",)), ("owner", ("none",))),
            moves=(
                Move("node", "degraded", "REMOVED"),
                Move("detector", "deregister", "UNKNOWN"),
                Move("query", "quarantine_partitioned", "DEGRADED"),
            ),
            sets=(("link", "partitioned"), ("owner", "partition")),
        ),
        Rule(
            # Same degrade, but no query was stranded on the far side
            # (or the group is already quarantined by a migration).
            "degrade_empty",
            progress=True,
            guards=(("node", ("SUSPECTED",)),),
            moves=(
                Move("node", "degraded", "REMOVED"),
                Move("detector", "deregister", "UNKNOWN"),
            ),
            sets=(("link", "partitioned"),),
        ),
        Rule(
            # The operator restores connectivity; heal_partition
            # resumes the partition-quarantined query.
            "heal",
            progress=True,
            guards=(
                ("link", ("partitioned",)),
                ("owner", ("partition",)),
            ),
            moves=(Move("query", "heal_partition", "ACTIVE"),),
            sets=(("link", "calm"), ("owner", "none")),
        ),
        # -- live migration: probe, drain, cutover ----------------------
        Rule(
            # A load probe picks the group: spawn the migration and
            # quarantine the group's queries.
            "probe",
            progress=True,
            guards=(
                ("migration", ("-",)),
                ("probes", ("0",)),
                ("owner", ("none",)),
            ),
            moves=(
                Move("migration", None, "PREPARING"),
                Move("query", "quarantine_for_migration", "DEGRADED"),
            ),
            sets=(("probes", "1"), ("owner", "migration")),
        ),
        Rule(
            # The drain captures the group's state at the source.
            "drain",
            progress=True,
            moves=(Move("migration", "start_drain", "DRAINING"),),
        ),
        Rule(
            # Cutover retry while the target is down: capped backoff,
            # no state change — pure (lack of) progress.
            "migrate_retry",
            progress=False,
            guards=(
                ("migration", ("DRAINING",)),
                ("node", ("CRASHED", "SUSPECTED", "REMOVED")),
            ),
        ),
        Rule(
            # _cutover_migration cuts over only while the target is up.
            "cutover",
            progress=True,
            guards=(("node", ("LIVE",)),),
            moves=(Move("migration", "cut_over", "CUTOVER"),),
        ),
        Rule(
            "complete",
            progress=True,
            guards=(("owner", ("migration",)),),
            moves=(
                Move("migration", "complete", "COMPLETED"),
                Move("query", "resume_after_migration", "ACTIVE"),
            ),
            sets=(("owner", "none"),),
        ),
        Rule(
            # Any in-flight abort (source lost, target lost,
            # superseded): the quarantined group is resumed.
            "abort",
            progress=True,
            guards=(("owner", ("migration",)),),
            moves=(
                Move("migration", "abort", "ABORTED"),
                Move("query", "resume_after_migration", "ACTIVE"),
            ),
            sets=(("owner", "none"),),
        ),
    )


_INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "quarantine-ownership",
        forbidden=(
            ("owner", ("migration",)),
            ("migration", ("-", "COMPLETED", "ABORTED")),
        ),
        message=(
            "a migration-quarantined (DEGRADED) query coexists with a "
            "migration that is not in flight — cutover/abort must "
            "resume the group it quarantined"
        ),
        anchor_component="migration",
    ),
    Invariant(
        "degraded-unowned",
        forbidden=(("query", ("DEGRADED",)), ("owner", ("none",))),
        message=(
            "a DEGRADED query with no quarantine owner — nothing is "
            "responsible for ever resuming it"
        ),
        anchor_component="query",
    ),
    Invariant(
        "abandoned-after-release",
        forbidden=(("slot", ("ABANDONED",)), ("delivered", ("yes",))),
        message=(
            "a seq was abandoned after it was released downstream — "
            "exactly-once delivery is broken"
        ),
        anchor_component="slot",
    ),
    Invariant(
        "suspected-live",
        forbidden=(("detector", ("SUSPECTED",)), ("node", ("LIVE",))),
        message=(
            "the failure detector suspects a node that is still live — "
            "lease expiry must only fire on crashed nodes"
        ),
        anchor_component="node",
    ),
)


def build_product(machines: Sequence[StateMachine]) -> ProductModel:
    """The COSMOS product automaton over the extracted ``machines``.

    Rules touching a machine absent from ``machines`` are dropped and
    recorded in ``model.dropped`` so partial machine sets (scratch
    packages under test) still compose.
    """
    by_name = {machine.name: machine for machine in machines}
    components: List[Component] = []
    for comp_name, machine_name, extra_quiescent, extra_states in (
        _COMPONENT_PLAN
    ):
        machine = by_name.get(machine_name)
        if machine is None:
            continue
        initial = (
            extra_states[0]
            if extra_states
            else (machine.initial[0] if machine.initial else machine.states[0])
        )
        components.append(
            Component(
                name=comp_name,
                machine=machine,
                initial=initial,
                quiescent=frozenset(machine.terminal) | set(extra_quiescent),
                extra_states=extra_states,
            )
        )
    present = {c.name for c in components}
    env = [var for var in _ENV_PLAN]
    known = present | {var.name for var in env}

    dropped: List[Tuple[str, str]] = []
    rules: List[Rule] = []
    for rule in _product_rules():
        touched = {move.component for move in rule.moves}
        touched |= {name for name, _ in rule.guards}
        missing = sorted(name for name in touched if name not in known)
        if missing:
            dropped.append(
                (rule.action, f"missing component(s): {', '.join(missing)}")
            )
            continue
        rules.append(rule)

    invariants = [
        inv
        for inv in _INVARIANTS
        if all(
            name in known
            for name, _ in inv.forbidden
        )
        and inv.anchor_component in present
    ]
    return ProductModel(
        components=components,
        env=env,
        rules=rules,
        invariants=invariants,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


@dataclass
class Exploration:
    """Bounded BFS over the product's canonicalized states."""

    model: ProductModel
    states: List[State]
    depth: List[int]
    #: (source state idx, rule idx, target state idx), BFS order.
    edges: List[Tuple[int, int, int]]
    #: Outgoing edge indexes per state.
    out: List[List[int]]
    exhausted: bool
    max_depth: int


def explore(
    model: ProductModel,
    depth: Optional[int] = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> Exploration:
    """BFS from the initial state; ``depth`` bounds the exploration
    radius (``None`` = exhaust), ``max_states`` is a hard safety cap.
    ``exhausted`` is False when either bound truncated the frontier —
    liveness checks (COS902/903) are only sound on exhausted runs."""
    initial = model.initial_state
    index: Dict[State, int] = {initial: 0}
    states: List[State] = [initial]
    depths: List[int] = [0]
    edges: List[Tuple[int, int, int]] = []
    out: List[List[int]] = [[]]
    queue = deque([0])
    exhausted = True
    max_seen = 0
    while queue:
        src = queue.popleft()
        level = depths[src]
        max_seen = max(max_seen, level)
        if depth is not None and level >= depth:
            exhausted = False
            continue
        state = states[src]
        for rule_idx, rule in enumerate(model.rules):
            nxt = model.enabled(rule, state)
            if nxt is None:
                continue
            dst = index.get(nxt)
            if dst is None:
                if len(states) >= max_states:
                    exhausted = False
                    continue
                dst = len(states)
                index[nxt] = dst
                states.append(nxt)
                depths.append(level + 1)
                out.append([])
                queue.append(dst)
            out[src].append(len(edges))
            edges.append((src, rule_idx, dst))
        max_seen = max(max_seen, level)
    return Exploration(
        model=model,
        states=states,
        depth=depths,
        edges=edges,
        out=out,
        exhausted=exhausted,
        max_depth=max_seen,
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

#: Cap on exemplar states per diagnostic code (the rest are counted).
_EXEMPLARS = 3


def _origin_of(model: ProductModel, component: str) -> Tuple[str, int]:
    try:
        return model.component(component).machine.origin
    except KeyError:
        return ("<model>", 0)


def _blocking_origin(
    model: ProductModel, state: State
) -> Tuple[str, int]:
    """Anchor a deadlock/livelock on the first non-quiescent component
    (the machine whose missing exit is the defect)."""
    for i, component in enumerate(model.components):
        if state[i] not in component.quiescent:
            return component.machine.origin
    return ("<model>", 0)


def _sccs(exploration: Exploration) -> List[List[int]]:
    """Tarjan strongly-connected components, iterative."""
    n = len(exploration.states)
    index_of = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    result: List[List[int]] = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                visited[node] = True
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            outs = exploration.out[node]
            while edge_pos < len(outs):
                succ = exploration.edges[outs[edge_pos]][2]
                edge_pos += 1
                if not visited[succ]:
                    work.append((node, edge_pos))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return result


def check_model(
    model: ProductModel,
    exploration: Optional[Exploration] = None,
    depth: Optional[int] = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> Tuple[Report, Exploration]:
    """Explore (unless given) and run the COS902–904 checks."""
    if exploration is None:
        exploration = explore(model, depth=depth, max_states=max_states)
    report = Report()
    states = exploration.states

    # COS902/COS903 are liveness claims: only sound when the frontier
    # was not truncated.
    if exploration.exhausted:
        deadlocks = [
            i
            for i, state in enumerate(states)
            if not exploration.out[i] and not model.acceptable(state)
        ]
        for i in deadlocks[:_EXEMPLARS]:
            rel, line = _blocking_origin(model, states[i])
            extra = (
                f" (+{len(deadlocks) - _EXEMPLARS} more)"
                if len(deadlocks) > _EXEMPLARS
                and i == deadlocks[_EXEMPLARS - 1]
                else ""
            )
            report.add(
                "COS902",
                "deadlock: no rule is enabled in non-quiescent state "
                f"[{model.render_state(states[i])}]{extra}",
                rel,
                line,
            )

        flagged = 0
        for scc in _sccs(exploration):
            members = set(scc)
            internal = [
                e
                for i in scc
                for e in exploration.out[i]
                if exploration.edges[e][2] in members
            ]
            if not internal:
                continue
            if any(
                model.rules[exploration.edges[e][1]].progress
                for e in internal
            ):
                continue
            exits = any(
                exploration.edges[e][2] not in members
                for i in scc
                for e in exploration.out[i]
            )
            if exits:
                continue
            stuck = [
                i for i in scc if not model.acceptable(states[i])
            ]
            if not stuck:
                continue
            if flagged < _EXEMPLARS:
                actions = sorted(
                    {
                        model.rules[exploration.edges[e][1]].action
                        for e in internal
                    }
                )
                rel, line = _blocking_origin(model, states[stuck[0]])
                report.add(
                    "COS903",
                    f"livelock: a {len(scc)}-state cycle of "
                    f"non-progress action(s) {', '.join(actions)} has "
                    "no exit; e.g. "
                    f"[{model.render_state(states[stuck[0]])}]",
                    rel,
                    line,
                )
            flagged += 1

    # COS904 — cross-machine invariants.
    for invariant in model.invariants:
        bad = []
        for state in states:
            if all(
                state[model.slot(name)] in values
                for name, values in invariant.forbidden
            ):
                bad.append(state)
        if bad:
            rel, line = _origin_of(model, invariant.anchor_component)
            detail = "; ".join(
                model.render_state(s) for s in bad[:_EXEMPLARS]
            )
            report.add(
                "COS904",
                f"invariant {invariant.name} violated in {len(bad)} "
                f"reachable state(s): {invariant.message}; e.g. "
                f"{detail}",
                rel,
                line,
            )
    return report, exploration


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def product_dot(
    model: ProductModel,
    exploration: Exploration,
    max_states: Optional[int] = None,
) -> str:
    """GraphViz DOT of the reachable product subgraph (BFS order).

    ``max_states`` keeps committed renderings readable: only the first
    N BFS states (and the edges between them) are emitted."""
    limit = (
        len(exploration.states)
        if max_states is None
        else min(max_states, len(exploration.states))
    )
    lines = [
        "digraph product {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=9, fontname="monospace"];',
    ]
    for i in range(limit):
        state = exploration.states[i]
        label = "\\n".join(
            f"{name}={value}"
            for name, value in zip(model.variables, state)
            if value
            != (
                model.initial_state[model.slot(name)]
            )
        ) or "initial"
        attrs = f'label="{label}"'
        if i == 0:
            attrs += ", penwidth=2"
        if not model.acceptable(state):
            attrs += ', style=filled, fillcolor="#f2e8e8"'
        lines.append(f"  s{i} [{attrs}];")
    emitted = set()
    for src, rule_idx, dst in exploration.edges:
        if src >= limit or dst >= limit:
            continue
        action = model.rules[rule_idx].action
        key = (src, dst, action)
        if key in emitted:
            continue
        emitted.add(key)
        lines.append(f'  s{src} -> s{dst} [label="{action}", fontsize=8];')
    if limit < len(exploration.states):
        lines.append(
            f'  more [shape=plaintext, label="… '
            f'{len(exploration.states) - limit} more states"];'
        )
    lines.append("}")
    return "\n".join(lines)


def model_summary(
    model: ProductModel, exploration: Exploration
) -> dict:
    """The JSON payload backbone for ``repro model --json``."""
    return {
        "components": [
            {
                "name": c.name,
                "machine": c.machine.name,
                "initial": c.initial,
                "quiescent": sorted(c.quiescent),
                "states": list(c.states),
            }
            for c in model.components
        ],
        "env": [
            {"name": v.name, "values": list(v.values), "initial": v.initial}
            for v in model.env
        ],
        "rules": [
            {"action": r.action, "progress": r.progress}
            for r in model.rules
        ],
        "dropped_rules": [
            {"action": action, "reason": reason}
            for action, reason in model.dropped
        ],
        "states": len(exploration.states),
        "edges": len(exploration.edges),
        "exhausted": exploration.exhausted,
        "max_depth": exploration.max_depth,
    }
