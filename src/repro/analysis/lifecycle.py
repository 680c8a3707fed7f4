"""COS81x — the protocol state machines of the package.

* **Table-backed machines**: a query's ``QueryStatus`` and a live
  group migration's ``MigrationState`` are tables the runtime executes
  (``QUERY_LIFECYCLE``, ``MIGRATION_LIFECYCLE``); a :class:`TableSpec`
  names the enum (the states) and the table (the rest).
* **Spec-backed machines** cover protocols whose state lives in
  containers (the uplink receiver's reorder buffer, the failure
  detector's leases, chaos node supervision).  A :class:`MachineSpec`
  declares the states and transition templates, each *anchored* to a
  producing method and a mutation it must contain, verified against
  the AST — the machine is only as real as the code behind it.

Checks: **COS811**, a state with inbound transitions that is still
unreachable from the initial states; **COS812**, a state nothing
produces (no inbound transition, not initial), a spec transition whose
anchor is gone, or a table row naming a state its enum lacks;
**COS813**, a reachable state with no exit that the machine does not
allow to be terminal (a query stuck ``DEGRADED`` once both heal rows
are deleted).  The machines double as the dynamic conformance oracle
(:mod:`repro.analysis.conformance`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.source import SourceModule


@dataclass(frozen=True)
class Transition:
    """One verified edge of a lifecycle machine."""

    label: str
    source: str
    target: str

    def to_dict(self) -> dict:
        return {"label": self.label, "source": self.source, "target": self.target}


@dataclass
class StateMachine:
    """One extracted lifecycle machine."""

    name: str
    states: List[str]
    initial: List[str]
    #: States allowed to have no outbound transition (COS813 exempt).
    terminal: List[str]
    transitions: List[Transition] = field(default_factory=list)
    #: Module the machine anchors on (diagnostic source) and its line.
    origin: Tuple[str, int] = ("<unknown>", 0)

    def targets(self, label: str, source: str) -> List[str]:
        return [
            t.target
            for t in self.transitions
            if t.label == label and t.source == source
        ]

    def reachable(self) -> Set[str]:
        seen = set(self.initial)
        frontier = list(self.initial)
        while frontier:
            state = frontier.pop()
            for t in self.transitions:
                if t.source == state and t.target not in seen:
                    seen.add(t.target)
                    frontier.append(t.target)
        return seen

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "states": list(self.states),
            "initial": list(self.initial),
            "terminal": list(self.terminal),
            "transitions": [t.to_dict() for t in self.transitions],
        }


# ---------------------------------------------------------------------------
# spec-backed machines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionSpec:
    """A transition template anchored to the code that produces it.

    The transition is only admitted into the machine when ``module``
    contains a function/method named ``func`` whose source includes
    ``needle`` (the mutation that actually performs the transition);
    otherwise COS812 reports the dead template.
    """

    label: str
    source: str
    target: str
    module: str
    func: str
    needle: str


@dataclass(frozen=True)
class MachineSpec:
    """Declared shape of a container-backed protocol machine."""

    name: str
    #: Module suffix the machine anchors on (diagnostics, origin).
    module: str
    states: Tuple[str, ...]
    initial: Tuple[str, ...]
    terminal: Tuple[str, ...]
    transitions: Tuple[TransitionSpec, ...]


_spec = TransitionSpec


_R = "system/reliability.py"
_N = "sim/network.py"

#: The uplink receiver's per-sequence-number slot protocol.  UNSEEN is
#: a slot nothing happened to yet; LOST means the wire ate the send;
#: GAP means the receiver knows the number is missing; BUFFERED holds
#: an out-of-order arrival; RELEASED/ABANDONED are the two outcomes.
#: ``gap_detect`` and ``release`` are internal (epsilon) steps — traces
#: never name them directly.
UPLINK_RECEIVER_SPEC = MachineSpec(
    name="uplink-receiver",
    module=_R,
    states=("UNSEEN", "LOST", "GAP", "BUFFERED", "RELEASED", "ABANDONED"),
    initial=("UNSEEN",),
    terminal=("RELEASED", "ABANDONED"),
    transitions=(
        _spec("arrive", "UNSEEN", "BUFFERED", _R, "offer", "self._buffer[seq]"),
        _spec("arrive", "GAP", "BUFFERED", _R, "offer", "self._buffer[seq]"),
        # A late first copy can overtake its own abandonment.
        _spec("arrive", "ABANDONED", "BUFFERED", _R, "_flush", "self._abandoned.discard"),
        _spec("drop", "UNSEEN", "LOST", _N, "_apply_drop", ".record("),
        _spec("gap_detect", "UNSEEN", "GAP", _R, "offer", "self._known_gaps.update"),
        _spec("gap_detect", "LOST", "GAP", _R, "announce", "self._known_gaps.update"),
        _spec("nack", "GAP", "GAP", _N, "_nack", "nacks_sent"),
        _spec("retransmit", "GAP", "BUFFERED", _N, "_retransmit_arrival", ".offer("),
        _spec("retransmit", "ABANDONED", "BUFFERED", _R, "_flush", "self._abandoned.discard"),
        _spec("duplicate", "BUFFERED", "BUFFERED", _R, "offer", "duplicates_suppressed"),
        _spec("duplicate", "RELEASED", "RELEASED", _R, "offer", "duplicates_suppressed"),
        _spec("abandon", "GAP", "ABANDONED", _R, "abandon", "self._abandoned.add"),
        _spec("abandon", "GAP", "ABANDONED", _R, "_force_flush", "self._abandoned.add"),
        _spec("release", "BUFFERED", "RELEASED", _R, "_flush", "released.append"),
    ),
)

#: The heartbeat failure detector's lease states per node.
FAILURE_DETECTOR_SPEC = MachineSpec(
    name="failure-detector",
    module=_R,
    states=("UNKNOWN", "MONITORED", "SUSPECTED"),
    initial=("UNKNOWN",),
    terminal=("UNKNOWN", "MONITORED"),
    transitions=(
        _spec("register", "UNKNOWN", "MONITORED", _R, "register", "self._deadlines[node]"),
        _spec("register", "SUSPECTED", "MONITORED", _R, "register", "self._suspected.discard"),
        _spec("heartbeat", "MONITORED", "MONITORED", _R, "sweep", "self._shared_deadline = now"),
        _spec("suspect", "MONITORED", "SUSPECTED", _R, "check", "self._suspected.add"),
        _spec("deregister", "MONITORED", "UNKNOWN", _R, "deregister", "self._deadlines.pop"),
        _spec("deregister", "SUSPECTED", "UNKNOWN", _R, "deregister", "self._suspected.discard"),
    ),
)

#: Supervision of one chaos node: crash, heartbeat-driven suspicion,
#: repair with retry/degrade/give-up, plus the lossy-mode immediate
#: fail-and-repair labels.
NODE_SUPERVISION_SPEC = MachineSpec(
    name="node-supervision",
    module=_N,
    states=("LIVE", "CRASHED", "SUSPECTED", "REMOVED"),
    initial=("LIVE",),
    terminal=("LIVE", "REMOVED"),
    transitions=(
        _spec("crash", "LIVE", "CRASHED", _N, "_apply_fault", "self._crashed[event.node]"),
        _spec("fail_applied", "LIVE", "REMOVED", _N, "_apply_fault", "fail_broker"),
        _spec("fail_refused", "LIVE", "LIVE", _N, "_apply_fault", "refused"),
        _spec("suspect", "CRASHED", "SUSPECTED", _N, "_sweep", "detector.check"),
        _spec("repair_applied", "SUSPECTED", "REMOVED", _N, "_repair", "repairs_applied"),
        _spec("repair_retry", "SUSPECTED", "SUSPECTED", _N, "_repair", "repairs_retried"),
        _spec("degraded", "SUSPECTED", "REMOVED", _N, "_degrade", "quarantine_partitioned"),
        _spec("gave_up", "SUSPECTED", "REMOVED", _N, "_repair", "gave up"),
    ),
)

DEFAULT_MACHINE_SPECS: Tuple[MachineSpec, ...] = (
    UPLINK_RECEIVER_SPEC,
    FAILURE_DETECTOR_SPEC,
    NODE_SUPERVISION_SPEC,
)

def _func_source(module: SourceModule, name: str) -> Optional[str]:
    """Source text of the (unique) function/method ``name``."""
    for node in ast.walk(module.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            end = getattr(node, "end_lineno", node.lineno)
            return "\n".join(module.lines[node.lineno - 1 : end])
    return None


def _extract_spec_machine(
    spec: MachineSpec,
    modules: Sequence[SourceModule],
    report: Report,
) -> Optional[StateMachine]:
    by_suffix = {
        suffix: module
        for module in modules
        for suffix in {spec.module} | {t.module for t in spec.transitions}
        if module.rel.endswith(suffix)
    }
    home = by_suffix.get(spec.module)
    if home is None:
        # The spec targets a module this package does not contain
        # (e.g. a scratch package under test) — nothing to anchor on.
        return None
    origin = (home.rel, 1)
    machine = StateMachine(
        name=spec.name,
        states=list(spec.states),
        initial=list(spec.initial),
        terminal=list(spec.terminal),
        origin=origin,
    )
    for template in spec.transitions:
        module = by_suffix.get(template.module)
        source = (
            _func_source(module, template.func) if module is not None else None
        )
        if source is None or template.needle not in source:
            where = module.rel if module is not None else template.module
            report.add(
                "COS812",
                f"machine {spec.name}: transition {template.source}->"
                f"{template.target} ({template.label}) has no producing "
                f"code path — {template.func}() no longer contains "
                f"{template.needle!r}",
                where,
                1,
            )
            continue
        transition = Transition(template.label, template.source, template.target)
        if transition not in machine.transitions:
            machine.transitions.append(transition)
    return machine


# ---------------------------------------------------------------------------
# table-backed machines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableSpec:
    """A lifecycle the runtime executes: ``module`` declares the enum
    ``name`` (its members are the states) and the literal ``table``
    (``initial``, ``terminal`` and ``(label, from, to)`` ``rows``)."""

    name: str
    module: str
    table: str


DEFAULT_TABLES: Tuple[TableSpec, ...] = (
    TableSpec("MigrationState", "system/loadmgr.py", "MIGRATION_LIFECYCLE"),
    TableSpec("QueryStatus", "system/cosmos.py", "QUERY_LIFECYCLE"),
)


def _extract_table_machine(
    spec: TableSpec,
    modules: Sequence[SourceModule],
    report: Report,
) -> Optional[StateMachine]:
    """Read from the source, not imported: a doctored module is checked
    as written."""
    home = next((m for m in modules if m.rel.endswith(spec.module)), None)
    if home is None:
        return None
    states: List[str] = []
    origin = (home.rel, 1)
    table = None
    for node in home.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == spec.name:
            origin = (home.rel, node.lineno)
            states = [
                stmt.targets[0].id
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                and getattr(stmt.targets[0], "id", "").isupper()
            ]
        elif isinstance(node, ast.Assign) and (
            getattr(node.targets[0], "id", None) == spec.table
        ):
            table = ast.literal_eval(node.value)
    if table is None:
        return None
    machine = StateMachine(
        name=spec.name,
        states=states,
        initial=[table["initial"]],
        terminal=list(table["terminal"]),
        origin=origin,
    )
    for row in table["rows"]:
        transition = Transition(*row)
        if not {transition.source, transition.target} <= set(states):
            report.add("COS812", f"machine {spec.name}: row {row} names a "
                       f"state {spec.name} does not have", *origin)
        elif transition not in machine.transitions:
            machine.transitions.append(transition)
    return machine


# ---------------------------------------------------------------------------
# extraction + checks
# ---------------------------------------------------------------------------


def extract_lifecycle(
    modules: Sequence[SourceModule],
    specs: Sequence[MachineSpec] = DEFAULT_MACHINE_SPECS,
    report: Optional[Report] = None,
) -> List[StateMachine]:
    """Every lifecycle machine of a module set.

    ``report`` collects COS812 for spec transitions whose anchors are
    gone and table rows naming no state; pass ``None`` to extract
    without diagnostics (``repro flow``).
    """
    sink = report if report is not None else Report()
    machines = [_extract_table_machine(t, modules, sink) for t in DEFAULT_TABLES]
    machines += [_extract_spec_machine(spec, modules, sink) for spec in specs]
    return sorted((m for m in machines if m is not None), key=lambda m: m.name)


def check_lifecycle(
    modules: Sequence[SourceModule],
    specs: Sequence[MachineSpec] = DEFAULT_MACHINE_SPECS,
) -> Report:
    """COS811/812/813 over a module set."""
    report = Report()
    return check_machines(extract_lifecycle(modules, specs, report), report)


def check_machines(machines: Sequence[StateMachine], report: Report) -> Report:
    """COS811/812/813 over already-extracted machines, added to
    ``report`` (the one :func:`extract_lifecycle` filled)."""
    for machine in machines:
        rel, line = machine.origin
        produced = set(machine.initial)
        for t in machine.transitions:
            produced.add(t.target)
        reachable = machine.reachable()
        with_exit = {t.source for t in machine.transitions}
        for state in machine.states:
            if state not in produced:
                report.add(
                    "COS812",
                    f"machine {machine.name}: state {state} has no "
                    "producing code path (no transition targets it and "
                    "it is not an initial state)",
                    rel,
                    line,
                )
            elif state not in reachable:
                report.add(
                    "COS811",
                    f"machine {machine.name}: state {state} is "
                    "unreachable from the initial state(s) "
                    f"{', '.join(machine.initial) or '<none>'}",
                    rel,
                    line,
                )
            elif state not in with_exit and state not in machine.terminal:
                report.add(
                    "COS813",
                    f"machine {machine.name}: state {state} has no exit "
                    "but is not an allowed terminal state — once "
                    "entered, nothing can ever leave it",
                    rel,
                    line,
                )
    return report
