"""COS81x — protocol state machines extracted from source.

The reliability layer is held together by implicit lifecycles: a
query's ``ACTIVE``/``DEGRADED`` status, the per-sequence-number
gap/offer protocol of the :class:`UplinkReceiver`, the lease states of
the :class:`FailureDetector`, and the crash→suspect→repair supervision
of a chaos node.  This pass makes them explicit:

* **Enum-backed machines** are extracted generically: any package enum
  that is assigned to an attribute (``handle.status =
  QueryStatus.DEGRADED``) becomes a machine whose states are the enum
  members, whose initial states are class-level defaults, and whose
  transitions are the assignment sites — with the *from*-set narrowed
  by enclosing/preceding enum guards (``if handle.status is not
  QueryStatus.ACTIVE: continue`` narrows the fall-through to
  ``{ACTIVE}``).
* **Spec-backed machines** cover protocols whose state lives in
  containers, not enums (reorder buffers, lease tables).  A
  :class:`MachineSpec` declares the states and transition templates;
  each template is *anchored* to a producing method and a mutation it
  must contain, verified against the AST — the machine is only as real
  as the code behind it.

Checks:

* **COS811** — a state with inbound transitions that is still
  unreachable from the initial states.
* **COS812** — a declared state no code path produces (no inbound
  transition, not initial), or a spec transition whose anchoring
  method/mutation is gone from the source.
* **COS813** — a reachable state with no outbound transition that the
  machine does not allow to be terminal (a query stuck ``DEGRADED``
  with the heal path deleted is exactly this).

The extracted machines double as the dynamic conformance oracle
(:mod:`repro.analysis.conformance`): every transition a chaos trace
exhibits must exist in the model.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.protocol import _dotted, _enum_tests, collect_enums
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


def _spec(label, source, target, module, func, needle):
    return TransitionSpec(label, source, target, module, func, needle)


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

#: Enum machines with declared terminal policy.  An enum not listed
#: here gets every state terminal-allowed (no COS813 without a spec).
ENUM_TERMINAL_POLICY: Dict[str, Tuple[str, ...]] = {
    # A DEGRADED query must stay healable; an ACTIVE one quarantinable.
    "QueryStatus": (),
    # A live migration must finish or roll back; the in-flight states
    # (PREPARING/DRAINING/CUTOVER) may never be where a group parks.
    "MigrationState": ("COMPLETED", "ABORTED"),
}


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
# enum-backed machines
# ---------------------------------------------------------------------------


def _enum_assignment_sites(
    modules: Sequence[SourceModule], enums: Dict[str, List[str]]
) -> Dict[str, List[Tuple[SourceModule, ast.Assign, str, str]]]:
    """enum -> [(module, assign node, assigned member, label)] for every
    ``<target>.<attr> = Enum.MEMBER`` site."""
    sites: Dict[str, List[Tuple[SourceModule, ast.Assign, str, str]]] = {}
    for module in modules:
        func_of: Dict[int, str] = {}
        for func in ast.walk(module.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(func):
                    func_of.setdefault(id(sub), func.name)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
            ):
                continue
            enum = node.value.value.id
            member = node.value.attr
            if enum not in enums or member not in enums[enum]:
                continue
            label = func_of.get(id(node), "<module>")
            sites.setdefault(enum, []).append((module, node, member, label))
    return sites


def _enum_defaults(
    modules: Sequence[SourceModule], enums: Dict[str, List[str]]
) -> Dict[str, Tuple[List[str], Tuple[str, int]]]:
    """enum -> (initial members, defining site) from class-level
    ``attr: Enum = Enum.MEMBER`` defaults."""
    defaults: Dict[str, Tuple[List[str], Tuple[str, int]]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and isinstance(stmt.value, ast.Attribute)
                    and isinstance(stmt.value.value, ast.Name)
                ):
                    continue
                enum = stmt.value.value.id
                member = stmt.value.attr
                if enum not in enums or member not in enums[enum]:
                    continue
                initial, site = defaults.get(
                    enum, ([], (module.rel, stmt.lineno))
                )
                if member not in initial:
                    initial.append(member)
                defaults[enum] = (initial, site)
    return defaults


def _narrowed_sources(
    module: SourceModule,
    assign: ast.Assign,
    enum: str,
    members: List[str],
    enums: Dict[str, List[str]],
) -> List[str]:
    """The from-set of one assignment site, narrowed by enum guards.

    Walks the ancestor chain: an enclosing ``if`` whose test compares
    the *same dotted subject* against members narrows the branch taken;
    a preceding sibling guard whose body diverts control (``continue``/
    ``return``/...) narrows the fall-through.
    """
    subject = _dotted(assign.targets[0])
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(module.tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    chain: List[ast.AST] = [assign]
    node: ast.AST = assign
    while id(node) in parents:
        node = parents[id(node)]
        chain.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    allowed = set(members)

    def narrow(test: ast.AST, taken: bool) -> None:
        nonlocal allowed
        decoded = _enum_tests(test, enums)
        if decoded is None:
            return
        sub, en, tested, negative = decoded
        if sub != subject or en != enum:
            return
        in_branch = tested if not negative else set(members) - tested
        allowed &= in_branch if taken else set(members) - in_branch

    for index, ancestor in enumerate(chain[1:], start=1):
        below = chain[index - 1]
        if isinstance(ancestor, ast.If):
            if any(below is stmt for stmt in ancestor.body):
                narrow(ancestor.test, taken=True)
            elif any(below is stmt for stmt in ancestor.orelse):
                narrow(ancestor.test, taken=False)
        body = getattr(ancestor, "body", None)
        if isinstance(body, list):
            for stmt in body:
                if stmt is below:
                    break
                if (
                    isinstance(stmt, ast.If)
                    and _terminating(stmt.body)
                    and not stmt.orelse
                ):
                    # Fall-through == the branch was NOT taken.
                    narrow(stmt.test, taken=False)
    return sorted(allowed, key=members.index)


def _terminating(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _extract_enum_machines(
    modules: Sequence[SourceModule],
    enums: Dict[str, List[str]],
) -> List[StateMachine]:
    machines: List[StateMachine] = []
    sites = _enum_assignment_sites(modules, enums)
    defaults = _enum_defaults(modules, enums)
    enum_origin: Dict[str, Tuple[str, int]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in enums:
                enum_origin.setdefault(node.name, (module.rel, node.lineno))
    for enum in sorted(set(sites) | set(defaults)):
        if enum not in sites and enum not in defaults:
            continue
        members = enums[enum]
        initial, _site = defaults.get(enum, ([], ("", 0)))
        terminal = ENUM_TERMINAL_POLICY.get(enum)
        machine = StateMachine(
            name=enum,
            states=list(members),
            initial=list(initial),
            terminal=list(members) if terminal is None else list(terminal),
            origin=enum_origin.get(enum, ("<unknown>", 0)),
        )
        seen: Set[Transition] = set()
        for module, assign, member, label in sites.get(enum, []):
            for source in _narrowed_sources(
                module, assign, enum, members, enums
            ):
                transition = Transition(label, source, member)
                if transition not in seen:
                    seen.add(transition)
                    machine.transitions.append(transition)
        machines.append(machine)
    return machines


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
    gone; pass ``None`` to extract without diagnostics (``repro flow``).
    """
    sink = report if report is not None else Report()
    enums = collect_enums(modules)
    machines = _extract_enum_machines(modules, enums)
    for spec in specs:
        machine = _extract_spec_machine(spec, modules, sink)
        if machine is not None:
            machines.append(machine)
    machines.sort(key=lambda m: m.name)
    return machines


def check_lifecycle(
    modules: Sequence[SourceModule],
    specs: Sequence[MachineSpec] = DEFAULT_MACHINE_SPECS,
) -> Report:
    """COS811/812/813 over a module set."""
    report = Report()
    machines = extract_lifecycle(modules, specs, report)
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
