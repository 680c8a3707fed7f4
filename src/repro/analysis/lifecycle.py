"""COS81x — the protocol state machines of the package.

Every lifecycle is a table the runtime runs
(:class:`repro.system.lifecycle.Lifecycle`): a literal of ``initial``,
``terminal`` and ``(label, from, to)`` ``rows`` beside the code that
steps it.  A :class:`TableSpec` names the literal and where its states
come from — the enum the table's owner stores (``QueryStatus``,
``MigrationState``) or the literal's own ``states`` (the keyed tables of
the uplink receiver, the failure detector and chaos node supervision).
The literals are read from the source, not imported.

Checks: **COS811**, a state with inbound transitions that is still
unreachable from the initial states; **COS812**, a state nothing
produces (no inbound transition, not initial) or a row naming a state
the machine lacks; **COS813**, a reachable state with no exit that the
machine does not allow to be terminal (a query stuck ``DEGRADED`` once
both heal rows are deleted).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.source import SourceModule


@dataclass(frozen=True)
class Transition:
    """One row of a lifecycle table."""

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
    #: Module the machine is declared in (diagnostic source) and its line.
    origin: Tuple[str, int] = ("<unknown>", 0)

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
# the tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableSpec:
    """A lifecycle the runtime executes: ``module`` declares the literal
    ``table`` (``initial``, ``terminal`` and ``(label, from, to)``
    ``rows``).  Its states are the table's ``states`` when it lists
    them, else the members of the enum ``name``."""

    name: str
    module: str
    table: str


DEFAULT_TABLES: Tuple[TableSpec, ...] = (
    TableSpec("MigrationState", "system/loadmgr.py", "MIGRATION_LIFECYCLE"),
    TableSpec("QueryStatus", "system/cosmos.py", "QUERY_LIFECYCLE"),
    TableSpec("failure-detector", "system/reliability.py", "FAILURE_DETECTOR"),
    TableSpec("node-supervision", "sim/network.py", "NODE_SUPERVISION"),
    TableSpec("uplink-receiver", "system/reliability.py", "UPLINK_RECEIVER"),
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
            if "states" in table:
                states = list(table["states"])
                origin = (home.rel, node.lineno)
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
    report: Optional[Report] = None,
) -> List[StateMachine]:
    """Every lifecycle machine of a module set.

    ``report`` collects COS812 for table rows naming no state; pass
    ``None`` to extract without diagnostics (``repro flow``).
    """
    sink = report if report is not None else Report()
    machines = [_extract_table_machine(t, modules, sink) for t in DEFAULT_TABLES]
    return sorted((m for m in machines if m is not None), key=lambda m: m.name)


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
