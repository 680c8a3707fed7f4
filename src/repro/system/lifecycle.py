"""The one executor of the package's lifecycle tables.

A lifecycle is a literal of ``(label, from, to)`` rows beside the code
that runs it (``QUERY_LIFECYCLE``, ``MIGRATION_LIFECYCLE``,
``UPLINK_RECEIVER``, ``FAILURE_DETECTOR``, ``NODE_SUPERVISION``;
DESIGN.md section 16).  :class:`Lifecycle` indexes the rows once, takes
a step only where a row lists it, and counts the rows it takes: a step
the table does not list raises and changes nothing, so a protocol
breach shows where it happens, and the counts are exactly what a run
did (``repro chaos --json``, COS905 coverage).  ``repro flow`` reads the
same literals from the source.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple, Type


class Lifecycle:
    """One lifecycle table, run.

    :meth:`take` moves a state its owner keeps (a query handle's status,
    a migration's state); :meth:`step` moves the state of one key of
    :attr:`states`, which holds only the keys away from the initial
    state.  Each executor counts the rows it took (:attr:`counts`,
    keyed ``"label from->to"``); an executor lives as long as the run
    that owns it.  ``noun`` names a key in the error a refused step
    raises (``"slot 7: no step ..."``).
    """

    def __init__(self, table: dict, error: Type[Exception], noun: str = "") -> None:
        self.initial: str = table["initial"]
        self.error = error
        self.noun = noun
        #: (label, from) -> (to, count key), built once from the rows
        self._next: Dict[Tuple[str, str], Tuple[str, str]] = {
            (label, source): (target, f"{label} {source}->{target}")
            for label, source, target in table["rows"]
        }
        self.counts: Dict[str, int] = {}
        self.states: Dict[Hashable, str] = {}

    def take(
        self, label: str, source: str, subject: object = "", times: int = 1
    ) -> str:
        """The state the row ``label`` leads to from ``source``, counted
        ``times``; raises ``error`` (naming ``subject``) when no row
        lists the step."""
        found = self._next.get((label, source))
        if found is None:
            named = f"{self.noun} {subject}".strip()
            raise self.error(f"{named}: no step {label!r} from {source}")
        target, row = found
        self.counts[row] = self.counts.get(row, 0) + times
        return target

    def step(self, key: Hashable, label: str) -> str:
        """Move ``key`` along the row ``label`` leaves its state by."""
        target = self.take(label, self.states.get(key, self.initial), key)
        if target == self.initial:
            self.states.pop(key, None)
        else:
            self.states[key] = target
        return target

    def forget(self, key: Hashable) -> None:
        """Stop storing ``key``: its owner knows its state without it
        (a receiver's slot below the watermark)."""
        self.states.pop(key, None)
