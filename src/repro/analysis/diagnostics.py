"""Diagnostics emitted by the static analyzer.

Every finding carries a stable code (``COS1xx`` schema, ``COS2xx``
satisfiability, ``COS5xx`` determinism, ``COS7xx`` source style,
``COS81x`` lifecycle state machines, ``COS9xx`` model checking), a
severity, a human-readable message and a *source span*: the logical
source (a query name, a profile id, or — for the source-lint
families — a file path) plus an optional
position (a character offset into the query text for the workload
families, a line number for the source-lint families).  Diagnostics
render in the conventional ``file:pos: code message`` form so editors
and CI logs can link back to the offending span.

The full catalogue, with an example trigger and fix per code, lives in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional


class Severity(enum.Enum):
    """How bad a finding is: errors gate deployment, warnings advise."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


#: code -> (severity, one-line summary).  The single registry keeps the
#: CLI, the docs and the checks in agreement about what each code means.
CODES = {
    # -- COS1xx: schema -----------------------------------------------------
    "COS101": (Severity.ERROR, "unknown stream"),
    "COS102": (Severity.ERROR, "unknown attribute"),
    "COS103": (Severity.ERROR, "type-incompatible constraint"),
    "COS104": (Severity.WARNING, "unused projection"),
    "COS105": (Severity.ERROR, "ambiguous unqualified attribute"),
    # -- COS2xx: satisfiability --------------------------------------------
    "COS201": (Severity.ERROR, "unsatisfiable predicate"),
    "COS202": (Severity.WARNING, "vacuous conjunct"),
    "COS204": (Severity.WARNING, "filter outside attribute domain"),
    # -- COS5xx: determinism hazards (source lint) --------------------------
    "COS501": (Severity.ERROR, "nondeterministic entropy source"),
    "COS502": (Severity.ERROR, "wall-clock read in simulated-time code"),
    "COS503": (Severity.WARNING, "unordered set iteration feeds ordered sink"),
    "COS504": (Severity.WARNING, "id()-based identity in deterministic subsystem"),
    # -- COS7xx: source style ------------------------------------------------
    "COS701": (Severity.ERROR, "mutable default argument"),
    "COS702": (Severity.ERROR, "bare except"),
    "COS703": (Severity.WARNING, "missing 'from __future__ import annotations'"),
    "COS704": (Severity.WARNING, "stale baseline entry"),
    # -- COS81x: lifecycle state machines (source lint) ---------------------
    "COS811": (Severity.WARNING, "lifecycle state unreachable from initial"),
    "COS812": (Severity.ERROR, "lifecycle state/transition with no producing code path"),
    "COS813": (Severity.ERROR, "lifecycle state has no exit where one is required"),
    # -- COS90x: bounded model checking of the composed machines ------------
    "COS902": (Severity.ERROR, "deadlock: non-terminal product state with no enabled transition"),
    "COS903": (Severity.ERROR, "livelock: reachable cycle with no progress action and no exit"),
    "COS904": (Severity.ERROR, "cross-machine invariant violated in a reachable product state"),
    "COS905": (Severity.WARNING, "model transition never exercised by the chaos corpus"),
}


class DiagnosticError(Exception):
    """Raised for malformed diagnostics (unknown codes)."""


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``source`` names the analyzed object (query name, profile id, file
    path); ``pos`` is a character offset into the query text when the
    parser recorded one (a line number for the source-lint families).
    """

    code: str
    message: str
    source: str = "<input>"
    pos: Optional[int] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise DiagnosticError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> Severity:
        return CODES[self.code][0]

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        """``file:pos: code message`` (pos omitted when unknown)."""
        where = self.source if self.pos is None else f"{self.source}:{self.pos}"
        return f"{where}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """Machine-readable form (the ``repro check --json`` contract).

        ``file`` is the logical source (a file path for the source-lint
        families), ``line`` its position (a line number there).
        """
        return {
            "file": self.source,
            "line": self.pos,
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }

    def __str__(self) -> str:
        return self.render()


class Report:
    """An ordered collection of diagnostics plus exit-code policy.

    Exit codes follow the ``repro check`` contract: 0 clean, 1 when the
    only findings are warnings and ``strict`` is requested, 2 when any
    error is present.
    """

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diagnostics: List[Diagnostic] = list(diagnostics)

    def add(
        self,
        code: str,
        message: str,
        source: str = "<input>",
        pos: Optional[int] = None,
    ) -> Diagnostic:
        diag = Diagnostic(code, message, source, pos)
        self._diagnostics.append(diag)
        return diag

    def extend(self, other: "Report") -> None:
        self._diagnostics.extend(other._diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self._diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self._diagnostics if not d.is_error]

    @property
    def is_clean(self) -> bool:
        return not self._diagnostics

    def exit_code(self, strict: bool = False) -> int:
        """0 clean, 1 warnings under ``strict``, 2 errors."""
        if self.errors:
            return 2
        if self.warnings and strict:
            return 1
        return 0

    def render(self) -> str:
        """One diagnostic per line, errors and warnings interleaved in
        discovery order, followed by a summary line."""
        lines = [d.render() for d in self._diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The ``repro check --json`` payload."""
        return {
            "diagnostics": [d.to_dict() for d in self._diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __repr__(self) -> str:
        return f"Report({len(self.errors)}E/{len(self.warnings)}W)"
