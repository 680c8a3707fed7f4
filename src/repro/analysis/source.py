"""Shared infrastructure for the source-lint passes (COS5xx-COS7xx).

The workload families (COS1xx-COS2xx) analyze *queries*; the source
families analyze the package's *own Python source*.  This module holds
what those passes share:

* :class:`SourceModule` — one parsed module (path, text, AST, lines).
* :func:`load_package` — every module under a package directory, in a
  deterministic (sorted-path) order.
* **Pragmas** — ``# cos: disable=COS503`` on (or immediately above) a
  flagged line suppresses the finding; ``# cos: disable-file=COS5xx``
  anywhere in a file suppresses a whole family for that file.  Specs
  are exact codes (``COS503``), family wildcards (``COS5xx``), comma
  lists, or ``all``.  A reason after the spec is encouraged::

      for node in self._dirty:  # cos: disable=COS503 (commutative fold)

* **Baseline** — a checked-in debt ledger: ``<file> <code> <count>``
  per line.  Matching findings are suppressed up to ``count`` times per
  (file, code), so existing debt gates nothing while any *new* finding
  still fails CI.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import CODES, Diagnostic, Report


class SourceError(Exception):
    """Raised for unparseable modules or malformed baseline files."""


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@dataclass
class SourceModule:
    """One Python module as the source-lint passes see it."""

    path: Path
    #: Path rendered in diagnostics (posix, relative to the lint base).
    rel: str
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.text.splitlines()


def load_source(path: Path, rel: Optional[str] = None) -> SourceModule:
    """Parse one file into a :class:`SourceModule`."""
    text = path.read_text()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - package always parses
        raise SourceError(f"cannot parse {path}: {exc}") from exc
    return SourceModule(path, rel or path.name, text, tree)


def load_package(
    package: Path, base: Optional[Path] = None
) -> List[SourceModule]:
    """Every ``*.py`` module under ``package``, sorted by path.

    ``base`` anchors the relative paths diagnostics render (defaults to
    the package's parent, so modules read ``repro/sim/trace.py``).
    """
    if not package.is_dir():
        raise SourceError(f"no package directory at {package}")
    anchor = base if base is not None else package.parent
    modules = []
    for path in sorted(package.rglob("*.py")):
        try:
            rel = path.relative_to(anchor).as_posix()
        except ValueError:
            rel = path.as_posix()
        modules.append(load_source(path, rel))
    return modules


# ---------------------------------------------------------------------------
# code specs and pragmas
# ---------------------------------------------------------------------------

#: ``COS503`` exact, ``COS5xx`` family, ``all`` everything.
_SPEC_RE = re.compile(r"^(all|COS\d{3}|COS\d(?:xx|XX))$")
_PRAGMA_RE = re.compile(r"#\s*cos:\s*(disable|disable-file)=([A-Za-z0-9,]+)")


def parse_code_spec(spec: str) -> List[str]:
    """Split and validate a comma list of code specs.

    Raises :class:`SourceError` on anything that is neither a known
    code, a family wildcard (``COS5xx``) nor ``all``.
    """
    out: List[str] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if not _SPEC_RE.match(item):
            raise SourceError(f"bad code spec {item!r}")
        if item.startswith("COS") and item[3:].isdigit() and item not in CODES:
            raise SourceError(f"unknown diagnostic code {item!r}")
        out.append(item)
    if not out:
        raise SourceError(f"empty code spec {spec!r}")
    return out


def spec_matches(specs: Iterable[str], code: str) -> bool:
    """Whether ``code`` is selected by any spec in ``specs``."""
    for spec in specs:
        if spec == "all" or spec == code:
            return True
        if spec.lower().endswith("xx") and code.startswith(spec[:4]):
            return True
    return False


def _pragmas_on(line: str) -> Tuple[List[str], List[str]]:
    """(line-scoped specs, file-scoped specs) declared on one line."""
    line_specs: List[str] = []
    file_specs: List[str] = []
    for kind, spec in _PRAGMA_RE.findall(line):
        specs = parse_code_spec(spec)
        (file_specs if kind == "disable-file" else line_specs).extend(specs)
    return line_specs, file_specs


class PragmaIndex:
    """All ``# cos:`` pragmas of one module, queryable by line."""

    def __init__(self, module: SourceModule) -> None:
        self._by_line: Dict[int, List[str]] = {}
        self._file: List[str] = []
        for lineno, line in enumerate(module.lines, start=1):
            line_specs, file_specs = _pragmas_on(line)
            if line_specs:
                self._by_line[lineno] = line_specs
            self._file.extend(file_specs)

    def suppresses(self, lineno: Optional[int], code: str) -> bool:
        """Line pragma on the flagged line, a standalone pragma comment
        immediately above it, or a file pragma anywhere."""
        if spec_matches(self._file, code):
            return True
        if lineno is None:
            return False
        for where in (lineno, lineno - 1):
            if spec_matches(self._by_line.get(where, ()), code):
                return True
        return False


def apply_pragmas(report: Report, module: SourceModule) -> Report:
    """Drop diagnostics suppressed by the module's pragmas."""
    index = PragmaIndex(module)
    return Report(
        d for d in report if not index.suppresses(d.pos, d.code)
    )


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


class Baseline:
    """A checked-in ledger of accepted findings.

    One entry per line: ``<file> <code> <count>`` (count defaults to 1).
    Line numbers are deliberately absent — baselines must survive
    unrelated edits — so an entry forgives up to ``count`` findings of
    ``code`` in ``file``, whatever their position.
    """

    def __init__(self, allowances: Optional[Dict[Tuple[str, str], int]] = None):
        self._allow: Dict[Tuple[str, str], int] = dict(allowances or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        allow: Dict[Tuple[str, str], int] = {}
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3) or parts[1] not in CODES:
                raise SourceError(f"{path}:{lineno}: bad baseline entry {raw!r}")
            count = int(parts[2]) if len(parts) == 3 else 1
            if count < 1:
                raise SourceError(f"{path}:{lineno}: bad count in {raw!r}")
            key = (parts[0], parts[1])
            allow[key] = allow.get(key, 0) + count
        return cls(allow)

    @classmethod
    def from_report(cls, report: Report) -> "Baseline":
        allow: Dict[Tuple[str, str], int] = {}
        for diag in report:
            key = (diag.source, diag.code)
            allow[key] = allow.get(key, 0) + 1
        return cls(allow)

    def dump(self) -> str:
        lines = ["# cos baseline: <file> <code> <count>"]
        for (rel, code), count in sorted(self._allow.items()):
            lines.append(f"{rel} {code} {count}")
        return "\n".join(lines) + "\n"

    def audit(
        self, report: Report
    ) -> Tuple[Report, int, List[Tuple[str, str, int]]]:
        """Like :meth:`filter`, plus the ledger's stale remainder.

        ``stale`` lists ``(file, code, leftover)`` entries whose
        recorded count exceeds the findings actually present — fixed
        findings lingering in the ledger (COS704 in the driver).
        """
        budget = dict(self._allow)
        kept: List[Diagnostic] = []
        forgiven = 0
        for diag in report:
            key = (diag.source, diag.code)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                forgiven += 1
            else:
                kept.append(diag)
        stale = [
            (rel, code, leftover)
            for (rel, code), leftover in sorted(budget.items())
            if leftover > 0
        ]
        return Report(kept), forgiven, stale

    def __len__(self) -> int:
        return sum(self._allow.values())
