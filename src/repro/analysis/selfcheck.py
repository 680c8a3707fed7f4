"""The unified source-lint driver (``repro check --self``).

Runs the source families over a package directory — COS5xx determinism
(:mod:`repro.analysis.purity`), COS7xx style
(:mod:`repro.analysis.style`), the package-level COS81x lifecycle
state machines (:mod:`repro.analysis.lifecycle`), and the COS90x
bounded model check of their composition
(:mod:`repro.analysis.model`) — through one pipeline:

1. load every module in sorted-path order (deterministic output);
2. collect package-wide facts (set-returning function annotations
   for the iteration check);
3. run the per-module passes, then the package-level passes (the
   machines are extracted once, for the lifecycle check and the model);
4. honor ``# cos: disable=...`` pragmas;
5. subtract the checked-in baseline (when given) and flag its stale
   remainder (COS704);
6. optionally restrict to a ``--code`` selection.

Each driver entry point accepts an optional ``timings`` dict that is
filled with per-pass wall-clock seconds (the ``repro check --self
--json`` analyzer budget that CI gates on).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.lifecycle import check_machines, extract_lifecycle
from repro.analysis.model import build_product, check_model
from repro.analysis.purity import check_purity, collect_set_returning
from repro.analysis.source import (
    Baseline,
    PragmaIndex,
    SourceModule,
    apply_pragmas,
    load_package,
    spec_matches,
)
from repro.analysis.style import check_style

#: Analyzer pass list, in execution order (the ``--json`` contract).
PASSES = ("purity", "style", "lifecycle", "model")


def _clock() -> float:
    # cos: disable=COS502 (analyzer self-timing, not simulated time)
    return time.perf_counter()


def default_package_dir() -> Path:
    """The installed ``repro`` package directory (the ``--self`` target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_baseline_path(package: Optional[Path] = None) -> Path:
    """``tools/cos-baseline.txt`` next to the package's repo root."""
    package = package or default_package_dir()
    return package.parent.parent / "tools" / "cos-baseline.txt"


def _apply_package_pragmas(
    report: Report, modules: Sequence[SourceModule]
) -> Report:
    """Pragma filtering for package-level passes, whose diagnostics
    span modules: each finding consults the pragmas of the module it
    anchors on."""
    indexes: Dict[str, PragmaIndex] = {}
    by_rel = {module.rel: module for module in modules}
    kept = []
    for diag in report:
        module = by_rel.get(diag.source)
        if module is not None:
            index = indexes.get(diag.source)
            if index is None:
                index = indexes[diag.source] = PragmaIndex(module)
            if index.suppresses(diag.pos, diag.code):
                continue
        kept.append(diag)
    return Report(kept)


def check_modules(
    modules: Sequence[SourceModule],
    respect_pragmas: bool = True,
    timings: Optional[Dict[str, float]] = None,
) -> Report:
    """The package pipeline over an explicit module list.

    Per-module families first (pragmas applied per module), then the
    package-level COS81x/COS90x passes (pragmas applied per anchored
    module).
    ``timings`` — when given — accumulates wall-clock seconds per pass
    under the names in :data:`PASSES`.
    """
    set_returning = collect_set_returning(modules)
    spent = {name: 0.0 for name in PASSES}
    combined = Report()
    for module in modules:
        per_module = Report()
        mark = _clock()
        per_module.extend(check_purity(module, set_returning))
        spent["purity"] += _clock() - mark
        mark = _clock()
        per_module.extend(check_style(module))
        spent["style"] += _clock() - mark
        if respect_pragmas:
            per_module = apply_pragmas(per_module, module)
        combined.extend(per_module)
    mark = _clock()
    # The machines are extracted once: the lifecycle check reads them
    # (a row naming no state is COS812 from the extraction itself), and
    # the bounded model check composes the same list (COS90x).
    lifecycle = Report()
    machines = extract_lifecycle(modules, report=lifecycle)
    check_machines(machines, lifecycle)
    spent["lifecycle"] = _clock() - mark
    mark = _clock()
    model_report, _exploration = check_model(
        build_product(machines, modules)
    )
    spent["model"] = _clock() - mark
    for package_report in (lifecycle, model_report):
        if respect_pragmas:
            package_report = _apply_package_pragmas(package_report, modules)
        combined.extend(package_report)
    if timings is not None:
        timings.update(spent)
    return combined


def check_package(
    package: Path,
    base: Optional[Path] = None,
    baseline: Optional[Baseline] = None,
    codes: Optional[Sequence[str]] = None,
    respect_pragmas: bool = True,
    timings: Optional[Dict[str, float]] = None,
) -> Tuple[Report, int]:
    """Lint every module under ``package``.

    Returns ``(report, forgiven)`` where ``forgiven`` counts findings
    the ``baseline`` absorbed.  Baseline entries whose count exceeds
    the findings actually present are *stale* and reported as COS704 —
    a fixed finding must leave the ledger, not linger as a free pass
    for a future regression.  ``codes`` restricts the report to a
    code-spec selection (exact codes or ``COS5xx`` families) *after*
    pragmas and baseline are applied.
    """
    mark = _clock()
    modules = load_package(package, base)
    if timings is not None:
        timings["load"] = _clock() - mark
    report = check_modules(
        modules, respect_pragmas=respect_pragmas, timings=timings
    )
    forgiven = 0
    if baseline is not None:
        report, forgiven, stale = baseline.audit(report)
        for rel, code, leftover in stale:
            report.add(
                "COS704",
                f"baseline allows {leftover} more {code} finding(s) in "
                f"{rel} than the source still has — remove the entry "
                "(or lower its count)",
                rel,
                None,
            )
    if codes:
        report = Report(
            d for d in report if spec_matches(codes, d.code)
        )
    return report, forgiven
