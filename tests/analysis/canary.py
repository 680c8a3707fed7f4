"""Planting defects in source text: what the analyzer's canary tests share.

The analyzer's entry points read the package from disk; a canary is a
module parsed from a string, checked by the per-module families (or the
lifecycle checks) as ``repro check --self`` would check the file.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Report
from repro.analysis.lifecycle import check_machines, extract_lifecycle
from repro.analysis.purity import check_purity
from repro.analysis.source import SourceError, SourceModule, apply_pragmas
from repro.analysis.style import check_style


def module_from_text(text: str, rel: str = "<module>") -> SourceModule:
    """A :class:`SourceModule` from a source string."""
    try:
        tree = ast.parse(text, filename=rel)
    except SyntaxError as exc:
        raise SourceError(f"cannot parse {rel}: {exc}") from exc
    return SourceModule(Path(rel), rel, text, tree)


def check_source_module(
    module: SourceModule,
    set_returning: Iterable[str] = (),
    respect_pragmas: bool = True,
) -> Report:
    """Every per-module source family over one module; the package-wide
    fact ``set_returning`` defaults to what the module itself declares."""
    report = Report()
    report.extend(check_purity(module, set_returning))
    report.extend(check_style(module))
    if respect_pragmas:
        report = apply_pragmas(report, module)
    return report


def check_lifecycle(modules: Sequence[SourceModule]) -> Report:
    """COS811/812/813 over a module set."""
    report = Report()
    return check_machines(extract_lifecycle(modules, report), report)
