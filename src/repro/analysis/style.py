"""COS7xx — source style rules.

The package's one lint, run by ``repro check --self`` under stable COS
codes through the same diagnostics machinery as every other family:

* **COS701** — mutable default argument: a ``def f(x=[])``
  default is created once and shared across calls; routing tables and
  profile lists silently accumulate state.
* **COS702** — bare ``except:`` catches
  ``KeyboardInterrupt`` and ``SystemExit`` too, hanging long-running
  broker loops.
* **COS703** — every module in the package imports
  ``from __future__ import annotations`` so forward references in the
  layered API stay cheap and consistent.
"""

from __future__ import annotations

import ast
from typing import Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.source import SourceModule

_MUTABLE_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


def _check_mutable_defaults(module: SourceModule, report: Report) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_NODES) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                report.add(
                    "COS701",
                    f"mutable default argument in {node.name}(); default "
                    f"to None and construct inside",
                    module.rel,
                    default.lineno,
                )


def _check_bare_excepts(module: SourceModule, report: Report) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            report.add(
                "COS702",
                "bare except: catches SystemExit/KeyboardInterrupt; name "
                "the exception class",
                module.rel,
                node.lineno,
            )


def _check_future_annotations(module: SourceModule, report: Report) -> None:
    if not module.text.strip():
        return
    for node in module.tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            if any(alias.name == "annotations" for alias in node.names):
                return
    report.add(
        "COS703",
        "missing 'from __future__ import annotations'",
        module.rel,
        1,
    )


def check_style(module: SourceModule) -> Report:
    """Run every COS7xx check over one module."""
    report = Report()
    _check_mutable_defaults(module, report)
    _check_bare_excepts(module, report)
    _check_future_annotations(module, report)
    return report
