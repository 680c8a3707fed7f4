"""Static analysis for COSMOS workloads (``repro check``).

Two check families over a workload, each with stable diagnostic codes:

* ``COS1xx`` — schema: unknown streams/attributes, type clashes,
  unused projections (:mod:`repro.analysis.schema`).
* ``COS2xx`` — satisfiability: unsatisfiable or vacuous predicates,
  filters outside declared attribute domains
  (:mod:`repro.analysis.satisfiability`, asking the solver of
  :mod:`repro.cql.predicates`).

Their errors are the ones ``submit`` refuses a query for
(:func:`repro.cql.ast.query_problems`); the analyzer renders them and
adds the warnings.

Four further families lint the package's *own source* instead of a
workload (``repro check --self``):

* ``COS5xx`` — determinism hazards: entropy, wall clocks, unordered
  set iteration into ordered sinks, ``id()`` identity
  (:mod:`repro.analysis.purity`).
* ``COS7xx`` — style: mutable default arguments, bare ``except``,
  missing ``from __future__ import annotations``
  (:mod:`repro.analysis.style`), the package's one lint.
* ``COS81x`` — the lifecycle tables the runtime runs, read from the
  source (:mod:`repro.analysis.lifecycle`: unreachable/unproduced/stuck
  states); ``repro flow`` dumps them as JSON/DOT.
* ``COS9xx`` — bounded model checking: the extracted machines composed
  with an explicit environment automaton into a product automaton and
  exhaustively explored (:mod:`repro.analysis.model`: tuple loss after
  the close barrier, deadlock, livelock, cross-machine invariants),
  plus chaos-corpus coverage of the model's reachable transitions
  (:mod:`repro.analysis.modelcov`, ``repro model --coverage``).

The driver (:mod:`repro.analysis.selfcheck`) unifies them behind
pragmas (``# cos: disable=...``), a checked-in baseline, and the
``--code``/``--json`` CLI surface.

The checker is pure: it never publishes data or runs the SPE.
"""

from __future__ import annotations

from repro.analysis.checker import (
    BUILTIN_WORKLOADS,
    Workload,
    analyze_builtin,
    analyze_query,
    analyze_workload,
    builtin_workload,
)
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticError,
    Report,
    Severity,
)
from repro.analysis.lifecycle import (
    StateMachine,
    TableSpec,
    Transition,
    check_machines,
    extract_lifecycle,
)
from repro.analysis.model import (
    Exploration,
    ProductModel,
    build_product,
    check_model,
    explore,
    model_summary,
    product_dot,
)
from repro.analysis.modelcov import (
    MachineCoverage,
    check_coverage,
    coverage,
    default_coverage_baseline,
    load_corpus,
    summarize,
    transition_key,
)
from repro.analysis.satisfiability import (
    check_filter,
    check_predicate,
    check_profile_filters,
)
from repro.analysis.purity import check_purity, collect_set_returning
from repro.analysis.schema import check_profile, check_query
from repro.analysis.selfcheck import (
    check_modules,
    check_package,
    default_baseline_path,
    default_package_dir,
)
from repro.analysis.source import (
    Baseline,
    PragmaIndex,
    SourceError,
    SourceModule,
    apply_pragmas,
    load_package,
    load_source,
    parse_code_spec,
    spec_matches,
)
from repro.analysis.style import check_style
from repro.cql.predicates import ConstraintSystem, implies

__all__ = [
    "Baseline",
    "PragmaIndex",
    "SourceError",
    "SourceModule",
    "apply_pragmas",
    "check_coverage",
    "check_machines",
    "check_model",
    "check_modules",
    "check_package",
    "check_purity",
    "check_style",
    "collect_set_returning",
    "coverage",
    "build_product",
    "explore",
    "extract_lifecycle",
    "default_baseline_path",
    "default_coverage_baseline",
    "default_package_dir",
    "load_corpus",
    "load_package",
    "load_source",
    "model_summary",
    "product_dot",
    "summarize",
    "transition_key",
    "parse_code_spec",
    "spec_matches",
    "BUILTIN_WORKLOADS",
    "CODES",
    "ConstraintSystem",
    "Diagnostic",
    "DiagnosticError",
    "Exploration",
    "MachineCoverage",
    "ProductModel",
    "Report",
    "Severity",
    "StateMachine",
    "TableSpec",
    "Transition",
    "Workload",
    "analyze_builtin",
    "analyze_query",
    "analyze_workload",
    "builtin_workload",
    "check_filter",
    "check_predicate",
    "check_profile",
    "check_profile_filters",
    "check_query",
    "implies",
]
