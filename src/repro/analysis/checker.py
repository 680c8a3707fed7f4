"""The analyzer entry points: check queries and workloads.

:func:`analyze_query` runs the per-query checks (COS1xx + COS2xx): the
errors ``submit`` refuses a query for
(:func:`repro.cql.ast.query_problems`) and the warnings only the
analyzer raises.  :func:`analyze_workload` runs them over a whole
workload — catalog plus query list — and checks the source profile of
each query that has no error (COS1xx + COS2xx on a CBN profile).

Everything is pure: no network, no SPE execution, no randomness beyond
the workload's own fixed seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.analysis.diagnostics import Report
from repro.analysis.satisfiability import (
    check_predicate,
    check_profile_filters,
)
from repro.analysis.schema import check_profile, check_query, source_name
from repro.core.profiles import ProfileCompositionError, source_profile
from repro.cql.ast import ContinuousQuery, QueryError
from repro.cql.parser import parse_query
from repro.cql.schema import Catalog
from repro.workload.auction import TABLE1_Q1, TABLE1_Q2, TABLE1_Q3, auction_catalog
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog


@dataclass
class Workload:
    """A named catalog + query list the analyzer can check end to end."""

    name: str
    catalog: Catalog
    queries: List[ContinuousQuery] = field(default_factory=list)


#: Names accepted by :func:`builtin_workload` (and ``repro check``).
BUILTIN_WORKLOADS = ("auction", "sensorscope")


def builtin_workload(name: str) -> Workload:
    """The repo's example workloads, built deterministically."""
    if name == "auction":
        catalog = auction_catalog()
        queries = [
            parse_query(TABLE1_Q1, name="q1"),
            parse_query(TABLE1_Q2, name="q2"),
            parse_query(TABLE1_Q3, name="q3"),
        ]
        return Workload(name, catalog, queries)
    if name == "sensorscope":
        catalog = sensorscope_catalog(8, rng=random.Random(7))
        generator = QueryWorkload(
            catalog,
            WorkloadConfig(skew=1.0, join_fraction=0.2, seed=7),
        )
        return Workload(name, catalog, generator.generate(20))
    raise ValueError(
        f"unknown workload {name!r}; expected one of {BUILTIN_WORKLOADS}"
    )


def analyze_query(query: ContinuousQuery, catalog: Catalog) -> Report:
    """Per-query checks: schema (COS1xx) then satisfiability (COS2xx).

    Satisfiability is skipped when schema errors are present — type
    checks against unknown attributes would only cascade.
    """
    report = check_query(query, catalog)
    if not report.errors:
        report.extend(check_predicate(query, catalog))
    return report


def analyze_workload(workload: Workload) -> Report:
    """The per-query and source-profile checks over one workload; see
    the module docstring."""
    report = Report()
    catalog = workload.catalog
    clean: List[ContinuousQuery] = []
    for query in workload.queries:
        per_query = analyze_query(query, catalog)
        report.extend(per_query)
        if not per_query.errors:
            clean.append(query)
    for query in clean:
        label = f"{source_name(query)}:source-profile"
        try:
            profile = source_profile(query, catalog)
        except (QueryError, ProfileCompositionError):
            continue  # self-joins etc.: no source profile to check
        report.extend(check_profile(profile, catalog, source=label))
        report.extend(check_profile_filters(profile, catalog, source=label))
    return report


def analyze_builtin(name: str) -> Report:
    """Convenience: :func:`analyze_workload` on a builtin workload."""
    return analyze_workload(builtin_workload(name))
