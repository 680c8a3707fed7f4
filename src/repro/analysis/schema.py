"""COS1xx: schema checks for queries and profiles.

Everything here resolves names against a :class:`Catalog` and never
executes anything.  A query's errors — unknown streams and attributes,
type-incompatible constraints — are the ones ``submit`` refuses it for
(:func:`repro.cql.ast.query_problems`); this module renders them and
adds the warning only the analyzer raises (COS104: unused projections
only waste bandwidth), and checks CBN profiles the same way.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.diagnostics import Report
from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.cql.ast import Aggregate, ContinuousQuery, Star, query_problems
from repro.cql.predicates import AttrRef, Conjunction, Interval
from repro.cql.schema import Catalog


def source_name(query: ContinuousQuery) -> str:
    """The diagnostic source label for a query."""
    return query.name if query.name else "<query>"


def attribute_domains(
    query: ContinuousQuery, catalog: Catalog
) -> Dict[str, Interval]:
    """Declared value domains of the query's terms, as solver seeds.

    Maps each qualified term (``"O.itemID"``) whose schema attribute
    declares a numeric ``lo``/``hi`` domain to the corresponding
    interval.  Streams or attributes missing from the catalog simply
    contribute nothing (the COS1xx checks report those).
    """
    seeds: Dict[str, Interval] = {}
    for ref in query.streams:
        if ref.stream not in catalog:
            continue
        for attr in catalog.get(ref.stream).attributes:
            if not attr.is_numeric:
                continue
            if attr.lo is None and attr.hi is None:
                continue
            seeds[f"{ref.name}.{attr.name}"] = Interval(attr.lo, attr.hi)
    return seeds


def _check_unused(
    query: ContinuousQuery,
    report: Report,
    source: str,
) -> None:
    """COS104: select-list duplicates and FROM entries nothing touches."""
    seen_items: Set[str] = set()
    for item in query.select_items:
        if isinstance(item, Star):
            label = f"{item.qualifier}.*"
        elif isinstance(item, AttrRef):
            label = item.key
        else:
            label = item.name
        if label in seen_items:
            report.add(
                "COS104",
                f"duplicate select item {label}: the result stream carries "
                "the attribute once; drop the repeated projection",
                source,
                getattr(item, "pos", None),
            )
        seen_items.add(label)
    if len(query.streams) < 2:
        return
    used: Set[str] = set()
    for item in query.select_items:
        if isinstance(item, Star):
            used.add(item.qualifier)
        elif isinstance(item, AttrRef) and item.qualifier is not None:
            used.add(item.qualifier)
        elif isinstance(item, Aggregate) and item.arg is not None:
            if item.arg.qualifier is not None:
                used.add(item.arg.qualifier)
    for attr in query.group_by:
        if attr.qualifier is not None:
            used.add(attr.qualifier)
    for term in query.predicate.referenced_terms():
        qualifier = AttrRef.parse(term).qualifier
        if qualifier is not None:
            used.add(qualifier)
    for ref in query.streams:
        if ref.name not in used:
            report.add(
                "COS104",
                f"stream reference {ref.name!r} is joined but never "
                "projected or constrained: the join degenerates to a "
                "cartesian product",
                source,
                ref.pos,
            )


def check_query(query: ContinuousQuery, catalog: Catalog) -> Report:
    """All COS1xx checks for one query against ``catalog``: the name and
    type errors of :func:`~repro.cql.ast.query_problems` (the ones
    ``submit`` refuses), then the COS104 warnings."""
    report = Report()
    source = source_name(query)
    for problem in query_problems(query, catalog):
        if problem.code.startswith("COS1"):
            report.add(problem.code, problem.message, source, problem.pos)
    _check_unused(query, report, source)
    return report


def check_profile(
    profile: Profile, catalog: Catalog, source: str = "<profile>"
) -> Report:
    """COS1xx checks for one CBN data-interest profile."""
    report = Report()
    for stream in sorted(profile.streams):
        if stream not in catalog:
            report.add(
                "COS101",
                f"profile subscribes to unknown stream {stream!r}",
                source,
            )
            continue
        schema = catalog.get(stream)
        projection = profile.projection_for(stream)
        if projection != ALL_ATTRIBUTES:
            for name in sorted(projection):
                if not schema.has_attribute(name):
                    report.add(
                        "COS102",
                        f"profile projects unknown attribute {name!r} "
                        f"of stream {stream!r}",
                        source,
                    )
        for filt in profile.filters_for(stream):
            condition: Conjunction = filt.condition
            for term in sorted(condition.referenced_terms()):
                if not schema.has_attribute(term):
                    report.add(
                        "COS102",
                        f"filter constrains unknown attribute {term!r} "
                        f"of stream {stream!r}",
                        source,
                    )
                    continue
                attr = schema.attribute(term)
                interval = condition.intervals.get(term)
                bounds = [] if interval is None else [interval.lo, interval.hi]
                bounds.extend(condition.excluded.get(term, ()))
                for value in bounds:
                    if value is None:
                        continue
                    if attr.is_numeric and isinstance(value, str):
                        report.add(
                            "COS103",
                            f"filter compares {attr.type!r} attribute "
                            f"{term!r} against string {value!r}",
                            source,
                        )
                        break
                    if not attr.is_numeric and not isinstance(value, str):
                        report.add(
                            "COS103",
                            f"filter compares {attr.type!r} attribute "
                            f"{term!r} against number {value!r}",
                            source,
                        )
                        break
    return report
