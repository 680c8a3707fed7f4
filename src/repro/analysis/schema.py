"""COS1xx: schema checks for queries and profiles.

Everything here resolves names against a :class:`Catalog` and never
executes anything: unknown streams and attributes are errors (the CBN
would reject or, worse, silently never match them), type-incompatible
constraints are errors (a numeric attribute compared against a string
can never hold), unused projections are warnings (they only waste
bandwidth).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.cql.ast import Aggregate, ContinuousQuery, Star, Unresolved
from repro.cql.predicates import (
    Atom,
    AttrRef,
    Comparison,
    Conjunction,
    DifferenceConstraint,
    Interval,
    JoinPredicate,
)
from repro.cql.schema import Attribute, Catalog


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


#: the diagnostic for each kind of unresolved reference; an unknown
#: stream is reported once, on its FROM entry
_UNRESOLVED_CODES = {"unqualified": "COS105", "qualifier": "COS101", "attribute": "COS102"}


def _resolve(
    query: ContinuousQuery,
    attr: AttrRef,
    catalog: Catalog,
    report: Report,
    source: str,
    seen: Set[Tuple[Optional[str], str]],
) -> Optional[Attribute]:
    """Resolve one attribute reference (:meth:`ContinuousQuery.resolve`),
    reporting at most one diagnostic per distinct reference."""
    resolved = query.resolve(attr, catalog)
    if not isinstance(resolved, Unresolved):
        return resolved
    key = (attr.qualifier, attr.name)
    code = _UNRESOLVED_CODES.get(resolved.kind)
    if code is not None and key not in seen:
        seen.add(key)
        report.add(code, resolved.message, source, attr.pos)
    return None


def raw_atoms(query: ContinuousQuery) -> List[Atom]:
    """WHERE atoms as written when provenance exists, else reconstructed."""
    if query.source is not None and query.source.where_atoms:
        return list(query.source.where_atoms)
    return query.predicate.atoms()


def _ref(term: str, pos: Optional[int]) -> AttrRef:
    """An :class:`AttrRef` for ``term`` carrying the atom's position."""
    parsed = AttrRef.parse(term)
    return AttrRef(parsed.qualifier, parsed.name, pos)


def _check_atom_types(
    query: ContinuousQuery,
    catalog: Catalog,
    report: Report,
    source: str,
    seen: Set[Tuple[Optional[str], str]],
) -> None:
    """COS103: constraints that no value of the attribute's type satisfies."""
    for atom in raw_atoms(query):
        if isinstance(atom, Comparison):
            attr = _resolve(query, _ref(atom.term, atom.pos), catalog, report, source, seen)
            if attr is None:
                continue
            if attr.is_numeric and isinstance(atom.value, str):
                report.add(
                    "COS103",
                    f"{atom.term} has type {attr.type!r} but is compared "
                    f"against string {atom.value!r}",
                    source,
                    atom.pos,
                )
            elif not attr.is_numeric and not isinstance(atom.value, str):
                report.add(
                    "COS103",
                    f"{atom.term} has type {attr.type!r} but is compared "
                    f"against number {atom.value!r}",
                    source,
                    atom.pos,
                )
        elif isinstance(atom, JoinPredicate):
            left = _resolve(query, _ref(atom.left, atom.pos), catalog, report, source, seen)
            right = _resolve(query, _ref(atom.right, atom.pos), catalog, report, source, seen)
            if left is None or right is None:
                continue
            if left.is_numeric != right.is_numeric:
                report.add(
                    "COS103",
                    f"equijoin {atom.left} = {atom.right} mixes types "
                    f"{left.type!r} and {right.type!r}",
                    source,
                    atom.pos,
                )
        elif isinstance(atom, DifferenceConstraint):
            for term in (atom.left, atom.right):
                attr = _resolve(query, _ref(term, atom.pos), catalog, report, source, seen)
                if attr is not None and not attr.is_numeric:
                    report.add(
                        "COS103",
                        f"difference constraint on non-numeric attribute "
                        f"{term} (type {attr.type!r})",
                        source,
                        atom.pos,
                    )


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
    """All COS1xx checks for one query against ``catalog``."""
    report = Report()
    source = source_name(query)
    for ref in query.streams:
        if ref.stream not in catalog:
            report.add(
                "COS101",
                f"unknown stream {ref.stream!r} "
                f"(catalog has: {', '.join(catalog.stream_names)})",
                source,
                ref.pos,
            )
    seen: Set[Tuple[Optional[str], str]] = set()
    for item in query.select_items:
        if isinstance(item, Star):
            resolved = query.resolve_qualifier(item.qualifier, catalog)
            if isinstance(resolved, Unresolved) and resolved.kind == "qualifier":
                report.add("COS101", resolved.message, source, item.pos)
        elif isinstance(item, AttrRef):
            _resolve(query, item, catalog, report, source, seen)
        elif isinstance(item, Aggregate):
            if item.arg is not None:
                attr = _resolve(query, item.arg, catalog, report, source, seen)
                if attr is not None and item.func in ("sum", "avg") and not attr.is_numeric:
                    report.add(
                        "COS103",
                        f"{item.func.upper()} over non-numeric attribute "
                        f"{item.arg.key} (type {attr.type!r})",
                        source,
                        item.pos,
                    )
    for attr in query.group_by:
        _resolve(query, attr, catalog, report, source, seen)
    # Atoms first: they carry source positions, and the dedup set keeps
    # the first (positioned) diagnostic per distinct reference.
    _check_atom_types(query, catalog, report, source, seen)
    for term in query.predicate.referenced_terms():
        _resolve(query, AttrRef.parse(term), catalog, report, source, seen)
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
