"""COS2xx: satisfiability checks for predicates, filters and profiles.

Every check asks the one decision procedure of
:mod:`repro.cql.predicates` — the solved form behind
``Conjunction.is_satisfiable`` / ``implies`` —
seeded with declared schema attribute domains where "can this ever
match real data?" is the question.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.diagnostics import Report
from repro.analysis.schema import attribute_domains, source_name
from repro.cbn.filters import Filter, Profile
from repro.cql.ast import ContinuousQuery, query_problems, raw_atoms
from repro.cql.predicates import (
    Atom,
    ConstraintSystem,
    Interval,
    atom_terms,
    vacuous_atoms,
)
from repro.cql.schema import Catalog, StreamSchema


def schema_seed(schema: StreamSchema) -> Dict[str, Interval]:
    """Declared domains of one stream's attributes, keyed by flat name."""
    seeds: Dict[str, Interval] = {}
    for attr in schema.attributes:
        if attr.is_numeric and (attr.lo is not None or attr.hi is not None):
            seeds[attr.name] = Interval(attr.lo, attr.hi)
    return seeds


def _term_pos(atoms: Sequence[Atom], term: str) -> Optional[int]:
    """Source offset of the first atom mentioning ``term``."""
    for atom in atoms:
        if term in atom_terms(atom):
            return getattr(atom, "pos", None)
    return None


def check_predicate(query: ContinuousQuery, catalog: Catalog) -> Report:
    """COS201/202/204 for one query's WHERE clause: the error ``submit``
    refuses (:func:`~repro.cql.ast.query_problems`), then the warnings
    that do not decide admission."""
    report = Report()
    source = source_name(query)
    conj = query.predicate
    if conj.is_true:
        return report
    problems = query_problems(query, catalog)
    for problem in problems:
        if problem.code == "COS201":
            report.add(problem.code, problem.message, source, problem.pos)
            return report
    if problems:
        return report  # a name or type error: the domains would only cascade
    atoms = raw_atoms(query)
    first_pos = next((atom.pos for atom in atoms if atom.pos is not None), None)
    seeds = attribute_domains(query, catalog)
    domain_clean = True
    if seeds:
        for term, interval in conj.intervals.items():
            domain = seeds.get(term)
            if domain is not None and interval.intersect(domain).is_empty:
                domain_clean = False
                report.add(
                    "COS204",
                    f"constraint {term} in {interval} lies outside the "
                    f"declared domain {domain}; no datagram can match",
                    source,
                    _term_pos(atoms, term),
                )
        if domain_clean and not ConstraintSystem(conj, seeds).satisfiable:
            domain_clean = False
            report.add(
                "COS204",
                "WHERE clause is unsatisfiable within the declared "
                "attribute domains; no datagram can match",
                source,
                first_pos,
            )
    if domain_clean and len(atoms) >= 2:
        for atom in vacuous_atoms(atoms, seeds):
            report.add(
                "COS202",
                f"conjunct {atom} is implied by the rest of the WHERE "
                "clause (and the declared domains); it never filters "
                "anything",
                source,
                getattr(atom, "pos", None),
            )
    return report


def check_filter(
    filt: Filter, catalog: Catalog, source: str = "<filter>"
) -> Report:
    """COS201/204 for one CBN filter against its stream's schema."""
    report = Report()
    if filt.condition.is_true:
        return report
    system = filt.condition.solved()
    if not system.satisfiable:
        report.add(
            "COS201",
            f"filter on stream {filt.stream!r} can never match: "
            f"{system.unsat_reason}",
            source,
        )
        return report
    if filt.stream in catalog:
        seeds = schema_seed(catalog.get(filt.stream))
        if seeds and not ConstraintSystem(filt.condition, seeds).satisfiable:
            report.add(
                "COS204",
                f"filter on stream {filt.stream!r} is unsatisfiable "
                "within the declared attribute domains; no datagram can "
                "match",
                source,
            )
    return report


def check_profile_filters(
    profile: Profile, catalog: Catalog, source: str = "<profile>"
) -> Report:
    """COS2xx checks over every filter of one profile."""
    report = Report()
    for filt in profile.filters:
        report.extend(check_filter(filt, catalog, source))
    return report
