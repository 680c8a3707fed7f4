"""Render a query AST back to CQL-like text.

The rendering round-trips through :func:`repro.cql.parser.parse_query`
(tested in ``tests/cql/test_roundtrip.py``), so a representative query
produced by the merging machinery prints as text a CQL engine accepts.
"""

from __future__ import annotations

from typing import List

from repro.cql.ast import Aggregate, ContinuousQuery, Star
from repro.cql.predicates import (
    Comparison,
    Conjunction,
    DifferenceConstraint,
    JoinPredicate,
)


def _render_value(value: object) -> str:
    if isinstance(value, str):
        return "'" + value + "'"
    return f"{value:g}" if isinstance(value, float) else str(value)


def render_condition(predicate: Conjunction) -> str:
    """Render a conjunction as a WHERE-clause body (or ``""`` for TRUE)."""
    parts: List[str] = []
    for atom in predicate.atoms():
        if isinstance(atom, Comparison):
            parts.append(f"{atom.term} {atom.op} {_render_value(atom.value)}")
        elif isinstance(atom, JoinPredicate):
            parts.append(f"{atom.left} = {atom.right}")
        elif isinstance(atom, DifferenceConstraint):
            iv = atom.interval
            diff = f"{atom.left} - {atom.right}"
            if iv.is_point:
                parts.append(f"{diff} = {_render_value(iv.lo)}")
                continue
            if iv.lo is not None:
                op = ">" if iv.lo_strict else ">="
                parts.append(f"{diff} {op} {_render_value(iv.lo)}")
            if iv.hi is not None:
                op = "<" if iv.hi_strict else "<="
                parts.append(f"{diff} {op} {_render_value(iv.hi)}")
    return " AND ".join(parts)


def to_cql(query: ContinuousQuery) -> str:
    """Render ``query`` as a single-line CQL-like statement."""
    select_parts: List[str] = []
    for item in query.select_items:
        if isinstance(item, Star):
            select_parts.append(f"{item.qualifier}.*")
        elif isinstance(item, Aggregate):
            select_parts.append(str(item))
        else:
            select_parts.append(item.key)
    from_parts = [str(ref) for ref in query.streams]
    text = f"SELECT {', '.join(select_parts)} FROM {', '.join(from_parts)}"
    condition = render_condition(query.predicate)
    if condition:
        text += f" WHERE {condition}"
    if query.group_by:
        text += " GROUP BY " + ", ".join(attr.key for attr in query.group_by)
    return text
