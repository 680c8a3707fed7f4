"""Result-stream rate estimation: the C(q) of section 4.

The benefit of rewriting a query group into one representative query is
estimated as ``sum_i C(q_i) - C(q)`` where ``C(q)`` is the estimated
rate (bytes per second) of the result stream of ``q``.  This module
implements that estimator with textbook System-R style assumptions:

* attribute values uniform over the schema-declared domain;
* independent predicates (selectivities multiply);
* equijoin selectivity ``1 / max(V(a), V(b))`` over the attributes'
  domain sizes;
* a window join of streams with (filtered) arrival rates ``r_i`` and
  window sizes ``T_i`` produces ``(prod_i r_i) * (sum_i prod_{j != i}
  T_j) * join_selectivity`` result tuples per second (every arrival on
  stream *i* meets the windowed contents of the other streams).

``[Now]`` windows are priced with an epsilon (:data:`NOW_EPSILON`:
tuples are simultaneous within one application tick) and unbounded
windows are capped at a horizon (:data:`HORIZON`) so estimates stay
finite.

:meth:`CostModel.group_flows` turns those rates into the flows of a
query group hosted at one node — the one enumeration that placement,
migration, the overlay optimizer and Figure 4 price (DESIGN.md section
11).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cql.ast import ContinuousQuery, QueryError, StreamRef
from repro.cql.predicates import AttrRef, Conjunction, Interval
from repro.cql.schema import Attribute, Catalog, SchemaError
from repro.overlay.topology import NodeId
from repro.overlay.tree import Demand


#: Effective size (seconds) of a ``[Now]`` window: tuples count as
#: simultaneous within one application tick.
NOW_EPSILON = 1.0
#: Cap (seconds) applied to unbounded windows.
HORIZON = 86400.0
#: Selectivity of an equality on an attribute without a declared finite
#: domain.
DEFAULT_EQUALITY_SELECTIVITY = 0.01
#: Wire width of the implicit per-stream timestamp attribute.
DEFAULT_TIMESTAMP_WIDTH = 8


class CostModel:
    """Estimator for result-stream rates (bytes/second).

    Its estimates read the module constants above (at call time, so a
    test substitutes one with ``monkeypatch.setattr``).
    """

    # -- public API -------------------------------------------------------------

    def result_rate(self, query: ContinuousQuery, catalog: Catalog) -> float:
        """Estimated bytes/second of the result stream of ``query``."""
        return self.stream_rate(
            query.streams,
            query.predicate,
            self._columns(query, catalog),
            len(query.aggregates),
            catalog,
        )

    def stream_rate(
        self,
        streams: Sequence[StreamRef],
        predicate: Conjunction,
        columns: Sequence[AttrRef],
        aggregates: int,
        catalog: Catalog,
    ) -> float:
        """Bytes/second of a result stream: the one pricing routine.

        Tuples/second from the FROM list and the predicate, times the
        wire width of ``columns`` (the projected attributes, or an
        aggregate's grouping attributes) plus 8 bytes per aggregate.
        :meth:`result_rate` is this call on a built query and
        :meth:`repro.core.merging.MergePlan.rate` on a plan before it is
        built, so a candidate representative's price is the same float
        as the price of the query built from it.
        """
        tuple_rate = self._tuple_rate(streams, predicate, aggregates > 0, catalog)
        width = self._width(streams, columns, aggregates, catalog)
        return tuple_rate * width

    def column_widths(
        self, query: ContinuousQuery, catalog: Catalog
    ) -> Dict[str, float]:
        """Wire width of each distinct result column of ``query``, by term
        (the columns :meth:`result_rate` prices, without the aggregate
        values)."""
        return {
            attr.key: self._attribute_width(query.streams, attr, catalog)
            for attr in self._columns(query, catalog)
        }

    def merge_floor(
        self,
        streams: Sequence[StreamRef],
        predicate: Conjunction,
        columns: Iterable[Mapping[str, float]],
        aggregates: int,
        catalog: Catalog,
    ) -> float:
        """A floor under the price of a representative before it is planned.

        The tuple rate of ``streams`` (the merged windows) under
        ``predicate`` (the hull) times the width of the union of the
        members' :meth:`column_widths`, plus 8 bytes per aggregate.  The
        plan over the same streams and hull carries at least those
        columns, so its :meth:`stream_rate` is never below this, float
        for float: the tuple rate is the same float, the union's width is
        an exact partial sum of the plan's whole-number widths, and IEEE
        rounding is monotone.
        """
        union: Dict[str, float] = {}
        for widths in columns:
            union.update(widths)
        tuple_rate = self._tuple_rate(streams, predicate, aggregates > 0, catalog)
        return tuple_rate * (sum(union.values()) + 8.0 * aggregates)

    def source_flow_rate(
        self, query: ContinuousQuery, stream: str, catalog: Catalog
    ) -> float:
        """Bytes/second of one source flow feeding ``query``.

        The flow is filtered by the query's single-stream selections and
        projected to the attributes the query references on that stream
        (what a source profile admits — also what placement-optimised
        unicast systems ship).
        """
        canonical = query.canonical(catalog)
        schema = catalog.get(stream)
        selectivity = self.stream_selectivity(
            canonical.predicate.closure(), stream, stream, catalog
        )
        needed = {
            attr.name
            for attr in canonical.projected_attributes(catalog)
            if attr.qualifier == stream and schema.has_attribute(attr.name)
        }
        for term in canonical.predicate.referenced_terms():
            qualifier, __, name = term.partition(".")
            if qualifier == stream and schema.has_attribute(name):
                needed.add(name)
        return schema.rate * selectivity * schema.width_of(needed)

    def group_flows(
        self,
        representative: ContinuousQuery,
        members: Iterable[Tuple[ContinuousQuery, NodeId]],
        sources: Mapping[str, NodeId],
        node: NodeId,
        catalog: Catalog,
    ) -> List[Demand]:
        """The flows of a query group hosted at ``node``.

        First the representative's pulls: every stream in its FROM list
        that has a node in ``sources`` flows from there to ``node`` at
        :meth:`source_flow_rate` (filtered and projected — the group's
        source profile).  Then, in order, every ``(member, user)`` pair
        pushes the member's :meth:`result_rate` from ``node`` to
        ``user``.  A lone query is the group of one that represents
        itself.
        """
        representative = representative.canonical(catalog)
        flows: List[Demand] = []
        for ref in representative.streams:
            source = sources.get(ref.stream)
            if source is not None:
                rate = self.source_flow_rate(representative, ref.stream, catalog)
                flows.append((source, node, rate))
        for member, user in members:
            rate = self.result_rate(member.canonical(catalog), catalog)
            flows.append((node, user, rate))
        return flows

    # -- components ------------------------------------------------------------------

    def effective_window(self, size: float) -> float:
        """Window size as priced by the model (epsilon/horizon applied)."""
        if math.isinf(size):
            return HORIZON
        return max(size, NOW_EPSILON)

    def stream_selectivity(
        self,
        predicate: Conjunction,
        qualifier: str,
        stream: str,
        catalog: Catalog,
    ) -> float:
        """Combined selectivity of per-attribute constraints on one stream.

        Only interval/exclusion constraints on ``qualifier``-prefixed
        terms participate; join predicates are priced separately.
        """
        schema = catalog.get(stream)
        selectivity = 1.0
        prefix = f"{qualifier}."
        for term, interval in predicate.intervals.items():
            if not term.startswith(prefix):
                continue
            attr_name = term[len(prefix):]
            attribute = self._lookup_attribute(schema, attr_name)
            selectivity *= self.interval_selectivity(interval, attribute)
        for term, excluded in predicate.excluded.items():
            if not term.startswith(prefix):
                continue
            attr_name = term[len(prefix):]
            attribute = self._lookup_attribute(schema, attr_name)
            eq = self.equality_selectivity(attribute)
            selectivity *= max(0.0, 1.0 - eq * len(excluded))
        return selectivity

    def interval_selectivity(
        self, interval: Interval, attribute: Optional[Attribute]
    ) -> float:
        """Fraction of an attribute's domain an interval admits."""
        if interval.is_empty:
            return 0.0
        if interval.is_point:
            return self.equality_selectivity(attribute)
        if (
            attribute is None
            or attribute.lo is None
            or attribute.hi is None
            or not attribute.is_numeric
        ):
            # Unknown domain: half per bounded side, textbook default.
            bounded_sides = (interval.lo is not None) + (interval.hi is not None)
            return 0.5 ** bounded_sides
        domain_lo, domain_hi = attribute.lo, attribute.hi
        length = domain_hi - domain_lo
        if length <= 0:
            return 1.0
        lo = domain_lo if interval.lo is None else max(interval.lo, domain_lo)
        hi = domain_hi if interval.hi is None else min(interval.hi, domain_hi)
        if isinstance(lo, str) or isinstance(hi, str):
            return 1.0
        if hi <= lo:
            # Degenerate overlap: at most a point of a continuous domain.
            return self.equality_selectivity(attribute) if hi == lo else 0.0
        return (hi - lo) / length

    def equality_selectivity(self, attribute: Optional[Attribute]) -> float:
        """Selectivity of ``attr = constant``."""
        size = self._domain_size(attribute)
        if size is None:
            return DEFAULT_EQUALITY_SELECTIVITY
        return 1.0 / size

    # -- helpers --------------------------------------------------------------------------

    def _tuple_rate(
        self,
        streams: Sequence[StreamRef],
        predicate: Conjunction,
        aggregate: bool,
        catalog: Catalog,
    ) -> float:
        closed = predicate.closure()
        filtered_rates: List[float] = []
        windows: List[float] = []
        for ref in streams:
            schema = catalog.get(ref.stream)
            sel = self.stream_selectivity(closed, ref.name, ref.stream, catalog)
            filtered_rates.append(schema.rate * sel)
            windows.append(self.effective_window(ref.window.size))
        if aggregate:
            # One updated group row per qualifying arrival.
            return filtered_rates[0]
        if len(streams) == 1:
            return filtered_rates[0]
        join_sel = self._join_selectivity(streams, predicate, catalog)
        rate_product = math.prod(filtered_rates)
        window_sum = 0.0
        for i in range(len(windows)):
            others = math.prod(w for j, w in enumerate(windows) if j != i)
            window_sum += others
        return rate_product * window_sum * join_sel

    def _width(
        self,
        streams: Sequence[StreamRef],
        columns: Sequence[AttrRef],
        aggregates: int,
        catalog: Catalog,
    ) -> float:
        width = 0.0
        for attr in columns:
            width += self._attribute_width(streams, attr, catalog)
        if aggregates:
            width += 8.0 * aggregates
        return width

    @staticmethod
    def _columns(query: ContinuousQuery, catalog: Catalog) -> Sequence[AttrRef]:
        """The attributes a result tuple of ``query`` carries."""
        if query.is_aggregate:
            return query.group_by
        return query.projected_attributes(catalog)

    def _join_selectivity(
        self,
        streams: Sequence[StreamRef],
        predicate: Conjunction,
        catalog: Catalog,
    ) -> float:
        selectivity = 1.0
        for a, b in predicate.links:
            size_a = self._term_domain_size(streams, a, catalog)
            size_b = self._term_domain_size(streams, b, catalog)
            sizes = [s for s in (size_a, size_b) if s is not None]
            if sizes:
                selectivity *= 1.0 / max(sizes)
            else:
                selectivity *= DEFAULT_EQUALITY_SELECTIVITY
        return selectivity

    def _attribute_width(
        self, streams: Sequence[StreamRef], attr: AttrRef, catalog: Catalog
    ) -> float:
        if attr.qualifier is None:
            return float(DEFAULT_TIMESTAMP_WIDTH)
        schema = catalog.get(_stream_of(streams, attr.qualifier))
        attribute = self._lookup_attribute(schema, attr.name)
        if attribute is None:
            return float(DEFAULT_TIMESTAMP_WIDTH)
        return float(attribute.byte_width)

    def _term_domain_size(
        self, streams: Sequence[StreamRef], term: str, catalog: Catalog
    ) -> Optional[float]:
        attr = AttrRef.parse(term)
        if attr.qualifier is None:
            return None
        try:
            schema = catalog.get(_stream_of(streams, attr.qualifier))
        except Exception:
            return None
        return self._domain_size(self._lookup_attribute(schema, attr.name))

    @staticmethod
    def _lookup_attribute(schema, name: str) -> Optional[Attribute]:
        if schema.has_attribute(name):
            return schema.attribute(name)
        if name == "timestamp":
            return Attribute("timestamp", "timestamp")
        return None

    @staticmethod
    def _domain_size(attribute: Optional[Attribute]) -> Optional[float]:
        if attribute is None or attribute.lo is None or attribute.hi is None:
            return None
        if not attribute.is_numeric:
            return None
        if attribute.type == "int":
            return float(int(attribute.hi) - int(attribute.lo) + 1)
        return None


def _stream_of(streams: Sequence[StreamRef], qualifier: str) -> str:
    """The stream a FROM list names ``qualifier`` (cf.
    :meth:`ContinuousQuery.stream_ref`)."""
    for ref in streams:
        if ref.name == qualifier:
            return ref.stream
    raise QueryError(f"query has no stream reference named {qualifier!r}")
