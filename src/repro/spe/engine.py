"""A single-site continuous query engine.

The engine registers :class:`~repro.cql.ast.ContinuousQuery` ASTs and is
fed stream tuples (as :class:`~repro.cbn.datagram.Datagram`) in global
timestamp order; it returns result tuples per query.  Result tuples are
datagrams on the query's *result stream*: the payload keys are the
query's qualified output attribute names (``"O.itemID"``), which is the
schema the query layer advertises for result delivery through the CBN.

Supported query shapes (the fragment the paper's query layer targets):

* select-project over one windowed stream (stateless);
* select-project-join over n windowed streams (Lemma 1 semantics; a
  two-way join probes by the equijoin links of its own predicate);
* grouped/global aggregation over one windowed stream.

Join+aggregate in one query is not supported (the paper's experiments
never need it); registering one raises :class:`EngineError`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.cbn.datagram import Datagram
from repro.cql.ast import Aggregate, ContinuousQuery, QueryError
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.spe.operators import (
    AggregateSpec,
    Binding,
    GroupedAggregate,
    JoinInput,
    PayloadSelectProject,
    Project,
    Select,
    WindowJoin,
    equijoin_key_pairs,
)


class EngineError(Exception):
    """Raised for unsupported or malformed query registrations."""


class QueryResult(NamedTuple):
    """One result tuple produced by one registered query."""

    query_name: str
    datagram: Datagram


class _CompiledQuery:
    """Operator pipeline for one registered query."""

    def __init__(
        self,
        name: str,
        query: ContinuousQuery,
        catalog: Catalog,
        result_stream: str,
        keyed: bool,
    ) -> None:
        self.name = name
        self.query = query
        self.result_stream = result_stream
        #: stream name -> qualifier, for dispatching arrivals.
        self.inputs: Dict[str, str] = {
            ref.stream: ref.name for ref in query.streams
        }
        self._join: Optional[WindowJoin] = None
        self._select: Optional[Select] = None
        self._project: Optional[Project] = None
        #: the single-stream operators, compiled on their first tuple
        #: (registration is on the install path, renaming is not free)
        self._scan: Optional[PayloadSelectProject] = None
        self._aggregate: Optional[GroupedAggregate] = None
        self._aggregating = query.is_aggregate
        self._columns: Dict[str, str] = {}

        if self._aggregating:
            if len(query.streams) != 1:
                raise EngineError(
                    "aggregate queries over joins are not supported"
                )
        else:
            self._columns = {
                attr.key: attr.key for attr in query.projected_attributes(catalog)
            }
            if len(query.streams) > 1:
                self._join = self._build_join(query, keyed)
                self._select = Select(query.predicate)
                self._project = Project(self._columns)

    @staticmethod
    def _build_join(query: ContinuousQuery, keyed: bool) -> WindowJoin:
        """The query's join, keyed by what its own predicate links.

        A two-way join whose predicate equates attributes of its two
        inputs probes by those values; every other shape (and every
        join when ``keyed`` is off) scans.  Same Lemma 1 results in the
        same order either way.
        """
        inputs = [JoinInput(ref.name, ref.window.size) for ref in query.streams]
        pairs: Sequence[Tuple[str, str]] = ()
        if keyed and len(inputs) == 2:
            pairs = equijoin_key_pairs(
                query.predicate, inputs[0].qualifier, inputs[1].qualifier
            )
        return WindowJoin(inputs, pairs)

    @staticmethod
    def _build_aggregate(query: ContinuousQuery) -> GroupedAggregate:
        ref = query.streams[0]
        specs = [
            AggregateSpec(
                agg.func,
                agg.arg.key if agg.arg is not None else None,
                agg.name,
            )
            for agg in query.aggregates
        ]
        return GroupedAggregate(
            ref.name,
            ref.window.size,
            [attr.key for attr in query.group_by],
            specs,
            pre_filter=query.predicate,
        )

    def feed(self, stream: str, datagram: Datagram) -> List[Datagram]:
        qualifier = self.inputs.get(stream)
        if qualifier is None:
            return []
        if self._aggregating:
            aggregate = self._aggregate
            if aggregate is None:
                aggregate = self._aggregate = self._build_aggregate(self.query)
            rows = aggregate.process(datagram)
            return [
                Datagram.owning(self.result_stream, row, datagram.timestamp)
                for row in rows
            ]
        if self._join is None:
            scan = self._scan
            if scan is None:
                scan = self._scan = PayloadSelectProject(
                    qualifier, self.query.predicate, self._columns
                )
            row = scan.process(datagram)
            if row is None:
                return []
            return [Datagram.owning(self.result_stream, row, datagram.timestamp)]
        assert self._select is not None and self._project is not None
        out: List[Datagram] = []
        for binding in self._join.process(qualifier, datagram):
            selected = self._select.process(binding)
            if selected is None:
                continue
            row = self._project.process(selected)
            out.append(Datagram.owning(self.result_stream, row, datagram.timestamp))
        return out


class StreamProcessingEngine:
    """The pluggable single-site SPE.

    Parameters
    ----------
    catalog:
        Schemas of the source streams queries may reference.
    join_strategy:
        ``"indexed"`` (the default) keys every join by the equijoin
        links of its query; ``"nested"`` makes every join scan, which
        is the reference the differential tests compare against.  Kept
        only until ``bench/`` stops passing it (ROADMAP item 6).
    """

    def __init__(self, catalog: Catalog, join_strategy: str = "indexed") -> None:
        if join_strategy not in ("nested", "indexed"):
            raise EngineError(f"unknown join strategy {join_strategy!r}")
        self.catalog = catalog
        self._keyed = join_strategy == "indexed"
        self._queries: Dict[str, _CompiledQuery] = {}
        self._by_stream: Dict[str, List[_CompiledQuery]] = {}
        self._counter = itertools.count()
        self._last_timestamp: Optional[float] = None

    # -- registration ------------------------------------------------------------

    def register(
        self,
        query: ContinuousQuery,
        name: Optional[str] = None,
        result_stream: Optional[str] = None,
    ) -> str:
        """Register a continuous query; returns its engine-local name.

        ``result_stream`` defaults to ``"<name>:results"`` — the unique
        result-stream name the query layer advertises on the CBN.
        """
        if name is None:
            name = query.name or f"q{next(self._counter)}"
        if name in self._queries:
            raise EngineError(f"duplicate query name {name!r}")
        query.validate(self.catalog)
        if result_stream is None:
            result_stream = f"{name}:results"
        compiled = _CompiledQuery(
            name, query, self.catalog, result_stream, self._keyed
        )
        self._queries[name] = compiled
        for stream in compiled.inputs:
            self._by_stream.setdefault(stream, []).append(compiled)
        return name

    def deregister(self, name: str) -> None:
        compiled = self._queries.pop(name, None)
        if compiled is None:
            raise EngineError(f"unknown query {name!r}")
        for stream in compiled.inputs:
            self._by_stream[stream] = [
                c for c in self._by_stream[stream] if c.name != name
            ]

    @property
    def query_names(self) -> List[str]:
        return sorted(self._queries)

    def result_stream_of(self, name: str) -> str:
        try:
            return self._queries[name].result_stream
        except KeyError:
            raise EngineError(f"unknown query {name!r}") from None

    def result_schema_of(self, name: str) -> StreamSchema:
        """Schema of a registered query's result stream.

        Attribute metadata (type, domain) is copied from the source
        schemas so the cost model can price result streams too.
        """
        compiled = self._queries.get(name)
        if compiled is None:
            raise EngineError(f"unknown query {name!r}")
        return result_schema(
            compiled.query, self.catalog, compiled.result_stream
        )

    # -- execution ------------------------------------------------------------------

    def _advance_clock(self, timestamp: float) -> None:
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise EngineError(
                f"out-of-order tuple at {timestamp} "
                f"(last was {self._last_timestamp})"
            )
        self._last_timestamp = timestamp

    def push(self, datagram: Datagram) -> List[QueryResult]:
        """Feed one source tuple; returns all result tuples it produced.

        Tuples must arrive in non-decreasing timestamp order across all
        streams (the discrete-event layer guarantees this).
        """
        self._advance_clock(datagram.timestamp)
        results: List[QueryResult] = []
        for compiled in self._by_stream.get(datagram.stream, []):
            for out in compiled.feed(datagram.stream, datagram):
                results.append(QueryResult(compiled.name, out))
        return results

    def push_to(self, name: str, datagram: Datagram) -> List[Datagram]:
        """Feed one tuple to *one* registered query; returns its result
        tuples (on the query's result stream, so no query name rides
        along).

        Processors use this when the CBN delivers per-subscription
        copies of a source tuple: each query group's subscription
        carries its own early projection, so its copy must only reach
        that group's representative.
        """
        compiled = self._queries.get(name)
        if compiled is None:
            raise EngineError(f"unknown query {name!r}")
        self._advance_clock(datagram.timestamp)
        return compiled.feed(datagram.stream, datagram)

    def run(self, feed: Sequence[Datagram]) -> Dict[str, List[Datagram]]:
        """Convenience: push a whole timestamp-ordered feed.

        Returns result tuples grouped by query name.
        """
        out: Dict[str, List[Datagram]] = {name: [] for name in self._queries}
        for datagram in feed:
            for result in self.push(datagram):
                out[result.query_name].append(result.datagram)
        return out


def result_schema(
    query: ContinuousQuery, catalog: Catalog, stream_name: str
) -> StreamSchema:
    """Derive the result-stream schema of a query.

    SPJ output attributes keep the type/domain of their source
    attribute (named by their qualified key).  Aggregate outputs are
    floats except COUNT (int); grouping attributes keep their source
    metadata.  An output named twice (a repeated select item) is one
    attribute, as it is one column of the rows.
    """
    attributes: Dict[str, Attribute] = {}
    if query.is_aggregate:
        for attr in query.group_by:
            source = _source_attribute(query, catalog, attr.qualifier, attr.name)
            attributes.setdefault(attr.key, Attribute(
                attr.key, source.type, source.lo, source.hi, source.width
            ))
        for agg in query.aggregates:
            attr_type = "int" if agg.func == "count" else "float"
            attributes.setdefault(agg.name, Attribute(agg.name, attr_type))
    else:
        for attr in query.projected_attributes(catalog):
            source = _source_attribute(query, catalog, attr.qualifier, attr.name)
            attributes.setdefault(attr.key, Attribute(
                attr.key, source.type, source.lo, source.hi, source.width
            ))
    return StreamSchema(stream_name, list(attributes.values()), rate=1.0)


def _source_attribute(
    query: ContinuousQuery,
    catalog: Catalog,
    qualifier: Optional[str],
    name: str,
) -> Attribute:
    if qualifier is None:
        raise QueryError(f"unqualified attribute {name!r}")
    ref = query.stream_ref(qualifier)
    schema = catalog.get(ref.stream)
    if name == "timestamp" and not schema.has_attribute("timestamp"):
        # The implicit application timestamp every stream carries.
        return Attribute("timestamp", "timestamp")
    return schema.attribute(name)
