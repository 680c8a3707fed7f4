"""Floor-then-price grouping against the build-then-price loop it replaced.

``GroupingOptimizer.add`` floors every compatible group's candidate
(``CostModel.merge_floor``), prices the survivors from their
:class:`~repro.core.merging.MergePlan` and builds only the winner's
representative.  :class:`BuildThenPrice` is the loop that was there
before, kept as the oracle: the structural pre-check, a complete
representative per candidate, and ``CostModel.result_rate`` of what was
built.  Over seeded populations — zipf and uniform draws, joins,
aggregates, aliased FROM lists and ``S.*`` projections — and interleaved
``add`` / ``remove`` / ``reoptimize`` steps, both must make the same
decisions and hold the same groups, members and representatives, with
bit-identical representative rates.  The floor must never exceed a
plan's price, and must rule out most candidates before they are planned.
"""

import random

import pytest

from repro.core import grouping
from repro.core.cost import CostModel
from repro.core.grouping import GroupingDecision, GroupingOptimizer
from repro.core.merging import (
    MergeError,
    merge_plan,
    merged_streams,
    mergeable,
    representative,
)
from repro.cql.ast import ContinuousQuery, Star, StreamRef
from repro.cql.predicates import AttrRef
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog


class BuildThenPrice(GroupingOptimizer):
    """The incremental greedy as it was: build, then price, every
    candidate the structural check admits."""

    def add(self, query):
        if query.name is None:
            raise ValueError("queries must be named before grouping")
        if query.name in self._group_of_query:
            raise ValueError(f"duplicate query name {query.name!r}")
        query = query.canonical(self.catalog)
        query_rate = self.cost_model.result_rate(query, self.catalog)
        best_delta = self.merge_threshold
        best = None
        for group in list(self._groups.values()):
            # every live group, not the index bucket: the oracle does not
            # trust the structure key
            if not mergeable(group.representative, query, self.catalog):
                continue
            try:
                candidate = representative(
                    [group.representative, query],
                    self.catalog,
                    name=f"{group.group_id}:rep",
                    verify=False,
                )
            except MergeError:
                continue
            candidate_rate = self.cost_model.result_rate(candidate, self.catalog)
            delta = group.representative_rate + query_rate - candidate_rate
            if delta > best_delta:
                best_delta = delta
                best = (group, candidate, candidate_rate)
        if best is not None:
            group, candidate, candidate_rate = best
            group.members.append(query)
            group.representative = candidate
            group.representative_rate = candidate_rate
            self._group_of_query[query.name] = group.group_id
            return GroupingDecision(query, group, False, best_delta)
        widths = self.cost_model.column_widths(query, self.catalog)
        group = self._new_group(query, query_rate, widths)
        return GroupingDecision(query, group, True, 0.0)


def disguised(query, rng):
    """``query`` as a user might write it: sometimes every stream under
    an alias, sometimes a single-stream projection as ``S.*``."""
    if rng.random() < 0.3 and not query.is_aggregate and len(query.streams) == 1:
        query = ContinuousQuery(
            (Star(query.streams[0].name),),
            query.streams,
            query.predicate,
            query.group_by,
            query.name,
        )
    if rng.random() < 0.4:
        alias = {ref.stream: f"a{index}" for index, ref in enumerate(query.streams)}

        def rename(attr):
            return AttrRef(alias[attr.qualifier], attr.name)

        select = []
        for item in query.select_items:
            if isinstance(item, Star):
                select.append(Star(alias[item.qualifier]))
            elif isinstance(item, AttrRef):
                select.append(rename(item))
            else:
                select.append(type(item)(item.func, rename(item.arg), item.output_name))
        terms = {
            term: f"{alias[term.partition('.')[0]]}.{term.partition('.')[2]}"
            for term in query.predicate.referenced_terms()
        }
        query = ContinuousQuery(
            tuple(select),
            tuple(StreamRef(ref.stream, ref.window, alias[ref.stream]) for ref in query.streams),
            query.predicate.rename(terms),
            tuple(rename(attr) for attr in query.group_by),
            query.name,
        )
    return query


def population(seed, skew, join_fraction, aggregate_fraction, streams, count=160):
    catalog = sensorscope_catalog(streams, rng=random.Random(seed))
    workload = QueryWorkload(
        catalog,
        WorkloadConfig(
            skew=skew,
            join_fraction=join_fraction,
            aggregate_fraction=aggregate_fraction,
            seed=seed,
        ),
    )
    rng = random.Random(f"disguise:{seed}")
    return catalog, [disguised(query, rng) for query in workload.generate(count)]


def snapshot(optimizer):
    return [
        (
            group.group_id,
            [q.name for q in group.members],
            group.members,
            group.representative,
            repr(group.representative_rate),
        )
        for group in optimizer.groups
    ]


def decision_of(decision):
    return (
        decision.query,
        decision.group.group_id,
        decision.created_group,
        repr(decision.benefit_delta),
    )


CASES = [
    # seed, skew, join fraction, aggregate fraction, streams
    (0, 0.0, 0.0, 0.0, 6),
    (1, 1.0, 0.0, 0.0, 6),
    (2, 2.0, 0.0, 0.0, 6),
    (3, 1.0, 0.3, 0.0, 6),
    (4, 1.5, 0.0, 0.4, 6),
    (5, 1.0, 0.2, 0.2, 6),
    (6, 2.0, 0.3, 0.3, 6),
    (7, 0.0, 0.2, 0.3, 6),
    (8, 1.0, 0.7, 0.0, 3),
    (9, 2.0, 0.5, 0.3, 3),
]


@pytest.mark.parametrize("seed,skew,joins,aggregates,streams", CASES)
def test_interleaved_histories_match_the_build_then_price_oracle(
    seed, skew, joins, aggregates, streams
):
    catalog, queries = population(seed, skew, joins, aggregates, streams)
    fast = GroupingOptimizer(catalog, CostModel())
    oracle = BuildThenPrice(catalog, CostModel())
    rng = random.Random(f"history:{seed}")
    live = []
    merged = 0
    for index, query in enumerate(queries):
        step = rng.random()
        if step < 0.2 and live:
            victim = live.pop(rng.randrange(len(live)))
            fast.remove(victim)
            oracle.remove(victim)
        elif step < 0.23:
            assert fast.reoptimize() == oracle.reoptimize()
        got, want = fast.add(query), oracle.add(query)
        assert decision_of(got) == decision_of(want), (index, query.name)
        merged += not got.created_group
        live.append(query.name)
        assert snapshot(fast) == snapshot(oracle), (index, query.name)
        for group in fast.groups:
            # the floors' cache is the representative's widths, after a remove too
            assert group.column_widths == fast.cost_model.column_widths(
                group.representative, catalog
            ), (index, group.group_id)
    assert merged, "the population never merged: the comparison is vacuous"
    assert repr(fast.benefit_ratio()) == repr(oracle.benefit_ratio())


@pytest.mark.parametrize("seed,skew,joins,aggregates,streams", CASES)
def test_a_plan_prices_what_it_builds(seed, skew, joins, aggregates, streams):
    """Every candidate pair: the plan raises where the build does, builds
    the same query, and its price is the built query's, bit for bit."""
    catalog, queries = population(seed, skew, joins, aggregates, streams, count=40)
    model = CostModel()
    canonical = [query.canonical(catalog) for query in queries]
    planned = 0
    for left in canonical:
        for right in canonical:
            try:
                built = representative(
                    [left, right], catalog, name="rep", verify=False
                )
            except MergeError:
                with pytest.raises(MergeError):
                    merge_plan([left, right], catalog)
                continue
            plan = merge_plan([left, right], catalog)
            assert plan.build("rep") == built
            assert repr(plan.rate(model, catalog)) == repr(
                model.result_rate(built, catalog)
            )
            planned += 1
    assert planned > len(canonical)


def floor_of(model, left, right, catalog):
    """The floor ``GroupingOptimizer.add`` gives the candidate ``[left, right]``."""
    return model.merge_floor(
        merged_streams((left, right)),
        left.predicate.hull(right.predicate),
        (model.column_widths(left, catalog), model.column_widths(right, catalog)),
        len(left.aggregates),
        catalog,
    )


@pytest.mark.parametrize("seed,skew,joins,aggregates,streams", CASES)
def test_the_floor_never_exceeds_the_plan_price(seed, skew, joins, aggregates, streams):
    """Every candidate pair a plan exists for, widened join windows,
    aggregates, aliases and ``S.*`` included: floor <= price as floats,
    and equal where the plan adds no column beyond the members'."""
    catalog, queries = population(seed, skew, joins, aggregates, streams, count=40)
    model = CostModel()
    canonical = [query.canonical(catalog) for query in queries]
    planned = tight = 0
    for left in canonical:
        for right in canonical:
            try:
                plan = merge_plan([left, right], catalog)
            except MergeError:
                continue
            floor, price = floor_of(model, left, right, catalog), plan.rate(model, catalog)
            assert floor <= price, (left, right, floor, price)
            planned += 1
            tight += floor == price
    assert planned > len(canonical)
    assert tight, "no pair priced at its floor: the bound is never shown tight"


def count_plans(monkeypatch, optimizer, queries):
    """(candidates considered, candidates planned) over ``optimizer.add``s."""
    planned = []
    complete_plan = grouping.complete_plan

    def counting(*args):
        planned.append(args[0])
        return complete_plan(*args)

    monkeypatch.setattr(grouping, "complete_plan", counting)
    considered = 0
    for query in queries:
        key = optimizer._structure_key(query.canonical(optimizer.catalog))
        considered += len(optimizer._index.get(key, ()))
        optimizer.add(query)
    return considered, len(planned)


def test_the_floor_plans_few_candidates(monkeypatch):
    """A uniform single-stream population: at most 10 % of the
    candidates are planned, and the decisions are the oracle's."""
    catalog, queries = population(0, 0.0, 0.0, 0.0, 6, count=400)
    fast = GroupingOptimizer(catalog, CostModel())
    considered, planned = count_plans(monkeypatch, fast, queries)
    assert considered > 10 * len(queries)
    assert 0 < planned <= 0.1 * considered, (planned, considered)
    oracle = BuildThenPrice(catalog, CostModel())
    for query in queries:
        oracle.add(query)
    assert snapshot(fast) == snapshot(oracle)


def test_merging_off_plans_nothing(monkeypatch):
    catalog, queries = population(0, 0.0, 0.0, 0.0, 6, count=200)
    optimizer = GroupingOptimizer(catalog, CostModel(), merge_threshold=float("inf"))
    considered, planned = count_plans(monkeypatch, optimizer, queries)
    assert considered > 0 and planned == 0
    assert optimizer.group_count == len(queries)
