"""Select, project, the window join (Lemma 1, scanned and keyed) and aggregation."""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.cql.predicates import Comparison, Conjunction, JoinPredicate
from repro.spe.operators import (
    AggregateSpec,
    GroupedAggregate,
    JoinInput,
    PayloadSelectProject,
    Project,
    Select,
    WindowJoin,
    equijoin_key_pairs,
    qualify,
)


def cond(*atoms):
    return Conjunction.from_atoms(atoms)


class TestQualify:
    def test_prefixes_attributes(self):
        binding = qualify("O", Datagram("OpenAuction", {"itemID": 1}, 5.0))
        assert binding == {"O.itemID": 1, "O.timestamp": 5.0}

    def test_explicit_timestamp_kept(self):
        binding = qualify("O", Datagram("S", {"timestamp": 3.0}, 5.0))
        assert binding["O.timestamp"] == 3.0


class TestSelectProject:
    def test_select_passes_and_blocks(self):
        sel = Select(cond(Comparison("S.a", ">", 1)))
        assert sel.process({"S.a": 2}) == {"S.a": 2}
        assert sel.process({"S.a": 0}) is None

    def test_project_renames(self):
        proj = Project({"out": "S.a"})
        assert proj.process({"S.a": 7, "S.b": 8}) == {"out": 7}

    def test_project_missing_input_raises(self):
        with pytest.raises(KeyError):
            Project({"x": "S.missing"}).process({"S.a": 1})


def through_bindings(qualifier, condition, columns, datagram):
    """Select-project the way a join result goes: qualify, Select, Project."""
    selected = Select(condition).process(qualify(qualifier, datagram))
    return None if selected is None else Project(columns).process(selected)


class TestPayloadSelectProject:
    def test_implicit_timestamp_when_the_payload_lacks_one(self):
        scan = PayloadSelectProject(
            "S",
            cond(Comparison("S.timestamp", ">=", 5.0)),
            {"S.timestamp": "S.timestamp", "S.v": "S.v"},
        )
        assert scan.process(Datagram("X", {"v": 1}, 4.0)) is None
        row = scan.process(Datagram("X", {"v": 1}, 6.0))
        assert list(row.items()) == [("S.timestamp", 6.0), ("S.v", 1)]
        # an explicit timestamp attribute wins, as in qualify()
        assert scan.process(Datagram("X", {"v": 1, "timestamp": 3.0}, 6.0)) is None
        assert scan.process(Datagram("X", {"v": 2, "timestamp": 7.0}, 0.0)) == {
            "S.timestamp": 7.0,
            "S.v": 2,
        }

    def test_timestamp_not_read_is_not_supplied(self):
        scan = PayloadSelectProject("S", cond(), {"S.v": "S.v"})
        assert scan.process(Datagram("X", {"v": 1}, 6.0)) == {"S.v": 1}

    def test_alias_is_the_qualifier(self):
        scan = PayloadSelectProject(
            "T", cond(Comparison("T.temp", ">", 25)), {"T.temp": "T.temp"}
        )
        assert scan.condition == cond(Comparison("temp", ">", 25))
        assert scan.columns == (("T.temp", "temp"),)
        assert scan.process(Datagram("Temp", {"temp": 30.0, "station": 1}, 0.0)) == {
            "T.temp": 30.0
        }

    def test_missing_projection_input_raises(self):
        scan = PayloadSelectProject("S", cond(), {"S.missing": "S.missing"})
        with pytest.raises(KeyError):
            scan.process(Datagram("X", {"a": 1}, 0.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_same_rows_in_the_same_key_order_as_through_bindings(self, seed):
        rng = random.Random(seed)
        names = ["a", "b", "timestamp"]
        atoms = [
            Comparison(f"S.{rng.choice(names)}", rng.choice(["<", "<=", ">", ">=", "!="]),
                       rng.randrange(-3, 4))
            for __ in range(rng.randrange(0, 3))
        ]
        if rng.random() < 0.3:
            atoms.append(JoinPredicate("S.a", "S.b"))
        condition = cond(*atoms)
        columns = {f"S.{name}": f"S.{name}" for name in rng.sample(names, rng.randrange(1, 4))}
        scan = PayloadSelectProject("S", condition, columns)
        for step in range(80):
            payload = {
                name: rng.choice([-3, -1, 0, 1, 2.5, 3])
                for name in names
                if rng.random() < 0.8
            }
            datagram = Datagram("X", payload, float(step % 5))
            try:
                expected = through_bindings("S", condition, columns, datagram)
            except KeyError:
                with pytest.raises(KeyError):
                    scan.process(datagram)
                continue
            row = scan.process(datagram)
            assert (row is None) == (expected is None)
            if row is not None:
                assert list(row.items()) == list(expected.items())


@pytest.fixture(params=[(), (("k", "k"),)], ids=["scanned", "keyed"])
def key_pairs(request):
    """Every join case runs scanned and keyed; all tuples share k=1
    unless the case is about the key."""
    return request.param


def tup(stream, ts, k=1, **payload):
    return Datagram(stream, {"k": k, **payload}, ts)


class TestWindowJoin:
    @pytest.fixture
    def make(self, key_pairs):
        def _join(t1=10.0, t2=0.0):
            return WindowJoin([JoinInput("A", t1), JoinInput("B", t2)], key_pairs)

        return _join

    def test_pair_within_windows(self, make):
        join = make(t1=10, t2=0)
        assert join.process("A", tup("SA", 0.0, x=1)) == []
        results = join.process("B", tup("SB", 5.0, y=2))
        assert len(results) == 1
        assert results[0]["A.x"] == 1 and results[0]["B.y"] == 2

    def test_lemma1_bounds(self, make):
        # -T1 <= t1 - t2 <= T2 with T1=10, T2=0.
        join = make(t1=10, t2=0)
        join.process("A", tup("SA", 0.0, x=1))
        assert len(join.process("B", tup("SB", 10.0, y=2))) == 1
        # t1 - t2 = -11 violates the lower bound.
        assert join.process("B", tup("SB", 11.0, y=2)) == []

    def test_lemma1_upper_bound(self, make):
        # B arrives first; A joining later needs t1 - t2 <= T2 = 4.
        join = make(t1=0, t2=4)
        join.process("B", tup("SB", 0.0, y=2))
        assert len(join.process("A", tup("SA", 4.0, x=1))) == 1
        join2 = make(t1=0, t2=4)
        join2.process("B", tup("SB", 0.0, y=2))
        assert join2.process("A", tup("SA", 5.0, x=1)) == []

    def test_each_pair_produced_once(self, make):
        join = make(t1=100, t2=100)
        outs = []
        outs += join.process("A", tup("SA", 0.0, x=1))
        outs += join.process("B", tup("SB", 1.0, y=1))
        outs += join.process("A", tup("SA", 2.0, x=2))
        outs += join.process("B", tup("SB", 3.0, y=2))
        assert len(outs) == 1 + 1 + 2  # pairs: (1,1); (2,1); (1,2),(2,2)

    def test_unknown_input_raises(self, make):
        with pytest.raises(KeyError):
            make().process("Z", tup("SZ", 0.0))

    def test_now_window_same_instant_only(self, make):
        join = make(t1=0, t2=0)
        join.process("A", tup("SA", 5.0, x=1))
        assert len(join.process("B", tup("SB", 5.0, y=1))) == 1
        assert join.process("B", tup("SB", 6.0, y=2)) == []

    def test_three_way_join(self):
        join = WindowJoin(
            [JoinInput("A", 10), JoinInput("B", 10), JoinInput("C", 10)]
        )
        join.process("A", Datagram("SA", {"x": 1}, 0.0))
        join.process("B", Datagram("SB", {"y": 2}, 1.0))
        results = join.process("C", Datagram("SC", {"z": 3}, 2.0))
        assert len(results) == 1
        assert set(results[0]) >= {"A.x", "B.y", "C.z"}

    def test_three_way_join_with_a_silent_input_yields_nothing(self):
        join = WindowJoin(
            [JoinInput("A", 10), JoinInput("B", 10), JoinInput("C", 10)]
        )
        join.process("A", Datagram("SA", {"x": 1}, 0.0))
        assert join.process("C", Datagram("SC", {"z": 3}, 2.0)) == []

    def test_needs_two_inputs(self):
        # a single-stream query is a PayloadSelectProject, not a join
        with pytest.raises(ValueError):
            WindowJoin([])
        with pytest.raises(ValueError):
            WindowJoin([JoinInput("S", 10)])

    def test_key_pairs_need_two_inputs(self):
        with pytest.raises(ValueError):
            WindowJoin(
                [JoinInput("A", 1), JoinInput("B", 1), JoinInput("C", 1)],
                [("k", "k")],
            )


class TestKeyedJoin:
    def _join(self, pairs=(("k", "k"),), t1=100, t2=100):
        return WindowJoin([JoinInput("A", t1), JoinInput("B", t2)], pairs)

    def test_key_mismatch_no_result(self):
        join = self._join()
        join.process("A", tup("SA", 0.0, k=1))
        assert join.process("B", tup("SB", 1.0, k=2)) == []

    def test_scan_hands_mismatches_to_the_caller(self):
        join = WindowJoin([JoinInput("A", 100), JoinInput("B", 100)])
        join.process("A", tup("SA", 0.0, k=1))
        (binding,) = join.process("B", tup("SB", 1.0, k=2))
        assert (binding["A.k"], binding["B.k"]) == (1, 2)

    def test_differently_named_key_attributes(self):
        join = self._join([("x", "y")])
        join.process("A", Datagram("SA", {"x": 7}, 0.0))
        assert join.process("B", Datagram("SB", {"y": 8}, 1.0)) == []
        assert len(join.process("B", Datagram("SB", {"y": 7}, 1.0))) == 1

    def test_int_and_float_keys_meet(self):
        join = self._join()
        join.process("A", tup("SA", 0.0, k=1))
        assert len(join.process("B", tup("SB", 1.0, k=1.0))) == 1
        assert join.process("B", tup("SB", 1.0, k="1")) == []

    def test_arrival_lacking_a_key_attribute_is_not_stored(self):
        join = self._join()
        assert join.process("A", Datagram("SA", {"other": 1}, 0.0)) == []
        assert len(join._windows["A"]) == 0
        assert join.process("B", tup("SB", 1.0)) == []

    def test_implicit_timestamp_can_be_the_key(self):
        # the key is read from the binding, where qualify() put it
        join = self._join([("timestamp", "timestamp")])
        join.process("A", Datagram("SA", {"x": 1}, 3.0))
        assert len(join.process("B", Datagram("SB", {"y": 1}, 3.0))) == 1
        assert join.process("B", Datagram("SB", {"y": 1}, 4.0)) == []

    def test_buckets_keep_arrival_order(self):
        join = self._join()
        for ts, (k, x) in enumerate([(1, "a"), (2, "b"), (1, "c")]):
            join.process("A", tup("SA", float(ts), k=k, x=x))
        results = join.process("B", tup("SB", 5.0, k=1))
        assert [b["A.x"] for b in results] == ["a", "c"]


class TestKeyPairExtraction:
    def test_extracts_cross_links(self):
        predicate = cond(JoinPredicate("A.k", "B.k"), JoinPredicate("A.x", "B.y"))
        assert equijoin_key_pairs(predicate, "A", "B") == [("k", "k"), ("x", "y")]

    def test_ignores_internal_links(self):
        predicate = cond(JoinPredicate("A.x", "A.y"))
        assert equijoin_key_pairs(predicate, "A", "B") == []

    def test_orientation_independent(self):
        predicate = cond(JoinPredicate("B.y", "A.x"))
        assert equijoin_key_pairs(predicate, "A", "B") == [("x", "y")]


def _random_feed(rng, n):
    feed = []
    t = 0.0
    for __ in range(n):
        t += rng.uniform(0.0, 2.0)
        stream = rng.choice(["A", "B"])
        feed.append((stream, Datagram(stream, {"k": rng.randrange(4), "v": rng.random()}, t)))
    return feed


class TestDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_keyed_matches_scanned(self, seed):
        """Probe-then-select and scan-then-select leave the same
        bindings in the same order."""
        rng = random.Random(seed)
        t_a = rng.choice([0.0, 1.0, 5.0, 50.0])
        t_b = rng.choice([0.0, 1.0, 5.0, 50.0])
        inputs = [JoinInput("A", t_a), JoinInput("B", t_b)]
        scanned, keyed = WindowJoin(inputs), WindowJoin(inputs, [("k", "k")])
        link = cond(JoinPredicate("A.k", "B.k"))
        for stream, datagram in _random_feed(rng, 60):
            scanned_out = [
                b for b in scanned.process(stream, datagram) if link.evaluate(b)
            ]
            keyed_out = keyed.process(stream, datagram)
            assert all(link.evaluate(b) for b in keyed_out)
            assert scanned_out == keyed_out


class TestGroupedAggregate:
    def _agg(self, window=100.0, pre=None):
        return GroupedAggregate(
            "S",
            window,
            ["S.station"],
            [
                AggregateSpec("avg", "S.temp", "avg_temp"),
                AggregateSpec("count", None, "n"),
            ],
            pre_filter=pre,
        )

    def test_emits_updated_group_row(self):
        agg = self._agg()
        r1 = agg.process(Datagram("S", {"station": 1, "temp": 10.0}, 0.0))
        assert r1 == [{"S.station": 1, "avg_temp": 10.0, "n": 1}]
        r2 = agg.process(Datagram("S", {"station": 1, "temp": 20.0}, 1.0))
        assert r2 == [{"S.station": 1, "avg_temp": 15.0, "n": 2}]

    def test_groups_independent(self):
        agg = self._agg()
        agg.process(Datagram("S", {"station": 1, "temp": 10.0}, 0.0))
        r = agg.process(Datagram("S", {"station": 2, "temp": 30.0}, 1.0))
        assert r == [{"S.station": 2, "avg_temp": 30.0, "n": 1}]

    def test_window_expiry_affects_aggregate(self):
        agg = self._agg(window=5.0)
        agg.process(Datagram("S", {"station": 1, "temp": 10.0}, 0.0))
        r = agg.process(Datagram("S", {"station": 1, "temp": 30.0}, 10.0))
        assert r == [{"S.station": 1, "avg_temp": 30.0, "n": 1}]

    def test_pre_filter_excludes_from_window(self):
        pre = cond(Comparison("S.temp", ">", 0))
        agg = self._agg(pre=pre)
        assert agg.process(Datagram("S", {"station": 1, "temp": -5.0}, 0.0)) == []
        r = agg.process(Datagram("S", {"station": 1, "temp": 10.0}, 1.0))
        assert r[0]["n"] == 1  # the filtered tuple never entered

    def test_min_max_sum(self):
        agg = GroupedAggregate(
            "S",
            100.0,
            [],
            [
                AggregateSpec("min", "S.v", "lo"),
                AggregateSpec("max", "S.v", "hi"),
                AggregateSpec("sum", "S.v", "total"),
            ],
        )
        agg.process(Datagram("S", {"v": 3}, 0.0))
        r = agg.process(Datagram("S", {"v": 7}, 1.0))
        assert r == [{"lo": 3, "hi": 7, "total": 10}]

    def test_missing_grouping_attribute_groups_under_none(self):
        agg = self._agg()
        agg.process(Datagram("S", {"temp": 10.0}, 0.0))
        agg.process(Datagram("S", {"station": 1, "temp": 50.0}, 1.0))
        r = agg.process(Datagram("S", {"temp": 20.0}, 2.0))
        assert r == [{"S.station": None, "avg_temp": 15.0, "n": 2}]

    def test_missing_aggregated_attribute_is_null(self):
        """SQL NULL: skipped by every aggregate; a group with no value
        at all for the attribute emits its row without that column
        (``sum``/``avg``/``min``/``max`` used to raise ValueError)."""
        agg = GroupedAggregate(
            "S",
            100.0,
            ["S.k"],
            [
                AggregateSpec("avg", "S.v", "a"),
                AggregateSpec("sum", "S.v", "t"),
                AggregateSpec("min", "S.v", "lo"),
                AggregateSpec("max", "S.v", "hi"),
                AggregateSpec("count", "S.v", "n"),
                AggregateSpec("count", None, "c"),
            ],
        )
        assert agg.process(Datagram("S", {"k": 1}, 0.0)) == [
            {"S.k": 1, "n": 0, "c": 1}
        ]
        assert agg.process(Datagram("S", {"k": 1, "v": 4.0}, 1.0)) == [
            {"S.k": 1, "a": 4.0, "t": 4.0, "lo": 4.0, "hi": 4.0, "n": 1, "c": 2}
        ]
        assert agg.process(Datagram("S", {"k": 1}, 2.0)) == [
            {"S.k": 1, "a": 4.0, "t": 4.0, "lo": 4.0, "hi": 4.0, "n": 1, "c": 3}
        ]

    def test_bucket_is_the_group(self):
        agg = self._agg(window=5.0)
        for ts, station in enumerate([1, 2, 1, 3]):
            agg.process(Datagram("S", {"station": station, "temp": 1.0}, float(ts)))
        for column in agg._columns.values():
            assert sorted(column._buckets) == [(1,), (2,), (3,)]
        agg.process(Datagram("S", {"station": 3, "temp": 1.0}, 7.5))
        for column in agg._columns.values():
            assert sorted(column._buckets) == [(3,)]
        # one column of values per aggregated attribute, one value-free
        # column for COUNT(*); no bindings
        assert list(agg._columns[None]._buckets[(3,)]) == [None, None]
        assert list(agg._columns["temp"]._buckets[(3,)]) == [1.0, 1.0]
