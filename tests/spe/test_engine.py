"""The continuous query engine end to end."""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.spe.engine import (
    EngineError,
    QueryResult,
    StreamProcessingEngine,
    result_schema,
)
from repro.workload.auction import TABLE1_Q3, auction_catalog


@pytest.fixture
def catalog():
    return Catalog(
        [
            StreamSchema(
                "Temp",
                [
                    Attribute("station", "int", 0, 9),
                    Attribute("temp", "float", -20, 40),
                ],
                rate=1.0,
            ),
            StreamSchema(
                "Wind",
                [
                    Attribute("station", "int", 0, 9),
                    Attribute("speed", "float", 0, 50),
                ],
                rate=1.0,
            ),
        ]
    )


@pytest.fixture
def catalog3():
    return Catalog(
        [
            StreamSchema(
                name,
                [
                    Attribute("k", "float", 0, 9),
                    Attribute("s", "str"),
                    Attribute("v", "float", 0, 100),
                ],
                rate=1.0,
            )
            for name in "ABC"
        ]
    )


def temp(ts, station=1, value=20.0):
    return Datagram("Temp", {"station": station, "temp": value}, ts)


def wind(ts, station=1, speed=5.0):
    return Datagram("Wind", {"station": station, "speed": speed}, ts)


class TestRegistration:
    def test_register_validates(self, catalog):
        spe = StreamProcessingEngine(catalog)
        with pytest.raises(Exception):
            spe.register(parse_query("SELECT X.a FROM X"))

    def test_duplicate_name_rejected(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query("SELECT T.temp FROM Temp T")
        spe.register(q, "q")
        with pytest.raises(EngineError):
            spe.register(q, "q")

    def test_deregister(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q")
        spe.deregister("q")
        assert spe.push(temp(0)) == []

    def test_deregister_unknown(self, catalog):
        with pytest.raises(EngineError):
            StreamProcessingEngine(catalog).deregister("zzz")

    def test_result_stream_default(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q7")
        assert spe._queries["q7"].result_stream == "q7:results"

    def test_aggregate_join_unsupported(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT AVG(T.temp) FROM Temp T, Wind W WHERE T.station = W.station"
        )
        with pytest.raises(EngineError):
            spe.register(q)


class TestSelectProject:
    def test_filtering(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T WHERE T.temp > 25"), "hot")
        assert spe.push(temp(0, value=20.0)) == []
        results = spe.push(temp(1, value=30.0))
        assert len(results) == 1
        assert dict(results[0].datagram.payload) == {"T.temp": 30.0}

    def test_result_stream_tagging(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q", result_stream="out")
        results = spe.push(temp(0))
        assert results[0].datagram.stream == "out"

    def test_multiple_queries_same_stream(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "a")
        spe.register(parse_query("SELECT T.station FROM Temp T"), "b")
        results = spe.push(temp(0))
        assert {r.query_name for r in results} == {"a", "b"}

    def test_aliased_stream_compiled_on_the_first_tuple(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(
            parse_query("SELECT T.*, T.temp FROM Temp T WHERE T.temp > 25 AND T.station <= 3"),
            "q",
        )
        assert spe._queries["q"]._scan is None  # registration renames nothing
        assert spe.push(temp(0, station=1, value=20.0)) == []
        assert spe._queries["q"]._scan is not None
        assert spe.push(temp(1, station=5, value=30.0)) == []
        (result,) = spe.push(temp(2, station=3, value=30.0))
        assert list(result.datagram.payload.items()) == [
            ("T.station", 3),
            ("T.temp", 30.0),
        ]

    def test_implicit_timestamp_under_a_timestamp_predicate(self):
        catalog = Catalog(
            [
                StreamSchema(
                    "S",
                    [Attribute("timestamp", "timestamp"), Attribute("v", "int")],
                    rate=1.0,
                )
            ]
        )
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT S.v, S.timestamp FROM S WHERE S.timestamp >= 5"), "q")
        # the payload carries no timestamp: the datagram's is the attribute
        assert spe.push(Datagram("S", {"v": 1}, 4.0)) == []
        (result,) = spe.push(Datagram("S", {"v": 2}, 5.0))
        assert list(result.datagram.payload.items()) == [("S.v", 2), ("S.timestamp", 5.0)]
        # a payload that carries one is read, not the datagram's
        assert spe.push(Datagram("S", {"v": 3, "timestamp": 1.0}, 6.0)) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_results_and_order_match_the_join_path(self, catalog, seed):
        """Every single-stream query's rows, and their order across
        queries, equal what qualify -> Select -> Project (the operators a
        join result passes through) make of the same feed."""
        from repro.spe.operators import Project, Select, qualify

        rng = random.Random(seed)
        texts = [
            "SELECT T.temp FROM Temp T WHERE T.temp > 10",
            "SELECT Temp.* FROM Temp WHERE Temp.station != 3 AND Temp.temp <= 30",
            "SELECT T.station, T.temp FROM Temp T WHERE T.station >= 2 AND T.station < 7",
            "SELECT W.speed, W.station FROM Wind W WHERE W.speed > 20",
            "SELECT T.temp, T.station FROM Temp T",
        ]
        spe = StreamProcessingEngine(catalog)
        queries = {}
        for index, text in enumerate(texts):
            queries[f"q{index}"] = query = parse_query(text)
            spe.register(query, f"q{index}")
        for step in range(120):
            datagram = rng.choice([temp, wind])(
                float(step), rng.randrange(10), rng.choice([0.0, 15.5, 25.0, 30.0, 45.0])
            )
            expected = []
            for name, query in queries.items():
                (ref,) = query.streams
                if ref.stream != datagram.stream:
                    continue
                binding = Select(query.predicate).process(qualify(ref.name, datagram))
                if binding is not None:
                    columns = {a.key: a.key for a in query.projected_attributes(catalog)}
                    expected.append((name, list(Project(columns).process(binding).items())))
            got = [
                (result.query_name, list(result.datagram.payload.items()))
                for result in spe.push(datagram)
            ]
            assert got == expected

    def test_out_of_order_rejected(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q")
        spe.push(temp(10))
        with pytest.raises(EngineError):
            spe.push(temp(5))


class TestJoin:
    def test_window_join(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT T.temp, W.speed FROM Temp [Range 10] T, Wind [Range 10] W "
            "WHERE T.station = W.station"
        )
        spe.register(q, "j")
        spe.push(temp(0, station=1))
        results = spe.push(wind(5, station=1))
        assert len(results) == 1
        payload = dict(results[0].datagram.payload)
        assert payload == {"T.temp": 20.0, "W.speed": 5.0}

    def test_join_respects_station_mismatch(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT T.temp FROM Temp [Range 10] T, Wind [Range 10] W "
            "WHERE T.station = W.station"
        )
        spe.register(q, "j")
        spe.push(temp(0, station=1))
        assert spe.push(wind(5, station=2)) == []

    def test_join_window_expiry(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT T.temp FROM Temp [Range 10] T, Wind [Now] W "
            "WHERE T.station = W.station"
        )
        spe.register(q, "j")
        spe.push(temp(0))
        assert len(spe.push(wind(10))) == 1
        spe2 = StreamProcessingEngine(catalog)
        spe2.register(q, "j")
        spe2.push(temp(0))
        assert spe2.push(wind(11)) == []


class TestPushTo:
    def test_targets_single_query(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "a")
        spe.register(parse_query("SELECT T.station FROM Temp T"), "b")
        results = spe.push_to("a", temp(0))
        assert [(d.stream, sorted(d.payload)) for d in results] == [
            ("a:results", ["T.temp"])
        ]
        assert all(type(d) is Datagram for d in results)

    def test_unknown_target(self, catalog):
        with pytest.raises(EngineError):
            StreamProcessingEngine(catalog).push_to("zzz", temp(0))


class TestQueryResultValue:
    def test_fields_immutability_and_equality(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "a")
        (result,) = spe.push(temp(0, value=21.0))
        assert QueryResult._fields == ("query_name", "datagram")
        assert result.query_name == "a"
        assert result == QueryResult("a", result.datagram)
        assert hash(result) == hash(QueryResult("a", result.datagram))
        assert result != QueryResult("b", result.datagram)
        assert result != QueryResult("a", Datagram("other", result.datagram.payload, result.datagram.timestamp, result.datagram.seq))
        for name in QueryResult._fields:
            with pytest.raises(AttributeError):
                setattr(result, name, None)


class TestAggregates:
    def test_grouped_average(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT AVG(T.temp) AS m FROM Temp [Range 100] T GROUP BY T.station"
        )
        spe.register(q, "agg")
        spe.push(temp(0, station=1, value=10.0))
        results = spe.push(temp(1, station=1, value=20.0))
        assert dict(results[0].datagram.payload) == {"T.station": 1, "m": 15.0}

    QUERIES = {
        "grouped": "SELECT T.station, COUNT(*) AS n, AVG(T.temp) AS a, "
        "MIN(T.temp) AS lo, MAX(T.temp) AS hi, SUM(T.temp) AS s, "
        "COUNT(T.temp) AS c FROM Temp [Range 10 Second] T "
        "WHERE T.temp > 0 GROUP BY T.station",
        "stamped": "SELECT T.timestamp, COUNT(*) AS n, MAX(T.timestamp) AS last "
        "FROM Temp [Now] T WHERE T.timestamp >= 5 GROUP BY T.timestamp",
        "global": "SELECT COUNT(*) AS n, SUM(T.temp) AS s FROM Temp [Unbounded] T",
    }

    @pytest.fixture
    def stamped_catalog(self):
        """``Temp`` declaring its timestamp, so queries may read it."""
        return Catalog(
            [
                StreamSchema(
                    "Temp",
                    [
                        Attribute("station", "int", 0, 9),
                        Attribute("temp", "float", -20, 40),
                        Attribute("timestamp", "timestamp"),
                    ],
                    rate=1.0,
                ),
                StreamSchema("Wind", [Attribute("station", "int", 0, 9)], rate=1.0),
            ]
        )

    def test_registration_renames_nothing(self, stamped_catalog, monkeypatch):
        """An aggregate compiles on its first tuple, as a select-project
        does: registration is on the install path."""
        from repro.cql.predicates import Conjunction

        renames = []
        original = Conjunction.rename
        monkeypatch.setattr(
            Conjunction,
            "rename",
            lambda self, mapping: renames.append(mapping) or original(self, mapping),
        )
        spe = StreamProcessingEngine(stamped_catalog)
        spe.register(parse_query(self.QUERIES["grouped"]), "agg")
        assert renames == [] and spe._queries["agg"]._aggregate is None
        spe.push(temp(0, station=1, value=10.0))
        assert len(renames) == 1 and spe._queries["agg"]._aggregate is not None

    def test_no_binding_is_built(self, stamped_catalog, monkeypatch):
        """An aggregate reads the payload: with ``qualify`` gone it gives
        the same rows, while a join cannot run at all."""
        from repro.spe import operators

        rng = random.Random(7)
        feed = []
        for step in range(300):
            payload = {"station": rng.randrange(3), "temp": rng.uniform(-5, 30)}
            if rng.random() < 0.2:
                del payload["temp"]
            if rng.random() < 0.5:  # explicit; else the arrival stamp
                payload["timestamp"] = float(step // 8)
            feed.append(Datagram("Temp", payload, step / 4))

        def rows():
            spe = StreamProcessingEngine(stamped_catalog)
            for name, text in self.QUERIES.items():
                spe.register(parse_query(text), name)
            return [
                (r.query_name, repr(list(r.datagram.payload.items())))
                for datagram in feed
                for r in spe.push(datagram)
            ]

        expected = rows()
        assert {name for name, __ in expected} == set(self.QUERIES)

        def no_bindings(*args):
            raise AssertionError("qualify called")

        monkeypatch.setattr(operators, "qualify", no_bindings)
        assert rows() == expected
        join = StreamProcessingEngine(stamped_catalog)
        join.register(
            parse_query(
                "SELECT T.temp, W.station FROM Temp [Range 5 Second] T, "
                "Wind [Range 5 Second] W WHERE T.station = W.station"
            )
        )
        with pytest.raises(AssertionError, match="qualify called"):
            join.push(temp(0))


class TestResultSchema:
    def test_spj_schema_carries_source_metadata(self, catalog):
        q = parse_query("SELECT T.temp, T.station FROM Temp T").canonical(catalog)
        schema = result_schema(q, catalog, "out")
        assert schema.attribute("Temp.temp").lo == -20
        assert schema.attribute("Temp.station").type == "int"

    def test_implicit_timestamp_attribute(self, catalog):
        q = parse_query("SELECT T.temp, T.timestamp FROM Temp T").canonical(catalog)
        schema = result_schema(q, catalog, "out")
        assert schema.attribute("Temp.timestamp").type == "timestamp"

    def test_aggregate_schema(self, catalog):
        q = parse_query(
            "SELECT COUNT(*) AS n, AVG(T.temp) AS m FROM Temp T GROUP BY T.station"
        ).canonical(catalog)
        schema = result_schema(q, catalog, "out")
        assert schema.attribute("n").type == "int"
        assert schema.attribute("m").type == "float"
        assert schema.attribute("Temp.station").type == "int"

    def test_engine_exposes_result_schema(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q")
        assert spe.result_schema_of("q").name == "q:results"


class TestNullAggregates:
    QUERY = (
        "SELECT T.station, AVG(T.temp) AS a, COUNT(T.temp) AS n "
        "FROM Temp [Range 10 Second] T GROUP BY T.station"
    )

    def test_tuple_lacking_the_aggregated_attribute(self, catalog):
        """``AVG`` over a group with no value used to raise a bare
        ValueError out of ``push``, after the tuple was inserted."""
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query(self.QUERY), "agg")
        (first,) = spe.push(Datagram("Temp", {"station": 1}, 0.0))
        assert dict(first.datagram.payload) == {"T.station": 1, "n": 0}
        (second,) = spe.push(temp(1, station=1, value=30.0))
        assert dict(second.datagram.payload) == {"T.station": 1, "a": 30.0, "n": 1}
        (third,) = spe.push(Datagram("Temp", {"station": 1}, 2.0))
        assert dict(third.datagram.payload) == {"T.station": 1, "a": 30.0, "n": 1}


def _auction_feed(rng, items=60):
    feed = []
    for item in range(items):
        open_ts = item * 120.0
        close_ts = open_ts + rng.expovariate(1.0 / (4 * 3600.0))
        feed.append(
            Datagram(
                "OpenAuction",
                {"itemID": item % 10, "sellerID": 1, "start_price": 2.0,
                 "timestamp": open_ts},
                open_ts,
            )
        )
        feed.append(
            Datagram(
                "ClosedAuction",
                {"itemID": item % 10, "buyerID": 2, "timestamp": close_ts},
                close_ts,
            )
        )
    feed.sort(key=lambda d: d.timestamp)
    return feed


def _run(catalog, text, feed, **engine_options):
    spe = StreamProcessingEngine(catalog, **engine_options)
    spe.register(parse_query(text), "q")
    return [
        (r.datagram.timestamp, list(r.datagram.payload.items()))
        for datagram in feed
        for r in spe.push(datagram)
    ]


class TestJoinStrategy:
    """``join_strategy="nested"`` (every join scans) is the reference the
    default (joins keyed by their query's links) must agree with result
    for result, order included."""

    def test_table1_q3_default_equals_nested(self):
        catalog = auction_catalog()
        feed = _auction_feed(random.Random(4))
        default = _run(catalog, TABLE1_Q3, feed)
        assert default == _run(catalog, TABLE1_Q3, feed, join_strategy="nested")
        assert default == _run(catalog, TABLE1_Q3, feed, join_strategy="indexed")
        assert len(default) > 0

    def test_bad_strategy_rejected(self):
        with pytest.raises(EngineError):
            StreamProcessingEngine(auction_catalog(), join_strategy="quantum")

    def test_single_stream_unaffected(self):
        for options in ({}, {"join_strategy": "nested"}):
            results = _run(
                auction_catalog(),
                "SELECT O.itemID FROM OpenAuction O",
                _auction_feed(random.Random(0), items=1),
                **options,
            )
            assert results == [(0.0, [("O.itemID", 0)])]

    def test_processor_agrees_with_nested_engine(self):
        """A processor takes no join flag (section 2's heterogeneous
        engines live behind the wrappers): its engine keys Table 1's q3
        by itemID and must match the scanning reference."""
        from repro.cbn.network import ContentBasedNetwork
        from repro.overlay.tree import DisseminationTree
        from repro.system.node import Processor

        catalog = auction_catalog()
        feed = _auction_feed(random.Random(7), items=20)
        network = ContentBasedNetwork(DisseminationTree([(0, 1)], {(0, 1): 1.0}))
        for schema in catalog:
            network.advertise(schema.name, 0, schema)
        proc = Processor(1, catalog, network=network)
        proc.accept(parse_query(TABLE1_Q3), name="q3")
        # the whole feed routed as one batch reaches the processor as one share
        share = [d for per in network.publish_many(feed, 0) for d in per]
        out = [
            (d.timestamp, list(d.payload.values()))
            for d in proc.on_source_batch(share)
        ]
        # the processor runs the canonical form: same columns, other names
        reference = _run(catalog, TABLE1_Q3, feed, join_strategy="nested")
        assert out == [(ts, [v for __, v in row]) for ts, row in reference]
        assert len(out) > 0

    def test_which_joins_are_keyed(self, catalog):
        def key_terms_of(text, **options):
            spe = StreamProcessingEngine(catalog, **options)
            spe.register(parse_query(text), "q")
            return spe._queries["q"]._join._key_terms

        linked = (
            "SELECT T.temp FROM Temp [Range 10] T, Wind [Range 10] W "
            "WHERE T.station = W.station AND T.temp - W.speed > 0"
        )
        assert key_terms_of(linked) == {"T": ("T.station",), "W": ("W.station",)}
        assert key_terms_of(linked, join_strategy="nested") == {"T": (), "W": ()}
        unlinked = "SELECT T.temp FROM Temp [Range 10] T, Wind [Range 10] W"
        assert key_terms_of(unlinked) == {"T": (), "W": ()}

    @pytest.mark.parametrize("seed", range(12))
    def test_random_joins_default_equals_nested(self, catalog3, seed):
        rng = random.Random(seed)
        window = lambda: rng.choice(
            ["[Now]", "[Range 2 Second]", "[Range 20 Second]", "[Unbounded]"]
        )
        text = [
            # two-way equijoins with a residual non-equi predicate
            f"SELECT A.v, B.v FROM A {window()} A, B {window()} B "
            f"WHERE A.k = B.k AND A.v - B.v > 0",
            f"SELECT A.v, B.v, A.k FROM A {window()} A, B {window()} B "
            f"WHERE A.k = B.k AND A.s = B.s AND B.v > {rng.randrange(60)}",
            # a 3-way join
            f"SELECT A.v, B.v, C.v FROM A {window()} A, B {window()} B, "
            f"C {window()} C WHERE A.k = B.k AND B.k = C.k",
            # a join without any link
            f"SELECT A.v, B.v FROM A {window()} A, B {window()} B "
            f"WHERE A.v > 50 AND B.v < 50",
        ][seed % 4]
        feed, now = [], 0.0
        for __ in range(150):
            now += rng.choice([0.0, 0.5, 1.0, 3.0])
            payload = {"v": rng.random() * 100}
            if rng.random() < 0.85:  # sparse: some tuples lack the key
                payload["k"] = rng.choice([0, 1, 2, 1.0, 2.5])
            if rng.random() < 0.85:
                payload["s"] = rng.choice(["p", "q"])
            feed.append(Datagram(rng.choice("ABC"), payload, now))
        default = _run(catalog3, text, feed)
        assert default == _run(catalog3, text, feed, join_strategy="nested")
        assert len(default) > 0


class TestStateCeilings:
    """What the engine retains under a long feed: one window's worth."""

    def _windows(self, spe):
        for compiled in spe._queries.values():
            if compiled._aggregate is not None:
                yield from compiled._aggregate._columns.values()
            elif compiled._join is not None:
                yield from compiled._join._windows.values()

    def test_long_feed_retains_one_window(self, catalog3):
        spe = StreamProcessingEngine(catalog3)
        for name, text in {
            "keyed": "SELECT A.v, B.v FROM A [Range 10 Second] A, "
            "B [Range 10 Second] B WHERE A.k = B.k",
            "scanned": "SELECT A.v, B.v FROM A [Range 10 Second] A, "
            "B [Range 10 Second] B WHERE A.v > 99 AND B.v > 99",
            "agg": "SELECT A.k, AVG(A.v) AS a FROM A [Range 10 Second] A GROUP BY A.k",
            "scan1": "SELECT A.v FROM A [Range 10 Second] A WHERE A.v > 50",
        }.items():
            spe.register(parse_query(text), name)
        rng = random.Random(1)
        peak = 0
        for second in range(5000):  # 10 000 tuples, 1 tuple/s per input
            for stream in "AB":
                payload = {"k": rng.randrange(50), "v": rng.random() * 100}
                spe.push(Datagram(stream, payload, float(second)))
            peak = max(peak, max(len(w) for w in self._windows(spe)))
        assert peak == 11  # [now - 10, now] at one tuple a second
        # a single-input query holds no window at all
        scan1 = spe._queries["scan1"]
        assert scan1._join is None and scan1._aggregate is None
        assert scan1._scan is not None
        # an aggregate's windows hold the values it aggregates, not bindings
        agg = spe._queries["agg"]._aggregate
        held = [v for w in agg._columns.values() for b in w._buckets.values() for v in b]
        assert held and all(isinstance(v, float) for v in held)
        # no bucket outlives its last item
        for window in self._windows(spe):
            window.expire(1e9)
            assert len(window) == 0 and window._buckets == {}
