"""COS1xx: seeded schema defects must be flagged, clean queries not."""

from repro.analysis.schema import check_profile, check_query
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cql.parser import parse_query
from repro.cql.predicates import Comparison, Conjunction


class TestCheckQuery:
    def test_clean_query(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station, T.temperature FROM Temp [Range 10 Seconds] T "
            "WHERE T.temperature > 30",
            name="clean",
        )
        assert check_query(query, sensor_catalog).is_clean

    def test_table1_queries_are_clean(self, auction_catalog, q1, q2, q3):
        for query in (q1, q2, q3):
            assert check_query(query, auction_catalog).is_clean

    def test_unknown_stream(self, sensor_catalog):
        query = parse_query("SELECT P.x FROM Pressure [Now] P", name="q")
        report = check_query(query, sensor_catalog)
        assert any(d.code == "COS101" for d in report)
        assert report.exit_code() == 2

    def test_unknown_attribute(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T WHERE T.pressure > 5", name="q"
        )
        report = check_query(query, sensor_catalog)
        assert any(d.code == "COS102" for d in report)
        # The rendered diagnostic points into the query text.
        [diag] = [d for d in report if d.code == "COS102"]
        assert diag.pos is not None and "pressure" in diag.message

    def test_unknown_qualifier(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T WHERE X.station = 1", name="q"
        )
        assert any(d.code == "COS101" for d in check_query(query, sensor_catalog))

    def test_type_clash_string_vs_numeric(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T WHERE T.temperature = 'hot'",
            name="q",
        )
        assert any(d.code == "COS103" for d in check_query(query, sensor_catalog))

    def test_mixed_type_equijoin(self, sensor_catalog):
        # Temp.timestamp is numeric; join against a string attribute.
        query = parse_query(
            "SELECT T.station, W.speed FROM Temp [Now] T, Wind [Now] W "
            "WHERE T.station = W.speed AND T.temperature = W.station",
            name="q",
        )
        assert check_query(query, sensor_catalog).is_clean  # all numeric
        from repro.cql.schema import Attribute, Catalog, StreamSchema

        catalog = Catalog(
            [
                StreamSchema("A", [Attribute("x", "int"), Attribute("t", "timestamp")]),
                StreamSchema("B", [Attribute("y", "str"), Attribute("t", "timestamp")]),
            ]
        )
        query = parse_query(
            "SELECT A.x, B.y FROM A [Now] A, B [Now] B WHERE A.x = B.y", name="q"
        )
        assert any(d.code == "COS103" for d in check_query(query, catalog))

    def test_duplicate_select_item(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station, T.station FROM Temp [Now] T", name="q"
        )
        report = check_query(query, sensor_catalog)
        assert any(d.code == "COS104" for d in report)
        assert report.exit_code() == 0  # warning only

    def test_cartesian_join_member(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T, Wind [Now] W", name="q"
        )
        assert any(d.code == "COS104" for d in check_query(query, sensor_catalog))


class TestCheckProfile:
    def test_clean_profile(self, sensor_catalog):
        profile = Profile(
            {"Temp": frozenset({"station", "temperature"})},
            (Filter("Temp", Conjunction.from_atoms([Comparison("temperature", ">", 30)])),),
        )
        assert check_profile(profile, sensor_catalog).is_clean

    def test_unknown_stream(self, sensor_catalog):
        profile = Profile({"Pressure": ALL_ATTRIBUTES}, ())
        assert any(d.code == "COS101" for d in check_profile(profile, sensor_catalog))

    def test_unknown_projection_attribute(self, sensor_catalog):
        profile = Profile({"Temp": frozenset({"station", "pressure"})}, ())
        assert any(d.code == "COS102" for d in check_profile(profile, sensor_catalog))

    def test_filter_on_unknown_attribute(self, sensor_catalog):
        profile = Profile(
            {"Temp": ALL_ATTRIBUTES},
            (Filter("Temp", Conjunction.from_atoms([Comparison("pressure", ">", 5)])),),
        )
        assert any(d.code == "COS102" for d in check_profile(profile, sensor_catalog))

    def test_filter_type_clash(self, sensor_catalog):
        profile = Profile(
            {"Temp": ALL_ATTRIBUTES},
            (Filter("Temp", Conjunction.from_atoms([Comparison("temperature", "=", "hot")])),),
        )
        assert any(d.code == "COS103" for d in check_profile(profile, sensor_catalog))
