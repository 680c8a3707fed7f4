"""COS2xx: seeded satisfiability defects must be flagged."""

from repro.analysis.satisfiability import check_filter, check_predicate
from repro.cbn.filters import Filter
from repro.cql.parser import parse_query
from repro.cql.predicates import Comparison, Conjunction


def _filter(*atoms, stream="Temp"):
    return Filter(stream, Conjunction.from_atoms(list(atoms)))


class TestCheckPredicate:
    def test_clean(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T WHERE T.temperature > 30",
            name="q",
        )
        assert check_predicate(query, sensor_catalog).is_clean

    def test_unsatisfiable_where(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.temperature > 30 AND T.temperature < 10",
            name="q",
        )
        report = check_predicate(query, sensor_catalog)
        assert report.has("COS201")
        [diag] = report.errors
        assert diag.pos is not None  # points at the offending atom

    def test_mixed_type_equality_class_is_unsatisfiable(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.station = T.humidity AND T.station > 1 "
            "AND T.humidity < 'b'",
            name="q",
        )
        assert check_predicate(query, sensor_catalog).has("COS201")

    def test_outside_declared_domain(self, sensor_catalog):
        # Temp.temperature is declared in [-20, 40].
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T WHERE T.temperature > 90",
            name="q",
        )
        report = check_predicate(query, sensor_catalog)
        assert report.has("COS204")
        assert not report.has("COS201")  # satisfiable per se
        assert report.exit_code() == 0  # warning

    def test_cross_attribute_domain_conflict(self, sensor_catalog):
        # Satisfiable standalone, but humidity in [0, 100] makes
        # station = humidity impossible when station must exceed 200.
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.station = T.humidity AND T.station > 200",
            name="q",
        )
        report = check_predicate(query, sensor_catalog)
        assert report.has("COS204")

    def test_vacuous_conjunct(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.temperature > 30 AND T.temperature > 10",
            name="q",
        )
        report = check_predicate(query, sensor_catalog)
        assert report.has("COS202")
        [diag] = [d for d in report if d.code == "COS202"]
        assert "> 10" in diag.message


class TestCheckFilter:
    def test_unsatisfiable_filter(self, sensor_catalog):
        filt = _filter(
            Comparison("temperature", ">", 30),
            Comparison("temperature", "<", 10),
        )
        assert check_filter(filt, sensor_catalog).has("COS201")

    def test_filter_outside_domain(self, sensor_catalog):
        filt = _filter(Comparison("temperature", ">", 90))
        report = check_filter(filt, sensor_catalog)
        assert report.has("COS204")

    def test_unknown_stream_is_not_a_cos2_matter(self, sensor_catalog):
        # COS101 is the schema family's job; satisfiability just skips
        # the domain seeds it cannot find.
        filt = Filter(
            "Pressure",
            Conjunction.from_atoms([Comparison("x", ">", 5)]),
        )
        assert check_filter(filt, sensor_catalog).is_clean
