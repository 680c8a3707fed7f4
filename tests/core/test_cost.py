"""The C(q) rate estimator."""

import math

import pytest

from repro.core import cost
from repro.core.cost import CostModel
from repro.cql.parser import parse_query
from repro.cql.predicates import Interval
from repro.cql.schema import Attribute, Catalog, StreamSchema


@pytest.fixture
def catalog(sensor_catalog):
    return sensor_catalog


def q(text):
    return parse_query(text)


def result_width(model, query, catalog):
    """Wire width of one result tuple: its columns, 8 bytes per aggregate."""
    return sum(model.column_widths(query, catalog).values()) + 8.0 * len(query.aggregates)


def tuple_rate(model, query, catalog):
    """Estimated result tuples per second."""
    return model._tuple_rate(query.streams, query.predicate, query.is_aggregate, catalog)


class TestSelectivity:
    def test_unfiltered_stream_full_rate(self, catalog):
        model = CostModel()
        query = q("SELECT T.temperature FROM Temp T")
        # Temp rate 2.0, width of temperature = 8.
        assert model.result_rate(query, catalog) == pytest.approx(16.0)

    def test_half_range_halves_rate(self, catalog):
        model = CostModel()
        query = q("SELECT T.temperature FROM Temp T WHERE T.temperature >= 10")
        # Domain [-20, 40] -> [10, 40] keeps 30/60 = 0.5.
        assert model.result_rate(query, catalog) == pytest.approx(8.0)

    def test_interval_selectivity_clamps_to_domain(self):
        model = CostModel()
        attr = Attribute("a", "float", 0, 10)
        assert model.interval_selectivity(Interval(-100, 5), attr) == pytest.approx(0.5)
        assert model.interval_selectivity(Interval(-100, 100), attr) == pytest.approx(1.0)

    def test_empty_interval_zero(self):
        model = CostModel()
        attr = Attribute("a", "float", 0, 10)
        assert model.interval_selectivity(Interval(5, 1), attr) == 0.0

    def test_point_on_int_domain(self):
        model = CostModel()
        attr = Attribute("a", "int", 0, 9)
        assert model.equality_selectivity(attr) == pytest.approx(0.1)

    def test_unknown_domain_uses_default(self):
        model = CostModel()
        assert (
            model.equality_selectivity(Attribute("a", "float"))
            == cost.DEFAULT_EQUALITY_SELECTIVITY
        )

    def test_unknown_domain_interval_halves_per_side(self):
        model = CostModel()
        attr = Attribute("a", "float")  # no domain
        assert model.interval_selectivity(Interval(lo=0), attr) == 0.5
        assert model.interval_selectivity(Interval(0, 1), attr) == 0.25

    def test_tighter_predicate_cheaper(self, catalog):
        model = CostModel()
        loose = q("SELECT T.temperature FROM Temp T WHERE T.temperature > 0")
        tight = q("SELECT T.temperature FROM Temp T WHERE T.temperature > 30")
        assert model.result_rate(tight, catalog) < model.result_rate(loose, catalog)


class TestWidth:
    def test_width_sums_projection(self, catalog):
        model = CostModel()
        narrow = q("SELECT T.station FROM Temp T")
        wide = q("SELECT T.station, T.temperature, T.humidity FROM Temp T")
        assert result_width(model, narrow, catalog) == 4.0
        assert result_width(model, wide, catalog) == 20.0

    def test_aggregate_width(self, catalog):
        model = CostModel()
        query = q("SELECT AVG(T.temperature) FROM Temp T GROUP BY T.station")
        assert result_width(model, query, catalog) == 4.0 + 8.0

    def test_implicit_timestamp_width(self, catalog):
        model = CostModel()
        query = q("SELECT T.timestamp FROM Temp T")
        assert result_width(model, query, catalog) == 8.0


class TestJoinRate:
    def test_window_sum_scaling(self, catalog):
        model = CostModel()
        small = q(
            "SELECT T.station FROM Temp [Range 10] T, Wind [Range 10] W "
            "WHERE T.station = W.station"
        )
        big = q(
            "SELECT T.station FROM Temp [Range 100] T, Wind [Range 100] W "
            "WHERE T.station = W.station"
        )
        assert tuple_rate(model, big, catalog) == pytest.approx(
            10 * tuple_rate(model, small, catalog)
        )

    def test_join_selectivity_from_domain(self, catalog):
        model = CostModel()
        query = q(
            "SELECT T.station FROM Temp T, Wind W WHERE T.station = W.station"
        )
        # station domain 0..9 -> selectivity 1/10.
        assert model._join_selectivity(query.streams, query.predicate, catalog) == pytest.approx(0.1)

    def test_cross_product_no_join_discount(self, catalog):
        model = CostModel()
        cross = q("SELECT T.station FROM Temp [Range 10] T, Wind [Range 10] W")
        joined = q(
            "SELECT T.station FROM Temp [Range 10] T, Wind [Range 10] W "
            "WHERE T.station = W.station"
        )
        assert tuple_rate(model, cross, catalog) > tuple_rate(model, 
            joined, catalog
        )

    def test_now_window_priced_with_epsilon(self, catalog):
        assert CostModel().effective_window(0.0) == cost.NOW_EPSILON

    def test_unbounded_capped_at_horizon(self, catalog):
        assert CostModel().effective_window(math.inf) == cost.HORIZON

    def test_aggregate_rate_is_filtered_arrival_rate(self, catalog):
        model = CostModel()
        query = q(
            "SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T GROUP BY T.station"
        )
        assert tuple_rate(model, query, catalog) == pytest.approx(2.0)


class TestMergingEconomics:
    def test_identical_queries_merge_halves_rate(self, catalog):
        from repro.core.merging import merge_queries

        model = CostModel()
        a = parse_query("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", name="a")
        b = parse_query("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", name="b")
        rep = merge_queries(a, b, catalog)
        c_rep = model.result_rate(rep, catalog)
        c_sum = model.result_rate(a, catalog) + model.result_rate(b, catalog)
        assert c_rep == pytest.approx(c_sum / 2)

    def test_disjoint_filters_make_merging_unattractive(self, catalog):
        from repro.core.merging import merge_queries

        model = CostModel()
        a = parse_query(
            "SELECT T.temperature FROM Temp T "
            "WHERE T.temperature >= -20 AND T.temperature <= -15",
            name="a",
        )
        b = parse_query(
            "SELECT T.temperature FROM Temp T "
            "WHERE T.temperature >= 35 AND T.temperature <= 40",
            name="b",
        )
        rep = merge_queries(a, b, catalog)
        c_rep = model.result_rate(rep, catalog)
        c_sum = model.result_rate(a, catalog) + model.result_rate(b, catalog)
        # The hull covers the whole gap: merging would cost more.
        assert c_rep > c_sum


class TestSourceFlowRate:
    def test_projection_shrinks_flow(self, catalog):
        model = CostModel()
        narrow = q("SELECT T.station FROM Temp T")
        wide = q("SELECT T.station, T.temperature, T.humidity FROM Temp T")
        assert model.source_flow_rate(narrow, "Temp", catalog) < model.source_flow_rate(
            wide, "Temp", catalog
        )

    def test_filter_attributes_included_in_flow(self, catalog):
        model = CostModel()
        plain = q("SELECT T.station FROM Temp T")
        filtered = q("SELECT T.station FROM Temp T WHERE T.temperature > 0")
        # The filter costs selectivity but adds the filtered attribute
        # to the wire; here selectivity (2/3) times the doubled width
        # still beats the unfiltered narrow flow.
        assert model.source_flow_rate(filtered, "Temp", catalog) != model.source_flow_rate(
            plain, "Temp", catalog
        )

    def test_selectivity_reduces_flow(self, catalog):
        model = CostModel()
        loose = q("SELECT T.station, T.temperature FROM Temp T WHERE T.temperature > 0")
        tight = q("SELECT T.station, T.temperature FROM Temp T WHERE T.temperature > 30")
        assert model.source_flow_rate(tight, "Temp", catalog) < model.source_flow_rate(
            loose, "Temp", catalog
        )


class TestGroupFlows:
    """The one enumeration of a group's flows at a hosting node."""

    def test_sources_in_from_order_then_members_in_order(self, catalog):
        model = CostModel()
        rep = q(
            "SELECT W.speed, T.temperature FROM Wind W, Temp T "
            "WHERE W.station = T.station"
        )
        a = q("SELECT T.temperature FROM Temp T WHERE T.temperature > 10")
        b = q("SELECT T.temperature FROM Temp T")
        flows = model.group_flows(
            rep, [(a, 4), (b, 3)], {"Temp": 0, "Wind": 1}, 2, catalog
        )
        canonical = rep.canonical(catalog)
        assert flows == [
            (1, 2, model.source_flow_rate(canonical, "Wind", catalog)),
            (0, 2, model.source_flow_rate(canonical, "Temp", catalog)),
            (2, 4, model.result_rate(a, catalog)),
            (2, 3, model.result_rate(b, catalog)),
        ]

    def test_source_flow_is_projected(self, catalog):
        model = CostModel()
        narrow = q("SELECT T.station FROM Temp T")
        (pull,) = model.group_flows(narrow, [], {"Temp": 0}, 2, catalog)
        schema = catalog.get("Temp")
        assert pull[2] == model.source_flow_rate(narrow, "Temp", catalog)
        assert pull[2] < schema.rate * sum(a.byte_width for a in schema.attributes)

    def test_stream_without_a_source_node_is_skipped(self, catalog):
        model = CostModel()
        query = q("SELECT T.temperature FROM Temp T")
        assert model.group_flows(query, [(query, 4)], {}, 2, catalog) == [
            (2, 4, model.result_rate(query, catalog))
        ]

    def test_aliases_do_not_change_the_flows(self, catalog):
        model = CostModel()
        aliased = q("SELECT x.temperature FROM Temp x WHERE x.temperature > 0")
        plain = aliased.canonical(catalog)
        assert model.group_flows(
            aliased, [(aliased, 4)], {"Temp": 0}, 2, catalog
        ) == model.group_flows(plain, [(plain, 4)], {"Temp": 0}, 2, catalog)

    def test_priced_cost_grows_with_distance(self, catalog, line_tree):
        model = CostModel()
        query = q("SELECT T.temperature FROM Temp T")

        def cost(processor, user):
            flows = model.group_flows(
                query, [(query, user)], {"Temp": 0}, processor, catalog
            )
            return line_tree.flow_cost(flows)

        assert cost(2, 4) > cost(1, 2)
