"""The Figure 3 delivery cost model."""

import pytest

from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer
from repro.cql.parser import parse_query
from repro.system.delivery import DeliveryCostModel, GroupPlacement


def q(text, name):
    return parse_query(text, name=name)


@pytest.fixture
def placed_group(sensor_catalog, star_tree):
    """Two overlapping queries grouped, processor at node 1, users at 3, 4."""
    optimizer = GroupingOptimizer(sensor_catalog, CostModel())
    optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 10", "a"))
    optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", "b"))
    assert optimizer.group_count == 1
    group = optimizer.groups[0]
    return GroupPlacement(group, 1, {"a": 3, "b": 4})


class TestCosts:
    def test_unshared_sums_member_paths(self, sensor_catalog, star_tree, placed_group):
        model = DeliveryCostModel(star_tree, sensor_catalog)
        cost_model = CostModel()
        rate_a = cost_model.result_rate(placed_group.group.members[0], sensor_catalog)
        rate_b = cost_model.result_rate(placed_group.group.members[1], sensor_catalog)
        expected = rate_a * 2 + rate_b * 2  # both users 2 hops away
        assert model.unshared_cost(placed_group) == pytest.approx(expected)

    def test_shared_cheaper_on_common_link(self, sensor_catalog, star_tree, placed_group):
        model = DeliveryCostModel(star_tree, sensor_catalog)
        assert model.shared_cost(placed_group) < model.unshared_cost(placed_group)

    def test_benefit_ratio_in_unit_interval(self, sensor_catalog, star_tree, placed_group):
        model = DeliveryCostModel(star_tree, sensor_catalog)
        ratio = model.benefit_ratio([placed_group])
        assert 0 < ratio < 1

    def test_singleton_group_no_benefit(self, sensor_catalog, star_tree):
        optimizer = GroupingOptimizer(sensor_catalog, CostModel())
        optimizer.add(q("SELECT T.temperature FROM Temp T", "solo"))
        placement = GroupPlacement(optimizer.groups[0], 1, {"solo": 3})
        model = DeliveryCostModel(star_tree, sensor_catalog)
        assert model.shared_cost(placement) == pytest.approx(
            model.unshared_cost(placement)
        )
        assert model.benefit_ratio([placement]) == pytest.approx(0.0)

    def test_user_at_processor_costs_nothing(self, sensor_catalog, star_tree):
        optimizer = GroupingOptimizer(sensor_catalog, CostModel())
        optimizer.add(q("SELECT T.temperature FROM Temp T", "here"))
        placement = GroupPlacement(optimizer.groups[0], 1, {"here": 1})
        model = DeliveryCostModel(star_tree, sensor_catalog)
        assert model.unshared_cost(placement) == 0.0
        assert model.shared_cost(placement) == 0.0

    def test_divergent_edges_carry_member_rate(self, sensor_catalog, star_tree, placed_group):
        # On the star, edges 0-3 and 0-4 have exactly one member behind
        # them; only 1-0 is shared.  Shared cost must price the leaf
        # edges at the members' own rates.
        model = DeliveryCostModel(star_tree, sensor_catalog)
        cost_model = CostModel()
        group = placed_group.group
        rate = {m.name: cost_model.result_rate(m, sensor_catalog) for m in group.members}
        rep_rate = cost_model.result_rate(group.representative, sensor_catalog)
        expected = rate["a"] + rate["b"] + min(rep_rate, rate["a"] + rate["b"])
        assert model.shared_cost(placed_group) == pytest.approx(expected)

    def test_empty_placements(self, sensor_catalog, star_tree):
        model = DeliveryCostModel(star_tree, sensor_catalog)
        assert model.benefit_ratio([]) == 0.0


class TestSharedResultDelivery:
    """What the cost model approximates, measured on the live system:
    two grouped queries, processor and source at node 1, users at 3, 4."""

    @pytest.fixture
    def system(self, sensor_catalog, star_tree):
        from repro.system.cosmos import CosmosSystem

        system = CosmosSystem(star_tree, processor_nodes=[1])
        system.add_source(sensor_catalog.get("Temp"), 1)
        system.submit("SELECT T.temperature FROM Temp T WHERE T.temperature > 10",
                      user_node=3, name="a")
        system.submit("SELECT T.temperature FROM Temp T WHERE T.temperature > 20",
                      user_node=4, name="b")
        assert system.grouping_summary()["groups"] == 1.0
        return system

    def publish(self, system, temperatures):
        for index, value in enumerate(temperatures):
            system.publish("Temp", {"station": 1, "temperature": value,
                                    "humidity": 50.0, "timestamp": float(index)},
                           float(index))

    def test_members_receive_the_retightened_feed(self, system):
        self.publish(system, [15.0, 25.0, 30.0, 12.0])
        # the group's feed carries all four; "b" re-tightens to > 20
        # where its branch leaves the shared path
        assert [r.payload["Temp.temperature"] for r in system.query("a").results] == [
            15.0, 25.0, 30.0, 12.0]
        assert [r.payload["Temp.temperature"] for r in system.query("b").results] == [
            25.0, 30.0]

    def test_the_shared_link_carries_each_result_once(self, system):
        self.publish(system, [25.0])
        stats = system.network.data_stats
        # processor 1 -> hub 0 is shared by both users: one message, not
        # one per member
        assert stats.usage(1, 0).messages == 1
        assert stats.usage(0, 3).messages == 1
        assert stats.usage(0, 4).messages == 1
