"""Flooded vs DHT schema distribution."""

import pytest

from repro.cbn.schema_registry import DHTSchemaRegistry, FloodedSchemaRegistry
from repro.cql.schema import Attribute, StreamSchema


def schema(name):
    return StreamSchema(name, [Attribute("a", "int")], rate=1.0)


class TestFlooded:
    def test_lookup_from_any_node(self, line_tree):
        reg = FloodedSchemaRegistry(line_tree)
        reg.register(schema("S"), 0)
        for node in line_tree.nodes:
            assert reg.lookup("S", node).name == "S"

    def test_unknown_stream_none(self, line_tree):
        reg = FloodedSchemaRegistry(line_tree)
        assert reg.lookup("nope", 0) is None

    def test_registration_costs_every_link(self, line_tree):
        reg = FloodedSchemaRegistry(line_tree)
        reg.register(schema("S"), 0)
        assert reg.stats.total_messages() == len(line_tree.edges)

    def test_lookup_is_free(self, line_tree):
        reg = FloodedSchemaRegistry(line_tree)
        reg.register(schema("S"), 0)
        before = reg.stats.total_messages()
        reg.lookup("S", 4)
        assert reg.stats.total_messages() == before


class TestDHT:
    def test_register_then_lookup(self, line_tree):
        reg = DHTSchemaRegistry(line_tree)
        reg.register(schema("S"), 0)
        assert reg.lookup("S", 4).name == "S"

    def test_unknown_stream_none(self, line_tree):
        reg = DHTSchemaRegistry(line_tree)
        assert reg.lookup("nope", 0) is None

    def test_lookups_cost_traffic(self, line_tree):
        reg = DHTSchemaRegistry(line_tree)
        reg.register(schema("S"), 0)
        before = reg.stats.total_bytes()
        for node in line_tree.nodes:
            reg.lookup("S", node)
        assert reg.stats.total_bytes() > before

    def test_registration_cheaper_than_flooding_on_big_tree(self, small_tree):
        flooded = FloodedSchemaRegistry(small_tree)
        dht = DHTSchemaRegistry(small_tree)
        for i in range(5):
            flooded.register(schema(f"S{i}"), 0)
            dht.register(schema(f"S{i}"), 0)
        assert dht.stats.total_messages() < flooded.stats.total_messages()

    def test_replicated_registration(self, small_tree):
        reg = DHTSchemaRegistry(small_tree, replicas=3)
        reg.register(schema("S"), 0)
        assert reg.lookup("S", 5).name == "S"

    def test_registration_charges_the_path_to_each_replica(self, line_tree):
        reg = DHTSchemaRegistry(line_tree, replicas=2)
        reg.register(schema("S"), 0)
        owners = reg._store.ring.owners("S", 2)
        assert reg.stats.total_messages() == sum(
            len(line_tree.path_edges(0, owner)) for owner in owners)

    def test_a_lookup_pays_request_and_response_along_the_path(self, line_tree):
        reg = DHTSchemaRegistry(line_tree)
        reg.register(schema("S"), 0)
        primary = reg._store.ring.owners("S", 1)[0]
        asker = 4 if primary != 4 else 0
        hops = len(line_tree.path_edges(asker, primary))
        before = (reg.stats.total_messages(), reg.stats.total_bytes())
        reg.lookup("S", asker)
        assert (reg.stats.total_messages() - before[0],
                reg.stats.total_bytes() - before[1]) == (2 * hops, hops * (16.0 + 64.0))

    def test_a_lookup_at_the_primary_is_free(self, line_tree):
        reg = DHTSchemaRegistry(line_tree)
        reg.register(schema("S"), 0)
        before = reg.stats.total_messages()
        assert reg.lookup("S", reg._store.ring.owners("S", 1)[0]).name == "S"
        assert reg.stats.total_messages() == before

    def test_a_missed_lookup_pays_only_the_request(self, line_tree):
        reg = DHTSchemaRegistry(line_tree)
        primary = reg._store.ring.owners("nope", 1)[0]
        asker = 4 if primary != 4 else 0
        assert reg.lookup("nope", asker) is None
        assert reg.stats.total_messages() == len(line_tree.path_edges(asker, primary))
