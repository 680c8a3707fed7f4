"""Schemas and catalog behaviour."""

import pytest

from repro.cql.schema import Attribute, Catalog, SchemaError, StreamSchema


class TestAttribute:
    def test_defaults(self):
        attr = Attribute("temperature")
        assert attr.type == "float"
        assert attr.byte_width == 8

    def test_width_by_type(self):
        assert Attribute("a", "int").byte_width == 4
        assert Attribute("a", "str").byte_width == 16
        assert Attribute("a", "timestamp").byte_width == 8

    def test_explicit_width_wins(self):
        assert Attribute("a", "str", width=64).byte_width == 64

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("a", "blob")

    def test_empty_domain_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("a", "int", lo=5, hi=1)

    def test_is_numeric(self):
        assert Attribute("a", "int").is_numeric
        assert Attribute("a", "timestamp").is_numeric
        assert not Attribute("a", "str").is_numeric


class TestStreamSchema:
    def test_attribute_lookup(self):
        schema = StreamSchema("S", [Attribute("a", "int")])
        assert schema.attribute("a").type == "int"
        assert schema.has_attribute("a")
        assert not schema.has_attribute("b")

    def test_unknown_attribute_raises(self):
        schema = StreamSchema("S", [Attribute("a")])
        with pytest.raises(SchemaError):
            schema.attribute("zzz")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            StreamSchema("S", [Attribute("a"), Attribute("a")])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(SchemaError):
            StreamSchema("S", [Attribute("a")], rate=0)

    def test_tuple_width(self):
        schema = StreamSchema("S", [Attribute("a", "int"), Attribute("b", "float")])
        assert sum(a.byte_width for a in schema.attributes) == 12

    def test_width_of_projection(self):
        schema = StreamSchema(
            "S", [Attribute("a", "int"), Attribute("b", "float"), Attribute("c", "str")]
        )
        assert schema.width_of(["a", "c"]) == 20

    def test_attribute_names_ordered(self):
        schema = StreamSchema("S", [Attribute("z"), Attribute("a")])
        assert schema.attribute_names == ("z", "a")


class TestCatalog:
    def test_register_and_get(self):
        catalog = Catalog()
        catalog.register(StreamSchema("S", [Attribute("a")]))
        assert "S" in catalog
        assert catalog.get("S").name == "S"

    def test_unknown_stream_raises(self):
        with pytest.raises(SchemaError):
            Catalog().get("nope")

    def test_replace_schema(self):
        catalog = Catalog()
        catalog.register(StreamSchema("S", [Attribute("a")], rate=1.0))
        catalog.register(StreamSchema("S", [Attribute("a")], rate=9.0))
        assert catalog.get("S").rate == 9.0
        assert len(catalog) == 1

    def test_stream_names_sorted(self):
        catalog = Catalog(
            [StreamSchema("Z", [Attribute("a")]), StreamSchema("A", [Attribute("a")])]
        )
        assert catalog.stream_names == ["A", "Z"]
