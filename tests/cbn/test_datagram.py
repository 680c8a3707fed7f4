"""Datagram semantics: projection, sizes, equality, value contract."""

import copy
import pickle

import pytest

from repro.cbn.datagram import Datagram

FIELDS = ("stream", "payload", "timestamp", "seq")


class TestBasics:
    def test_payload_is_copied(self):
        payload = {"a": 1}
        d = Datagram("S", payload, 1.0)
        payload["a"] = 99
        assert d.value("a") == 1

    def test_attributes(self):
        d = Datagram("S", {"a": 1, "b": 2})
        assert d.attributes == frozenset({"a", "b"})
        assert "a" in d and "z" not in d

    def test_equality_and_hash(self):
        a = Datagram("S", {"a": 1}, 2.0)
        b = Datagram("S", {"a": 1}, 2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Datagram("S", {"a": 2}, 2.0)
        assert a != Datagram("T", {"a": 1}, 2.0)


class TestValueContract:
    """A slotted, immutable value: no field can be set or deleted, no
    per-instance dict, and copies rebuild through the constructor."""

    @pytest.mark.parametrize("name", FIELDS)
    def test_setting_a_field_raises(self, name):
        d = Datagram("S", {"a": 1}, 2.0, 5)
        with pytest.raises(AttributeError):
            setattr(d, name, getattr(d, name))
        assert d == Datagram("S", {"a": 1}, 2.0, 5)

    @pytest.mark.parametrize("name", FIELDS)
    def test_deleting_a_field_raises(self, name):
        d = Datagram("S", {"a": 1}, 2.0, 5)
        with pytest.raises(AttributeError):
            delattr(d, name)
        assert getattr(d, name) == getattr(Datagram("S", {"a": 1}, 2.0, 5), name)

    def test_no_new_attribute_and_no_instance_dict(self):
        d = Datagram("S", {"a": 1})
        assert not hasattr(d, "__dict__")
        with pytest.raises(AttributeError):
            d.extra = 1

    def test_constructor_normalises_timestamp_and_seq(self):
        d = Datagram("s", {"a": 1}, 2, 3)
        assert d.timestamp == 2.0 and type(d.timestamp) is float
        assert d.seq == 3 and type(d.seq) is int
        assert Datagram("s", {"a": 1}).timestamp == 0.0
        assert Datagram("s", {"a": 1}).seq is None

    @pytest.mark.parametrize("seq", [None, 5])
    def test_copy_deepcopy_and_pickle_round_trip(self, seq):
        d = Datagram("S", {"a": 1, "b": "x"}, 2.5, seq)
        shallow = copy.copy(d)
        deep = copy.deepcopy(d)
        pickled = pickle.loads(pickle.dumps(d))
        for twin in (shallow, deep, pickled):
            assert type(twin) is Datagram
            assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
            assert tuple(twin.payload) == tuple(d.payload)
        assert deep.payload is not d.payload


class TestOwning:
    """``Datagram.owning`` takes over a fresh dict instead of copying it;
    the value it builds is the one the public constructor builds on the
    same dict, with the same contract."""

    @staticmethod
    def fresh():
        return {"a": 1, "b": 2.5, "s": "x", "flag": True}

    @pytest.mark.parametrize("seq", [None, 5])
    def test_equals_the_publicly_built_value(self, seq):
        owned = Datagram.owning("S", self.fresh(), 2.5, seq)
        public = Datagram("S", self.fresh(), 2.5, seq)
        assert type(owned) is Datagram
        assert owned == public and public == owned
        assert hash(owned) == hash(public)
        assert repr(owned) == repr(public)
        assert tuple(owned.payload) == tuple(public.payload)
        assert owned.size_bytes() == public.size_bytes()
        widths = {"a": 2, "s": 3}
        assert owned.size_bytes(widths) == public.size_bytes(widths)
        assert owned != Datagram("S", self.fresh(), 2.5, 6)

    def test_takes_the_dict_over(self):
        payload = self.fresh()
        assert Datagram.owning("S", payload, 1.0).payload is payload
        assert Datagram("S", payload, 1.0).payload is not payload

    def test_nothing_is_coerced(self):
        owned = Datagram.owning("S", {"a": 1}, 1.0, 3)
        assert (owned.stream, owned.timestamp, owned.seq) == ("S", 1.0, 3)
        assert Datagram.owning("S", {"a": 1}, 1.0).seq is None

    @pytest.mark.parametrize("name", FIELDS)
    def test_immutable(self, name):
        d = Datagram.owning("S", {"a": 1}, 2.0, 5)
        with pytest.raises(AttributeError):
            setattr(d, name, getattr(d, name))
        with pytest.raises(AttributeError):
            delattr(d, name)
        assert d == Datagram("S", {"a": 1}, 2.0, 5)

    def test_slotted(self):
        d = Datagram.owning("S", {"a": 1}, 2.0)
        assert not hasattr(d, "__dict__")
        with pytest.raises(AttributeError):
            d.extra = 1

    @pytest.mark.parametrize("seq", [None, 5])
    def test_copy_deepcopy_and_pickle_round_trip(self, seq):
        d = Datagram.owning("S", self.fresh(), 2.5, seq)
        public = Datagram("S", self.fresh(), 2.5, seq)
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(twin) is Datagram
            assert twin == d == public
            assert hash(twin) == hash(public) and repr(twin) == repr(public)
            assert tuple(twin.payload) == tuple(d.payload)
        # copies rebuild through the copying constructor
        assert copy.copy(d).payload is not d.payload
        assert pickle.dumps(d) == pickle.dumps(public)

    def test_a_projection_owns_a_fresh_dict(self):
        d = Datagram("S", {"a": 1, "b": 2}, 2.0, 5)
        p = d.project({"a"})
        assert p == Datagram("S", {"a": 1}, 2.0, 5)
        assert p.payload is not d.payload
        assert d.project({"a", "b"}).payload is not d.payload


class TestSequenceNumbers:
    def test_seq_participates_in_equality_and_hash(self):
        a = Datagram("S", {"a": 1}, 2.0, 5)
        b = Datagram("S", {"a": 1}, 2.0, 5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Datagram("S", {"a": 1}, 2.0)
        assert a != Datagram("S", {"a": 1}, 2.0, 6)

    def test_seq_shown_in_repr(self):
        assert "#5" in repr(Datagram("S", {"a": 1}, 2.0, 5))
        assert "#" not in repr(Datagram("S", {"a": 1}, 2.0))

    def test_project_and_relabel_preserve_seq(self):
        d = Datagram("S", {"a": 1, "b": 2}, 2.0, 5)
        assert d.project({"a"}).seq == 5
        assert d.relabel("results").seq == 5

    def test_seq_adds_wire_size(self):
        plain = Datagram("S", {"a": 1}, 2.0)
        sequenced = Datagram("S", {"a": 1}, 2.0, 5)
        assert sequenced.size_bytes() == plain.size_bytes() + 8


class TestProjection:
    def test_project_keeps_subset(self):
        d = Datagram("S", {"a": 1, "b": 2, "c": 3})
        p = d.project({"a", "c"})
        assert dict(p.payload) == {"a": 1, "c": 3}

    def test_project_ignores_missing(self):
        d = Datagram("S", {"a": 1})
        p = d.project({"a", "zzz"})
        assert dict(p.payload) == {"a": 1}

    def test_project_preserves_stream_and_time(self):
        d = Datagram("S", {"a": 1}, 5.0)
        p = d.project({"a"})
        assert p.stream == "S" and p.timestamp == 5.0

    def test_relabel(self):
        d = Datagram("S", {"a": 1}, 5.0)
        r = d.relabel("results")
        assert r.stream == "results"
        assert dict(r.payload) == {"a": 1}


class TestSize:
    def test_fallback_widths(self):
        d = Datagram("S", {"i": 1, "f": 1.5, "s": "xy"})
        assert d.size_bytes() == 4 + 8 + 16

    def test_schema_widths_override(self):
        d = Datagram("S", {"i": 1, "f": 1.5})
        assert d.size_bytes({"i": 2, "f": 2}) == 4

    def test_partial_schema_widths(self):
        d = Datagram("S", {"i": 1, "f": 1.5})
        assert d.size_bytes({"i": 2}) == 2 + 8

    def test_projection_shrinks_size(self):
        d = Datagram("S", {"a": 1.0, "b": 2.0, "c": 3.0})
        assert d.project({"a"}).size_bytes() < d.size_bytes()

    def test_empty_payload_is_free(self):
        assert Datagram("S", {}, 7.0).size_bytes() == 0
        assert Datagram("S", {}, 7.0, 3).size_bytes() == 8  # the seq alone

    def test_bool_is_one_byte_not_an_int(self):
        assert Datagram("S", {"flag": True}).size_bytes() == 1

    def test_int_and_string_widths_are_fixed(self):
        # the widths are per type: value magnitude and text length
        # (or encoding) do not move them
        small = Datagram("S", {"i": 0, "s": ""})
        large = Datagram("S", {"i": -(2**40), "s": "été ☃" * 50})
        assert small.size_bytes() == large.size_bytes() == 4 + 16

    def test_untyped_value_falls_back_to_sixteen(self):
        assert Datagram("S", {"x": None}).size_bytes() == 16

    def test_stream_name_and_timestamp_carry_no_bytes(self):
        d = Datagram("S", {"a": 1, "b": 2.0}, 1.0)
        assert Datagram("a-much-longer-stream-name", d.payload, 9e9).size_bytes() == (
            d.size_bytes()
        )
        assert d.relabel("results").size_bytes() == d.size_bytes()

    def test_widths_of_absent_attributes_ignored(self):
        d = Datagram("S", {"a": 1})
        assert d.size_bytes({"a": 2, "zzz": 100}) == 2
