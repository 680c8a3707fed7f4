"""Filters and ⟨S, P, F⟩ profiles: coverage, projection, matching."""

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile, ProfileError
from repro.cql.predicates import Comparison, Conjunction


def cond(*atoms):
    return Conjunction.from_atoms(atoms)


class TestFilter:
    def test_covers_matching_datagram(self):
        f = Filter("S", cond(Comparison("a", ">", 5)))
        assert f.covers(Datagram("S", {"a": 6}))
        assert not f.covers(Datagram("S", {"a": 5}))

    def test_wrong_stream_never_covered(self):
        f = Filter("S", Conjunction.true())
        assert not f.covers(Datagram("T", {"a": 6}))

    def test_trivial_filter_covers_all_of_stream(self):
        f = Filter("S")
        assert f.covers(Datagram("S", {}))


class TestProfileBasics:
    def test_triple_accessors(self):
        p = Profile(
            {"R": {"A", "B"}, "S": {"B", "C"}},
            [Filter("R", cond(Comparison("A", ">", 10)))],
        )
        assert p.streams == frozenset({"R", "S"})
        assert p.projection_for("R") == frozenset({"A", "B"})
        assert len(p.filters) == 1

    def test_filter_on_unrequested_stream_rejected(self):
        with pytest.raises(ProfileError):
            Profile({"R": {"A"}}, [Filter("S")])
        # at construction, whatever precedes it in F
        with pytest.raises(ProfileError):
            Profile({"R": {"A"}}, [Filter("R", cond(Comparison("A", ">", 0))),
                                   Filter("S")])

    def test_filters_for_is_a_fresh_list_in_f_order(self):
        first = Filter("S", cond(Comparison("a", ">", 10)))
        other = Filter("R", cond(Comparison("a", ">", 0)))
        second = Filter("S", cond(Comparison("a", "<", 0)))
        p = Profile({"R": {"a"}, "S": {"a"}}, [first, other, second])
        listed = p.filters_for("S")
        assert listed == [first, second]
        listed.clear()
        listed.append(other)
        assert p.filters_for("S") == [first, second]
        assert p.filters_for("S") is not p.filters_for("S")
        assert p.filters == (first, other, second)
        assert not p.covers(Datagram("S", {"a": 5}))
        assert p.covers(Datagram("S", {"a": -1}))
        assert p.filters_for("T") == []

    def test_projection_for_unknown_stream_raises(self):
        with pytest.raises(ProfileError):
            Profile({"R": {"A"}}).projection_for("S")


class TestCoverage:
    def test_disjunction_of_filters(self):
        # any of the stream's filters, the first or a later one, and a
        # filter of another stream in between changes nothing
        p = Profile(
            {"R": ALL_ATTRIBUTES, "S": ALL_ATTRIBUTES},
            [
                Filter("S", cond(Comparison("a", ">", 10))),
                Filter("R", cond(Comparison("a", "=", 5))),
                Filter("S", cond(Comparison("a", "<", 0))),
            ],
        )
        assert p.covers(Datagram("S", {"a": 11}))
        assert p.covers(Datagram("S", {"a": -1}))
        assert not p.covers(Datagram("S", {"a": 5}))
        assert p.covers(Datagram("R", {"a": 5}))

    def test_stream_without_filters_is_unconditional(self):
        p = Profile({"S": ALL_ATTRIBUTES})
        assert p.covers(Datagram("S", {"anything": 1}))
        # even when another stream of the profile is filtered
        p = Profile(
            {"R": {"a"}, "S": {"a"}}, [Filter("R", cond(Comparison("a", ">", 10)))]
        )
        assert p.covers(Datagram("S", {"a": 0}))
        assert not p.covers(Datagram("R", {"a": 0}))

    def test_unrequested_stream_not_covered(self):
        p = Profile({"S": ALL_ATTRIBUTES})
        assert not p.covers(Datagram("T", {"a": 1}))
        # even when the payload would pass a filter of the profile
        p = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 0)))])
        assert p.covers(Datagram("S", {"a": 1}))
        assert not p.covers(Datagram("T", {"a": 1}))
        assert p.apply(Datagram("T", {"a": 1})) is None

    def test_apply_is_covers_plus_projection(self):
        p = Profile(
            {"R": ALL_ATTRIBUTES, "S": {"a"}},
            [
                Filter("S", cond(Comparison("b", ">", 10))),
                Filter("S", cond(Comparison("b", "<", 0))),
            ],
        )
        for stream in ("R", "S", "T"):
            for b in (-1, 5, 11):
                d = Datagram(stream, {"a": 1, "b": b}, 2.0, 3)
                out = p.apply(d)
                if not p.covers(d):
                    assert out is None
                elif stream == "R":
                    assert out == d
                else:
                    assert out == d.project({"a"})
                    assert dict(out.payload) == {"a": 1}

    def test_apply_projects(self):
        p = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("b", ">", 0)))])
        out = p.apply(Datagram("S", {"a": 1, "b": 5}))
        assert out is not None
        assert dict(out.payload) == {"a": 1}

    def test_apply_none_when_uncovered(self):
        p = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("b", ">", 0)))])
        assert p.apply(Datagram("S", {"a": 1, "b": -5})) is None

    def test_apply_all_attributes_keeps_payload(self):
        p = Profile({"S": ALL_ATTRIBUTES})
        d = Datagram("S", {"a": 1, "b": 2})
        assert p.apply(d) == d


class TestMisc:
    def test_restricted_to(self):
        p = Profile(
            {"R": {"x"}, "S": {"y"}},
            [Filter("R", cond(Comparison("x", ">", 0)))],
            subscriber="u1",
        )
        r = p.restricted_to("R")
        assert r.streams == frozenset({"R"})
        assert len(r.filters) == 1
        assert r.subscriber == "u1"

    def test_size_estimate_positive(self):
        p = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 0)))])
        assert p.size_estimate() > 0

    def test_equality_ignores_subscriber(self):
        a = Profile({"S": {"a"}}, subscriber="u1")
        b = Profile({"S": {"a"}}, subscriber="u2")
        assert a == b
