"""Filters and ⟨S, P, F⟩ profiles: coverage, subsumption, merging."""

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

    def test_subsumption(self):
        broad = Filter("S", cond(Comparison("a", ">", 0)))
        narrow = Filter("S", cond(Comparison("a", ">", 10)))
        assert broad.subsumes(narrow)
        assert not narrow.subsumes(broad)

    def test_subsumption_across_streams_false(self):
        assert not Filter("S").subsumes(Filter("T"))

    def test_string_against_number_is_not_subsumed(self):
        numeric = Filter("S", cond(Comparison("a", ">", 10)))
        text = Filter("S", cond(Comparison("a", "=", "x")))
        assert not numeric.subsumes(text)
        assert not text.subsumes(numeric)


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

    def test_projection_for_unknown_stream_raises(self):
        with pytest.raises(ProfileError):
            Profile({"R": {"A"}}).projection_for("S")


class TestCoverage:
    def test_disjunction_of_filters(self):
        p = Profile(
            {"S": ALL_ATTRIBUTES},
            [
                Filter("S", cond(Comparison("a", ">", 10))),
                Filter("S", cond(Comparison("a", "<", 0))),
            ],
        )
        assert p.covers(Datagram("S", {"a": 11}))
        assert p.covers(Datagram("S", {"a": -1}))
        assert not p.covers(Datagram("S", {"a": 5}))

    def test_stream_without_filters_is_unconditional(self):
        p = Profile({"S": ALL_ATTRIBUTES})
        assert p.covers(Datagram("S", {"anything": 1}))

    def test_unrequested_stream_not_covered(self):
        p = Profile({"S": ALL_ATTRIBUTES})
        assert not p.covers(Datagram("T", {"a": 1}))

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


class TestSubsumption:
    def test_identical_profiles_subsume(self):
        p = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 1)))])
        assert p.subsumes(p)

    def test_wider_filter_subsumes(self):
        broad = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 0)))])
        narrow = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 9)))])
        assert broad.subsumes(narrow)
        assert not narrow.subsumes(broad)

    def test_projection_must_cover(self):
        big = Profile({"S": {"a", "b"}})
        small = Profile({"S": {"a"}})
        assert big.subsumes(small)
        assert not small.subsumes(big)

    def test_all_attributes_absorbs(self):
        every = Profile({"S": ALL_ATTRIBUTES})
        some = Profile({"S": {"a"}})
        assert every.subsumes(some)
        assert not some.subsumes(every)

    def test_missing_stream_fails(self):
        p = Profile({"S": ALL_ATTRIBUTES})
        q = Profile({"S": ALL_ATTRIBUTES, "T": ALL_ATTRIBUTES})
        assert q.subsumes(p)
        assert not p.subsumes(q)

    def test_string_against_number_is_not_subsumed(self):
        numeric = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 10)))])
        text = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", "=", "x")))])
        assert not numeric.subsumes(text)
        assert not text.subsumes(numeric)

    def test_unconditional_request_not_subsumed_by_filtered(self):
        filtered = Profile({"S": ALL_ATTRIBUTES}, [Filter("S", cond(Comparison("a", ">", 0)))])
        everything = Profile({"S": ALL_ATTRIBUTES})
        assert everything.subsumes(filtered)
        assert not filtered.subsumes(everything)


class TestMerge:
    def test_merge_unions_streams(self):
        a = Profile({"R": {"x"}})
        b = Profile({"S": {"y"}})
        merged = a.merge(b)
        assert merged.streams == frozenset({"R", "S"})

    def test_merge_unions_projections(self):
        a = Profile({"S": {"x"}})
        b = Profile({"S": {"y"}})
        assert a.merge(b).projection_for("S") == frozenset({"x", "y"})

    def test_merge_all_attributes_absorbs(self):
        a = Profile({"S": ALL_ATTRIBUTES})
        b = Profile({"S": {"y"}})
        assert a.merge(b).projection_for("S") == ALL_ATTRIBUTES

    def test_merge_keeps_both_filters(self):
        fa = Filter("S", cond(Comparison("a", ">", 0)))
        fb = Filter("S", cond(Comparison("a", "<", -5)))
        merged = Profile({"S": {"a"}}, [fa]).merge(Profile({"S": {"a"}}, [fb]))
        assert set(merged.filters) == {fa, fb}

    def test_merge_unconditional_absorbs_filters(self):
        filtered = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 0)))])
        unconditional = Profile({"S": {"a"}})
        merged = filtered.merge(unconditional)
        assert merged.filters_for("S") == []

    def test_merge_subsumes_both(self):
        a = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 5)))])
        b = Profile({"S": {"b"}}, [Filter("S", cond(Comparison("b", "<", 1)))])
        merged = a.merge(b)
        assert merged.subsumes(a)
        assert merged.subsumes(b)

    def test_merge_dedupes_filters(self):
        f = Filter("S", cond(Comparison("a", ">", 0)))
        merged = Profile({"S": {"a"}}, [f]).merge(Profile({"S": {"a"}}, [f]))
        assert len(merged.filters) == 1


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
