"""Per-node routing tables: install/remove, decisions, early projection."""

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.routing import RoutingTable
from repro.cql.predicates import Comparison, Conjunction
from repro.sim import reference


def cond(*atoms):
    return Conjunction.from_atoms(atoms)


def profile(attrs, *atoms, stream="S"):
    filters = [Filter(stream, cond(*atoms))] if atoms else []
    return Profile({stream: attrs}, filters)


class TestInstallRemove:
    def test_install_and_decide(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        assert table.decide(1, Datagram("S", {"a": 1})).forward

    def test_discard_is_exact(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(2, "s1", profile({"a"}))
        assert table.discard(1, "s1")
        assert not table.decide(1, Datagram("S", {"a": 1})).forward
        assert table.decide(2, Datagram("S", {"a": 1})).forward

    def test_discard_knows_no_id_prefixes(self):
        # The scan this replaced removed "a" and every "a#..." key, so a
        # subscription whose own id was "a#S" lost its entries with "a".
        table = RoutingTable(0)
        table.install(RoutingTable.LOCAL, "a#S", profile({"a"}))
        table.install(1, "a#S", profile({"a"}))
        table.install(1, "a#S#S", profile({"a"}))
        table.discard(RoutingTable.LOCAL, "a")
        table.discard(1, "a#S")
        assert list(table.local_profiles()) == ["a#S"]
        assert list(table.entries(1)) == ["a#S#S"]

    def test_remove_interface(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.remove_interface(1)
        assert table.entry_count == 0

    def test_entry_count(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"b"}))
        table.install(RoutingTable.LOCAL, "s3", profile({"a"}))
        assert table.entry_count == 3

    def test_narrower_profile_behind_the_same_interface_is_its_own_entry(self):
        table = RoutingTable(0)
        broad = profile({"a"}, Comparison("a", ">", 0))
        narrow = profile({"a"}, Comparison("a", ">", 5))
        table.install(1, "broad", broad)
        table.install(1, "narrow", narrow)
        assert table.entries(1) == {"broad": broad, "narrow": narrow}
        assert table.discard(1, "broad")
        assert table.entries(1) == {"narrow": narrow}
        assert not table.decide(1, Datagram("S", {"a": 1})).forward
        assert table.decide(1, Datagram("S", {"a": 6})).forward


class TestForwardDecision:
    def test_no_match_no_forward(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, Comparison("a", ">", 100)))
        decision = table.decide(1, Datagram("S", {"a": 1}))
        assert not decision.forward

    def test_projection_unions_coverers(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"b"}))
        decision = table.decide(1, Datagram("S", {"a": 1, "b": 2, "c": 3}))
        assert decision.forward
        assert decision.attributes == frozenset({"a", "b"})

    def test_all_attributes_disables_projection(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile(ALL_ATTRIBUTES))
        decision = table.decide(1, Datagram("S", {"a": 1}))
        assert decision.attributes is None

    def test_non_covering_profile_does_not_widen_projection(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"zzz"}, Comparison("a", "<", 0)))
        decision = table.decide(1, Datagram("S", {"a": 1, "zzz": 9}))
        assert decision.attributes is not None
        assert "zzz" not in decision.attributes

    def test_filter_attributes_retained_for_downstream_refiltering(self):
        # The downstream profile filters on b but only outputs a: b must
        # survive the early projection or the next hop drops the datagram.
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, Comparison("b", ">", 0)))
        decision = table.decide(1, Datagram("S", {"a": 1, "b": 5}))
        assert decision.attributes is not None
        assert "b" in decision.attributes


class TestLocalDeliveries:
    def test_projected_per_subscriber(self):
        table = RoutingTable(0)
        table.install(RoutingTable.LOCAL, "u1", profile({"a"}))
        table.install(RoutingTable.LOCAL, "u2", profile({"b"}, Comparison("b", ">", 10)))
        deliveries = dict(table.local_deliveries(Datagram("S", {"a": 1, "b": 20})))
        assert dict(deliveries["u1"].payload) == {"a": 1}
        assert dict(deliveries["u2"].payload) == {"b": 20}

    def test_uncovered_not_delivered(self):
        table = RoutingTable(0)
        table.install(RoutingTable.LOCAL, "u1", profile({"a"}, Comparison("a", ">", 5)))
        assert table.local_deliveries(Datagram("S", {"a": 1})) == []


class TestStreamIndex:
    def test_entries_bucketed_by_stream(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.install(1, "s2", profile({"b"}, stream="T"))
        for stream, expected in (("S", {"s1"}), ("T", {"s2"})):
            assert {
                eid for eid, p in table.entries(1).items() if stream in p.streams
            } == expected
        assert 1 in table.stream_interfaces("S")
        assert 1 not in table.stream_interfaces("U")

    def test_stream_interfaces(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.install(2, "s2", profile({"a"}, stream="S"))
        table.install(3, "s3", profile({"a"}, stream="T"))
        assert sorted(table.stream_interfaces("S")) == [1, 2]
        assert table.stream_interfaces("T") == [3]

    def test_discard_clears_index(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.discard(1, "s1")
        assert table.stream_interfaces("S") == []

    def test_remove_interface_clears_index(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.remove_interface(1)
        assert 1 not in table.stream_interfaces("S")

    def test_overwrite_reindexes_new_streams(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.install(1, "s1", profile({"a"}, stream="T"))
        assert 1 not in table.stream_interfaces("S")
        assert 1 in table.stream_interfaces("T")

    def test_decide_matches_reference_scan(self):
        datagrams = [
            Datagram("S", {"a": 1, "b": 2}),
            Datagram("S", {"a": 9, "b": 0}),
            Datagram("T", {"a": 1, "b": 2}),
        ]
        profiles = [
            ("s1", profile({"a"}, Comparison("a", ">", 0))),
            ("s2", profile(ALL_ATTRIBUTES, stream="T")),
            ("s3", profile({"b"}, Comparison("b", ">=", 2))),
        ]
        table = RoutingTable(0)
        for sid, prof in profiles:
            table.install(1, sid, prof)
        for datagram in datagrams:
            a = table.decide(1, datagram)
            b = reference.decide(table, 1, datagram)
            assert (a.forward, a.attributes) == (b.forward, b.attributes)


class TestEpoch:
    def test_install_bumps_epoch(self):
        table = RoutingTable(0)
        before = table.epoch
        table.install(1, "s1", profile({"a"}))
        assert table.epoch == before + 1

    def test_noop_discard_keeps_epoch(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        before = table.epoch
        assert not table.discard(1, "missing")
        assert not table.discard(2, "s1")
        assert table.epoch == before

    def test_identical_reinstall_is_a_noop(self):
        calls = []
        table = RoutingTable(0, on_change=calls.append)
        table.install(1, "a", profile({"a"}, Comparison("a", ">", 0)))
        table.install(1, "b", profile({"b"}))
        plan, epoch, version = table._plan(1, "S"), table.epoch, dict(table._stream_versions)
        table.install(1, "a", profile({"a"}, Comparison("a", ">", 0)))
        assert (table.epoch, table._stream_versions) == (epoch, version)
        assert table._plan(1, "S") is plan and len(calls) == 2
        # the entries keep their install order
        assert list(table.entries(1)) == ["a", "b"]

    def test_remove_missing_interface_keeps_epoch(self):
        table = RoutingTable(0)
        before = table.epoch
        table.remove_interface(9)
        assert table.epoch == before

    def test_on_change_called_per_mutation(self):
        calls = []
        table = RoutingTable(0, on_change=calls.append)
        table.install(1, "s1", profile({"a"}))
        table.discard(1, "s1")
        # One call per mutation, reporting the streams it touched.
        assert calls == [frozenset({"S"}), frozenset({"S"})]
        # An interface dropped with entries behind it reports theirs
        # (the network's route caches are versioned by these reports).
        table.install(1, "s2", profile({"a"}))
        table.install(1, "t1", profile({"a"}, stream="T"))
        version = dict(table._stream_versions)
        table.remove_interface(1)
        assert calls[-1] == frozenset({"S", "T"}) and len(calls) == 5
        assert all(table._stream_versions[s] == version[s] + 1 for s in "ST")

    def test_mutation_keeps_other_streams_plans_warm(self):
        # "S30" and "S7" have the same crc32 % 64: invalidation is per
        # stream name, not per hash bucket.
        for other in ("T", "S30"):
            table = RoutingTable(0)
            table.install(1, "a", profile({"a"}, stream="S7"))
            table.install(1, "b", profile({"a"}, stream=other))
            touched, warm = table._plan(1, "S7"), table._plan(1, other)
            table.install(1, "a2", profile({"b"}, stream="S7"))
            assert table._plan(1, other) is warm
            rebuilt = table._plan(1, "S7")
            assert rebuilt is not touched and len(rebuilt[0]) == 2
            table.discard(1, "a2")
            assert table._plan(1, other) is warm
            assert len(table._plan(1, "S7")[0]) == 1

    def test_a_plan_goes_with_its_bucket(self):
        table = RoutingTable(0)
        table.install(1, "a", profile({"a"}, stream="S"))
        table.install(1, "b", profile({"a"}, stream="T"))
        datagram = Datagram("S", {"a": 1})
        assert table.decide(1, datagram).forward
        # an interface or stream with no entry compiles (and keeps) nothing
        assert not table.decide(2, datagram).forward
        assert table.local_deliveries(datagram) == []
        assert not table.decide(1, Datagram("U", {"a": 1})).forward
        assert set(table._plans) == {(1, "S")}
        table.discard(1, "a")
        assert table._plans == {}
        assert not table.decide(1, datagram).forward
