"""Per-node routing tables: install/remove, decisions, early projection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn import filters
from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cbn.routing import ConditionBits, RoutingTable
from repro.cql.predicates import Comparison, Conjunction
from repro.overlay.tree import DisseminationTree
from repro.sim import reference


def cond(*atoms):
    return Conjunction.from_atoms(atoms)


def profile(attrs, *atoms, stream="S"):
    filters = [Filter(stream, cond(*atoms))] if atoms else []
    return Profile({stream: attrs}, filters)


def coverage(table, datagram):
    """What a router hands ``table`` for ``datagram``: the
    :class:`ConditionBits` of the distinct conditions the table's
    entries hold on its stream, in first-seen order, and the datagram's
    live mask, each bit by ``Conjunction.evaluate`` on the payload."""
    conjunctions = {}
    for interface in table.interfaces:
        for stored in table.entries(interface).values():
            for flt in stored.filters_for(datagram.stream):
                conjunctions[flt.condition] = None
    bits = ConditionBits(conjunctions)
    live = bits.always
    for index, conjunction in enumerate(conjunctions):
        if conjunction.evaluate(datagram.payload):
            live |= 1 << index
    return live, bits


def decide(table, interface, datagram):
    return table.decide(interface, datagram.stream, *coverage(table, datagram))


def local_deliveries(table, datagram):
    return table.local_deliveries(datagram, *coverage(table, datagram))


class TestInstallRemove:
    def test_install_and_decide(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        assert decide(table, 1, Datagram("S", {"a": 1})).forward

    def test_discard_is_exact(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(2, "s1", profile({"a"}))
        assert table.discard(1, "s1")
        assert not decide(table, 1, Datagram("S", {"a": 1})).forward
        assert decide(table, 2, Datagram("S", {"a": 1})).forward

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
        assert not decide(table, 1, Datagram("S", {"a": 1})).forward
        assert decide(table, 1, Datagram("S", {"a": 6})).forward


class TestForwardDecision:
    def test_no_match_no_forward(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, Comparison("a", ">", 100)))
        decision = decide(table, 1, Datagram("S", {"a": 1}))
        assert not decision.forward

    def test_projection_unions_coverers(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"b"}))
        decision = decide(table, 1, Datagram("S", {"a": 1, "b": 2, "c": 3}))
        assert decision.forward
        assert decision.attributes == frozenset({"a", "b"})

    def test_all_attributes_disables_projection(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile(ALL_ATTRIBUTES))
        decision = decide(table, 1, Datagram("S", {"a": 1}))
        assert decision.attributes is None

    def test_non_covering_profile_does_not_widen_projection(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"zzz"}, Comparison("a", "<", 0)))
        decision = decide(table, 1, Datagram("S", {"a": 1, "zzz": 9}))
        assert decision.attributes is not None
        assert "zzz" not in decision.attributes

    def test_filter_attributes_retained_for_downstream_refiltering(self):
        # The downstream profile filters on b but only outputs a: b must
        # survive the early projection or the next hop drops the datagram.
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, Comparison("b", ">", 0)))
        decision = decide(table, 1, Datagram("S", {"a": 1, "b": 5}))
        assert decision.attributes is not None
        assert "b" in decision.attributes


class TestLocalDeliveries:
    def test_projected_per_subscriber(self):
        table = RoutingTable(0)
        table.install(RoutingTable.LOCAL, "u1", profile({"a"}))
        table.install(RoutingTable.LOCAL, "u2", profile({"b"}, Comparison("b", ">", 10)))
        deliveries = dict(local_deliveries(table, Datagram("S", {"a": 1, "b": 20})))
        assert dict(deliveries["u1"].payload) == {"a": 1}
        assert dict(deliveries["u2"].payload) == {"b": 20}

    def test_uncovered_not_delivered(self):
        table = RoutingTable(0)
        table.install(RoutingTable.LOCAL, "u1", profile({"a"}, Comparison("a", ">", 5)))
        assert local_deliveries(table, Datagram("S", {"a": 1})) == []


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_decisions_match_the_reference_scan(self, data):
        """Random buckets — entries wanting all attributes anywhere in
        them, entries replaced (by an equal profile or another one) and
        discarded between datagrams — decide and deliver what the
        reference scan does, projected attributes and their order
        included, on a datagram and on a projected copy of it whose live
        mask is derived from the datagram's."""
        table = RoutingTable(0)
        interfaces = [RoutingTable.LOCAL, 1, 2]
        for step in range(data.draw(st.integers(1, 24), label="steps")):
            op = data.draw(st.sampled_from(["install", "install", "discard", "publish"]))
            interface = data.draw(st.sampled_from(interfaces), label=f"if{step}")
            entry = data.draw(st.sampled_from(ENTRY_IDS), label=f"id{step}")
            if op == "install":
                stored = table.entries(interface).get(entry)
                if stored is not None and data.draw(st.booleans(), label=f"same{step}"):
                    table.install(interface, entry, Profile(stored.projections, stored.filters))
                else:
                    table.install(interface, entry, draw_profile(data, f"p{step}"))
            elif op == "discard":
                table.discard(interface, entry)
            else:
                datagram = draw_datagram(data, f"d{step}")
                live, bits = coverage(table, datagram)
                # an upstream hop may have projected attributes away: the
                # copy keeps the original's live bits whose conditions
                # reference only attributes that survived
                kept = data.draw(st.sets(st.sampled_from(ATTRS)), label=f"kept{step}")
                copy = datagram.project(kept)
                for current, mask in (
                    (datagram, live), (copy, bits.surviving(live, copy.payload))
                ):
                    for neighbor in interfaces[1:]:
                        fast = table.decide(neighbor, current.stream, mask, bits)
                        naive = reference.decide(table, neighbor, current)
                        assert (fast.forward, fast.attributes) == (
                            naive.forward, naive.attributes
                        )
                    assert delivered(table.local_deliveries(current, mask, bits)) == delivered(
                        reference.local_deliveries(table, current)
                    )


ATTRS = ["a", "b", "c", "d"]
ENTRY_IDS = ["e0", "e1", "e2", "e3", "e4"]


def draw_profile(data, label):
    """A profile on one or both streams; per stream all attributes or
    some, and no filter (unconditional) or one or two (a disjunction)."""
    streams = data.draw(
        st.sets(st.sampled_from(["S", "T"]), min_size=1), label=f"{label}-streams"
    )
    projections, filters = {}, []
    for stream in sorted(streams):
        projections[stream] = data.draw(
            st.one_of(
                st.just(ALL_ATTRIBUTES),
                st.sets(st.sampled_from(ATTRS), min_size=1).map(frozenset),
            ),
            label=f"{label}-{stream}-projection",
        )
        for index in range(data.draw(st.integers(0, 2), label=f"{label}-{stream}-filters")):
            atoms = [
                Comparison(attr, data.draw(st.sampled_from(["<", ">=", "=", "!="])),
                           data.draw(st.integers(-2, 2)))
                for attr in data.draw(
                    st.lists(st.sampled_from(ATTRS), min_size=1, max_size=2, unique=True),
                    label=f"{label}-{stream}-{index}-attrs",
                )
            ]
            filters.append(Filter(stream, cond(*atoms)))
    return Profile(projections, filters)


def draw_datagram(data, label):
    stream = data.draw(st.sampled_from(["S", "T"]), label=f"{label}-stream")
    names = data.draw(st.permutations(ATTRS), label=f"{label}-order")
    payload = {
        name: value
        for name in names
        if (value := data.draw(st.one_of(st.none(), st.integers(-3, 3)))) is not None
    }
    return Datagram(stream, payload)


def delivered(deliveries):
    return [(sid, datagram, tuple(datagram.payload)) for sid, datagram in deliveries]


def reporting_table():
    """Broker 0's table in a two-broker network, its change reports
    recorded on their way to the network: ``(network, table, reports)``."""
    network = ContentBasedNetwork(DisseminationTree([(0, 1)], {(0, 1): 1.0}))
    table, reports = network.table(0), []
    bump = table.on_change

    def report(streams):
        reports.append(streams)
        bump(streams)

    table.on_change = report
    return network, table, reports


class TestChangeReports:
    """A mutation reports the streams it touched through ``on_change``,
    which is what the network's ``routing_epoch`` and per-stream facts
    move on; a mutation that changes nothing reports nothing."""

    def test_noop_discard_reports_nothing(self):
        network, table, reports = reporting_table()
        table.install(1, "s1", profile({"a"}))
        assert not table.discard(1, "missing")
        assert not table.discard(0, "s1")
        assert reports == [frozenset({"S"})]
        assert network.routing_epoch == 1

    def test_identical_reinstall_reports_nothing(self):
        network, table, reports = reporting_table()
        table.install(1, "a", profile({"a"}, Comparison("a", ">", 0)))
        table.install(1, "b", profile({"b"}))
        table.install(1, "a", profile({"a"}, Comparison("a", ">", 0)))
        assert len(reports) == network.routing_epoch == 2
        # the entries keep their install order
        assert list(table.entries(1)) == ["a", "b"]

    def test_remove_missing_interface_reports_nothing(self):
        network, table, reports = reporting_table()
        table.install(1, "s1", profile({"a"}))
        table.remove_interface(9)
        assert reports == [frozenset({"S"})]
        assert network.routing_epoch == 1

    def test_each_mutation_reports_the_streams_it_touched(self):
        network, table, reports = reporting_table()
        table.install(1, "s1", profile({"a"}))
        table.discard(1, "s1")
        assert reports == [frozenset({"S"}), frozenset({"S"})]
        # a replaced entry reports the streams of both profiles
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s1", profile({"a"}, stream="T"))
        assert reports[-1] == frozenset({"S", "T"})
        # an interface dropped with entries behind it reports theirs
        # (the network's route caches are versioned by these reports)
        table.install(1, "u1", profile({"a"}, stream="U"))
        table.remove_interface(1)
        assert reports[-1] == frozenset({"T", "U"})
        assert len(reports) == network.routing_epoch == 6

    def test_a_replaced_entry_is_installed_last(self):
        table = RoutingTable(0)
        for sid in ("a", "b"):
            table.install(RoutingTable.LOCAL, sid, profile({"a"}))
        table.install(RoutingTable.LOCAL, "a", profile({"a", "b"}))
        datagram = Datagram("S", {"a": 1, "b": 2})
        assert list(table.local_profiles()) == ["b", "a"]
        assert [sid for sid, __ in local_deliveries(table, datagram)] == ["b", "a"]

    def test_a_bucket_goes_with_its_last_entry(self):
        table = RoutingTable(0)
        table.install(1, "a", profile({"a"}, stream="S"))
        table.install(1, "b", profile({"a"}, stream="T"))
        table.install(2, "c", profile({"a"}, stream="S"))
        datagram = Datagram("S", {"a": 1})
        assert decide(table, 1, datagram).forward
        # an interface or stream with no entry answers and keeps nothing
        assert not decide(table, 3, datagram).forward
        assert local_deliveries(table, datagram) == []
        assert not decide(table, 1, Datagram("U", {"a": 1})).forward
        assert {i: set(streams) for i, streams in table._by_stream.items()} == {
            1: {"S", "T"},
            2: {"S"},
        }
        table.discard(1, "a")
        assert set(table._by_stream[1]) == {"T"}
        assert table.stream_interfaces("S") == [2]
        assert not decide(table, 1, datagram).forward


class TestMatcher:
    def test_a_profile_resolves_each_stream_once(self):
        both = Profile({"S": {"a"}, "T": ALL_ATTRIBUTES}, [Filter("S", cond(Comparison("a", ">", 0)))])
        matcher = both.matcher("S")
        assert both.matcher("S") is matcher
        assert (matcher.projection, matcher.carried, matcher.wants_all) == (
            frozenset({"a"}), frozenset({"a"}), False
        )
        unconditional = both.matcher("T")
        assert unconditional.wants_all and unconditional.conditions == ()
        bits = ConditionBits(matcher.conditions)
        assert (bits[matcher], bits[unconditional], bits.always) == (1, 2, 2)


class TestConditionBits:
    def test_an_entry_owns_the_bits_of_its_conditions(self):
        low, high, other = (cond(Comparison("a", "<", 0)), cond(Comparison("a", ">", 5)),
                            cond(Comparison("b", "=", 1)))
        bits = ConditionBits([low, other, high])
        both = Profile({"S": {"a"}}, [Filter("S", high), Filter("S", low)]).matcher("S")
        assert bits[both] == 0b101
        assert bits.always == 0b1000
        assert dict(bits) == {both: 0b101}

    def test_a_condition_dies_with_an_attribute_it_references(self):
        one = cond(Comparison("a", ">", 0))
        two = cond(Comparison("a", ">", 0), Comparison("b", "<", 9))
        bits = ConditionBits([one, two, Conjunction.true()])
        live = 0b1111
        assert bits.surviving(live, {"a": 1, "b": 2}) == live
        assert bits.surviving(live, {"a": 1}) == 0b1101
        assert bits.surviving(live, {}) == 0b1100
        assert bits.surviving(0b1001, {"b": 1}) == 0b1000

    def test_a_k_hop_path_builds_one_matcher_per_stream(self, monkeypatch):
        """The network lays one restricted profile object at every hop
        of a path, so routing along it resolves each stream once, not
        once per hop."""
        built = []
        init = filters.Matcher.__init__

        def counting(matcher, owner, stream):
            built.append((id(owner), stream))
            init(matcher, owner, stream)

        monkeypatch.setattr(filters.Matcher, "__init__", counting)
        for hops in (1, 4, 8):
            built.clear()
            edges = [(node, node + 1) for node in range(hops)]
            network = ContentBasedNetwork(DisseminationTree(edges, {e: 1.0 for e in edges}))
            for stream in ("S", "T"):
                network.advertise(stream, 0)
            network.subscribe(Profile({"S": {"a"}, "T": {"a"}}), hops, "u")
            for stream in ("S", "T"):
                for __ in range(2):
                    assert len(network.publish(Datagram(stream, {"a": 1}), 0)) == 1
            # per stream: the path's entries and the subscriber's own one
            assert sorted(stream for __, stream in built) == ["S", "S", "T", "T"]
            assert len(set(built)) == len(built)
