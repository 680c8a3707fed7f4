"""Chaos properties: every seeded schedule satisfies the delivery oracles.

The harness under test is :mod:`repro.sim`: a seed deterministically
becomes a chaos schedule (lossy source links + broker/processor
crash-and-repair), which runs against one system whose every
publication is also scanned by the naive reference, under four oracle
invariants — exact ground-truth delivery, no orphan
queries/subscriptions after repair, per-query result chronology, and
fast-path == naive equivalence.  The canary tests then break the repair
path or the routing index on purpose and demand the oracles notice: a
chaos suite that cannot fail is not testing anything.  The same goes for the route cache
of the data plane: its canaries plant a cache that forgets to
invalidate or that keys too coarsely, or a coverage test (on either
side) that reads only a stream's first filter, and demand that the
fast == naive property of ``test_fastpath_properties.py`` notices.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.cbn.network as network_module
import repro.system.rebuild as rebuild_module
from repro.cbn.filters import Profile
from repro.cbn.network import ContentBasedNetwork, _StreamFacts
from repro.cbn.routing import ConditionBits, RoutingTable
from repro.cql.predicates import Conjunction, Interval, OutcomeIndex
from repro.sim import (
    ChaosConfig,
    VirtualNetwork,
    build_system,
    compare_systems,
    generate_schedule,
    run_chaos,
    run_schedule,
    shrink_failing_schedule,
)
from repro.sim.reference import CheckedNetwork
from repro.sim.schedule import FaultEvent

from tests.properties.test_fastpath_properties import (
    interleaved_history,
    random_trees,
)


class TestChaosInvariants:
    """>= 25 random seeds, each checked against all four invariants."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        drop_p=st.sampled_from([0.0, 0.15, 0.4]),
        n_faults=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_schedule_satisfies_all_oracles(self, seed, drop_p, n_faults):
        config = ChaosConfig(seed=seed, drop_p=drop_p, n_faults=n_faults)
        report = run_chaos(config)
        assert report.ok, (
            f"seed {seed} violated the oracles "
            f"(replay: repro chaos --seed {seed}):\n"
            + "\n".join(report.violations)
        )

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_faults_actually_fire(self, seed):
        # The suite must not pass vacuously: every planned crash either
        # applies or is an explicitly recorded partition refusal.
        report = run_chaos(ChaosConfig(seed=seed, n_faults=2))
        counters = report.counters
        assert counters.faults_applied + counters.faults_refused == 2
        assert counters.injects > 0


class TestReplayDeterminism:
    """The same seed replays to a byte-identical trace — the property
    ``repro chaos --seed N`` relies on to reproduce CI failures."""

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_trace(self, seed):
        config = ChaosConfig(seed=seed)
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.trace == second.trace
        assert first.trace.digest() == second.trace.digest()
        assert first.counters.as_dict() == second.counters.as_dict()
        assert first.violations == second.violations

    def test_schedule_generation_is_pure(self):
        config = ChaosConfig(seed=424242)
        assert (
            generate_schedule(config).events == generate_schedule(config).events
        )

    def test_known_seed_trace_is_stable(self):
        # Pin one digest so an accidental determinism regression (or an
        # unintended semantic change to schedule generation) is loud.
        report = run_chaos(ChaosConfig(seed=0))
        assert report.ok
        assert report.trace.digest() == "ce3e9e088b39"


def _breaking_rebuild(original):
    """A 'repaired' network that silently drops one user subscription —
    the classic repair bug the no-orphan/ground-truth oracles exist for."""

    def broken(system, tree):
        original(system, tree)
        for query_id, sub_id in sorted(system._user_subscriptions.items()):
            system.network.unsubscribe(sub_id)
            del system._user_subscriptions[query_id]
            break

    return broken


def _seed_with_applied_broker_fault(max_seed=50):
    """A seed whose schedule contains a broker crash that really applies."""
    for seed in range(max_seed):
        config = ChaosConfig(seed=seed)
        schedule = generate_schedule(config)
        has_broker = any(
            isinstance(e, FaultEvent) and e.kind == "broker"
            for e in schedule.events
        )
        if not has_broker:
            continue
        report = run_chaos(config)
        if report.ok and report.counters.faults_applied > 0:
            return config, schedule
    raise AssertionError("no suitable canary seed found")


class TestMutationCanary:
    """A deliberately broken repair must be caught by the oracles."""

    def test_broken_rebuild_is_caught(self, monkeypatch):
        config, schedule = _seed_with_applied_broker_fault()
        monkeypatch.setattr(
            rebuild_module,
            "rebuild_network",
            _breaking_rebuild(rebuild_module.rebuild_network),
        )
        report = run_schedule(config, schedule.events)
        assert not report.ok
        # Both the structural and the behavioural oracle should fire.
        assert any(v.startswith("orphan:") for v in report.violations)
        assert any(v.startswith("ground-truth:") for v in report.violations)

    def test_broken_rebuild_shrinks_to_minimal_schedule(self, monkeypatch):
        config, schedule = _seed_with_applied_broker_fault()
        monkeypatch.setattr(
            rebuild_module,
            "rebuild_network",
            _breaking_rebuild(rebuild_module.rebuild_network),
        )
        minimal = shrink_failing_schedule(config, schedule.events)
        # The orphan oracle fires on the crash alone, so ddmin should
        # strip every injection and leave a single fault event.
        assert len(minimal) == 1
        assert isinstance(minimal[0], FaultEvent)
        assert not run_schedule(config, minimal).ok

    def test_stale_bucket_entry_is_caught(self, monkeypatch):
        """A discarded routing entry left in its per-stream bucket still
        matches on the fast path but not in the scan.  On this seed no
        live query's results show it; the per-publication check does."""
        monkeypatch.setattr(
            RoutingTable, "_unindex_entry", lambda self, interface, entry_id, profile: None
        )
        report = run_chaos(ChaosConfig(seed=1, recovery=True))
        assert any(v.startswith("fast-vs-naive:") for v in report.violations)


class TestPublicationCheck:
    def test_check_survives_repairs_and_migrations(self):
        config = ChaosConfig(seed=3, recovery=True, migrate=True)
        vnet = VirtualNetwork(build_system(config), recovery=True, migrate=True)
        events = generate_schedule(config).events
        vnet.execute([e for e in events if e.time < config.epilogue_start])
        vnet.execute([e for e in events if e.time >= config.epilogue_start])
        assert vnet.counters.faults_applied >= 1
        assert vnet.load.lifecycle.taken("complete") >= 1
        network = vnet.system.network
        assert type(network) is CheckedNetwork
        assert network.checked >= len(vnet.effective_feed)
        reference = list(network.reference_stats.as_dict().items())
        assert reference
        assert reference == list(network.data_stats.as_dict().items())
        assert compare_systems(vnet.system) == []


class TestRouteCacheCanary:
    """A deliberately broken route cache or coverage test must be
    caught by the fast == naive property (``interleaved_history``)."""

    @staticmethod
    def hunt():
        """Run the property on a fixed sequence of examples, without
        shrinking; the first counterexample's error propagates."""

        @given(random_trees(), st.data())
        @settings(
            max_examples=1000,
            deadline=None,
            derandomize=True,
            database=None,
            phases=[Phase.generate],
        )
        def search(tree, data):
            interleaved_history(tree, data)

        search()

    def test_cache_surviving_an_unsubscribe_is_caught(self, monkeypatch):
        unsubscribe = ContentBasedNetwork.unsubscribe

        def forgetful(network, subscription_id):
            kept = dict(network._facts)
            unsubscribe(network, subscription_id)
            for stream, facts in kept.items():
                if stream in network._stream_subscriptions:
                    # put the dropped facts — routes and bits included — back
                    network._facts[stream] = facts

        monkeypatch.setattr(ContentBasedNetwork, "unsubscribe", forgetful)
        with pytest.raises(AssertionError):
            self.hunt()

    @pytest.mark.parametrize(
        "at, component",
        enumerate(["origin", "attribute tuple", "seq", "unpriced types", "outcomes"]),
    )
    def test_key_without_a_component_is_caught(self, monkeypatch, at, component):
        """The route cache looks classes up without one component; the
        walk still reads the whole class (its outcome bits included)."""

        def drop(key):
            assert len(key) == 5
            return key[:at] + key[at + 1:]

        class CoarseRoutes(dict):
            def get(self, key, default=None):
                return super().get(drop(key), default)

            def __setitem__(self, key, route):
                super().__setitem__(drop(key), route)

        init = _StreamFacts.__init__

        def coarse(facts, *args):
            init(facts, *args)
            facts.routes = CoarseRoutes()

        monkeypatch.setattr(_StreamFacts, "__init__", coarse)
        # deliveries, byte counts or link order differ — or a replayed
        # projection names an attribute the datagram lacks
        with pytest.raises((AssertionError, KeyError)):
            self.hunt()

    def test_types_dropped_when_only_some_attributes_are_priced_is_caught(
        self, monkeypatch
    ):
        """The types component may be left out only when the schema
        prices *every* attribute; a key that leaves it out as soon as
        *any* attribute is priced lets an unpriced ``int`` and ``float``
        share a route whose byte counts were taken on one of them."""
        classify = _StreamFacts.classify

        def lax(facts, datagram, origin):
            key = classify(facts, datagram, origin)
            if facts.widths and not facts.widths.keys().isdisjoint(datagram.payload):
                return key[:3] + ((),) + key[4:]
            return key

        monkeypatch.setattr(_StreamFacts, "classify", lax)
        with pytest.raises(AssertionError):
            self.hunt()

    def test_index_reading_a_strict_bound_as_closed_is_caught(self, monkeypatch):
        """An outcome index whose cells admit a value equal to a strict
        bound (``a < 3`` read as ``a <= 3``) puts datagrams the filters
        tell apart into one class."""

        def closed(conjunction):
            intervals = {
                term: Interval(iv.lo, iv.hi)
                for term, iv in conjunction.intervals.items()
            }
            return Conjunction(
                intervals, conjunction.excluded, conjunction.links, conjunction.diffs
            )

        class ClosedBounds(OutcomeIndex):
            def __init__(self, conjunctions):
                super().__init__([closed(conj) for conj in conjunctions])

        monkeypatch.setattr(network_module, "OutcomeIndex", ClosedBounds)
        with pytest.raises(AssertionError):
            self.hunt()

    def test_profile_reading_only_its_first_filter_is_caught(self, monkeypatch):
        """The reference's coverage must be F's disjunction: a
        ``Profile.covers`` that stops at a stream's first filter drops
        the datagrams only a later filter covers."""

        def first_only(profile, datagram):
            if datagram.stream not in profile.streams:
                return False
            stream_filters = profile.filters_for(datagram.stream)
            return not stream_filters or stream_filters[0].covers(datagram)

        monkeypatch.setattr(Profile, "covers", first_only)
        with pytest.raises(AssertionError):
            self.hunt()

    def test_matcher_reading_only_its_first_condition_is_caught(self, monkeypatch):
        """The same disjunction on the production side: an entry whose
        coverage test reads only the bit of its profile's first
        condition for the stream."""

        def first_only(bits, matcher):
            owned = bits[matcher] = (
                bits._bits[matcher.conditions[0]] if matcher.conditions else bits.always
            )
            return owned

        monkeypatch.setattr(ConditionBits, "__missing__", first_only)
        with pytest.raises(AssertionError):
            self.hunt()
