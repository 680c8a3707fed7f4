"""Recovery-mode chaos: self-healing runs under the exact delivery oracle."""

import pytest

from repro.overlay.topology import Topology
from repro.overlay.tree import DisseminationTree
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.sim import (
    ChaosConfig,
    DropEvent,
    FaultEvent,
    InjectEvent,
    PunctuationEvent,
    VirtualNetwork,
    generate_schedule,
    run_chaos,
    run_schedule,
    shrink_failing_schedule,
)
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.fault import FaultError
from repro.system.monitor import SystemMonitor
from repro.sim import network
from repro.system.reliability import heal_partition

RECOVERY = ChaosConfig(seed=0, recovery=True)


def health(vnet):
    return SystemMonitor(vnet.system).health()


class TestScheduleAnnotations:
    def test_lossy_schedule_carries_no_transport_metadata(self):
        for event in generate_schedule(ChaosConfig(seed=0)).events:
            assert not isinstance(event, PunctuationEvent)
            if isinstance(event, InjectEvent):
                assert event.seq is None and event.sent is None

    def test_recovery_flag_does_not_perturb_the_lossy_draws(self):
        # Same seed, same times/streams/payloads — the recovery flag
        # only annotates; it must never shift the perturbation RNG.
        lossy = [
            (e.time, e.stream, e.payload, e.duplicate)
            for e in generate_schedule(ChaosConfig(seed=3)).events
            if isinstance(e, InjectEvent)
        ]
        recovery = [
            (e.time, e.stream, e.payload, e.duplicate)
            for e in generate_schedule(ChaosConfig(seed=3, recovery=True)).events
            if isinstance(e, InjectEvent)
        ]
        assert lossy == recovery

    def test_sequence_numbers_are_per_stream_and_gapless(self):
        from repro.sim import DropEvent

        events = generate_schedule(RECOVERY).events
        seen = {}
        for event in sorted(
            (
                e
                for e in events
                if isinstance(e, (InjectEvent, DropEvent))
                and getattr(e, "seq", None) is not None
                and not getattr(e, "duplicate", False)
            ),
            key=lambda e: e.sent,
        ):
            seen.setdefault(event.stream, []).append(event.seq)
        for stream, seqs in seen.items():
            assert seqs == list(range(len(seqs))), stream

    def test_punctuation_announces_each_streams_top_main_seq(self):
        events = generate_schedule(RECOVERY).events
        punct = [e for e in events if isinstance(e, PunctuationEvent)]
        assert {p.stream for p in punct} == {"Temp", "Humid"}
        for p in punct:
            assert p.time < RECOVERY.epilogue_start
            main_seqs = [
                e.seq
                for e in events
                if getattr(e, "seq", None) is not None
                and e.stream == p.stream
                and e.time < RECOVERY.epilogue_start
                and not isinstance(e, PunctuationEvent)
            ]
            assert p.top == max(main_seqs)


class TestRecoveryRuns:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_delivery_under_chaos(self, seed):
        report = run_chaos(ChaosConfig(seed=seed, recovery=True))
        assert report.ok, "\n".join(report.violations)
        assert report.reliability is not None
        # Every drop in the schedule was healed by a retransmission.
        assert report.reliability["retransmits"] >= report.counters.drops
        assert report.reliability["gaps_abandoned"] == 0

    def test_replay_is_byte_identical(self):
        a = run_chaos(RECOVERY)
        b = run_chaos(RECOVERY)
        assert a.trace.render() == b.trace.render()
        assert a.trace.digest() == b.trace.digest()

    def test_known_seed_digest_pinned(self):
        # Cross-process determinism canary (string-seeded RNGs, ordered
        # timers): a digest change means recovery replays broke.
        assert run_chaos(RECOVERY).trace.digest() == "259e9fa81b34"

    def test_crashes_are_detector_driven(self):
        report = run_chaos(RECOVERY)
        lines = report.trace.render().splitlines()
        assert any("-> crashed" in line for line in lines)
        assert any(line.startswith("suspect ") for line in lines)
        assert any(
            line.startswith("repair ") and "-> applied" in line
            for line in lines
        )
        assert report.counters.faults_applied == RECOVERY.n_faults
        assert report.reliability["nodes_suspected"] == RECOVERY.n_faults

    def test_duplicates_are_suppressed_not_delivered(self):
        report = run_chaos(RECOVERY)
        assert (
            report.reliability["duplicates_suppressed"]
            == report.counters.duplicates
        )

    def test_convergence_time_precedes_the_epilogue(self):
        for seed in range(5):
            config = ChaosConfig(seed=seed, recovery=True)
            report = run_chaos(config)
            assert report.convergence_time is not None
            assert report.convergence_time < config.epilogue_start + 10.0

    def test_punctuation_heals_trailing_drops(self):
        # Seed 7's Temp stream loses its last two tuples; only the
        # punctuation NACK round can expose those gaps.
        report = run_chaos(ChaosConfig(seed=7, recovery=True))
        assert report.ok, "\n".join(report.violations)
        assert any(
            line.startswith("punct ") and "-> 2 gaps" in line
            for line in report.trace.render().splitlines()
        )

    def test_report_render_names_recovery(self):
        rendered = run_chaos(RECOVERY).render()
        assert "recovery" in rendered
        assert "converged t=" in rendered


class TestRecoveryShrinking:
    def test_post_quiescence_fault_shrinks_to_itself(self):
        # A processor crash after quiescence violates the convergence
        # invariant (detector-driven repair moves the routing epoch);
        # ddmin must isolate exactly that event.
        config = ChaosConfig(seed=0, recovery=True)
        events = list(generate_schedule(config).events)
        rogue = FaultEvent(config.epilogue_start + 5.0, "processor", 0)
        events.append(rogue)
        events.sort(key=lambda e: e.time)
        assert not run_schedule(config, events).ok
        minimal = shrink_failing_schedule(config, events, max_runs=150)
        assert minimal == [rogue]

    def test_shrunken_sub_schedules_stay_consistent(self):
        # Deleting arbitrary events must not wedge the transport: a
        # NACK for a send the shrinker cut is abandoned immediately,
        # and the oracle reconstructs its expectation from the same
        # event list, so sub-schedules remain self-consistent.
        config = ChaosConfig(seed=0, recovery=True)
        events = generate_schedule(config).events
        report = run_schedule(config, events[::2])
        assert isinstance(report.ok, bool)  # terminated, verdict either way

    def test_a_nack_for_a_tuple_in_flight_is_answered(self):
        # ddmin-shrunk from seed 0 at n_tuples=100 with no faults, drops
        # or duplicates.  seq 97 arrives first and the NACK for gap 95
        # fires at t=591.31, while seq 95 (sent at t=574) is still on
        # the wire.  The sender must already hold it, so the NACK is
        # answered and the late original is suppressed as a duplicate;
        # a sender that learned of sends at arrival abandoned the gap.
        config = ChaosConfig(
            seed=0, n_tuples=100, recovery=True,
            n_faults=0, drop_p=0.0, dup_p=0.0,
        )
        events = [
            InjectEvent(
                587.309919042082, "Humid",
                (("percent", 15.37), ("station", 3)), seq=97, sent=586.0,
            ),
            InjectEvent(
                592.4863983758141, "Humid",
                (("percent", 40.94), ("station", 6)), seq=95, sent=574.0,
            ),
        ]
        report = run_schedule(config, events)
        assert report.violations == []
        assert not any(
            line.startswith("abandon") and "seq=95 " in line
            for line in report.trace.render().splitlines()
        )
        assert any(
            line.startswith("retransmit") and "seq=95 " in line
            for line in report.trace.render().splitlines()
        )


def build_chain():
    """0(proc) - 1(src) - 2 - 3(user): removing 2 strands the user."""
    topo = Topology()
    edges = [(0, 1), (1, 2), (2, 3)]
    for u, v in edges:
        topo.add_edge(u, v, 1.0)
    tree = DisseminationTree(edges, {e: 1.0 for e in edges})
    system = CosmosSystem(tree, processor_nodes=[0], topology=topo)
    system.add_source(
        StreamSchema("Temp", [Attribute("station", "int", 0, 9)], rate=1.0), 1
    )
    system.submit(
        parse_query("SELECT T.station FROM Temp [Now] T"),
        user_node=3,
        name="q",
    )
    return system


class TestDegradedMode:
    def test_partition_degrades_instead_of_refusing(self):
        vnet = VirtualNetwork(build_chain(), recovery=True)
        # Crash the cut vertex; the sweep suspects it, the repair finds
        # the survivors partitioned and quarantines the stranded query.
        vnet.execute([FaultEvent(1.0, "broker", 2)])
        assert vnet.counters.faults_applied == 1
        assert vnet.counters.faults_refused == 0
        assert any("-> degraded [q]" in line for line in vnet.trace.render().splitlines())
        assert vnet.system.query("q").status is QueryStatus.DEGRADED
        assert health(vnet)["queries_quarantined"] == 1

    def test_only_a_partition_error_degrades(self, monkeypatch):
        # The mode switch is typed: a repair refusal that merely
        # mentions the word is retried (and given up on), never
        # answered with quarantine.
        def refuse(system, node):
            raise FaultError(f"node {node} says its disk is partitioned")

        monkeypatch.setattr("repro.sim.network.fail_broker", refuse)
        vnet = VirtualNetwork(build_chain(), recovery=True)
        vnet.execute([FaultEvent(1.0, "broker", 2)])
        assert not any("degraded" in line for line in vnet.trace.render().splitlines())
        assert any("-> retry 2" in line for line in vnet.trace.render().splitlines())
        assert vnet.counters.faults_refused == 1
        assert health(vnet)["queries_quarantined"] == 0
        assert vnet.system.query("q").status is QueryStatus.ACTIVE

    def test_degraded_query_resumes_on_heal(self):
        vnet = VirtualNetwork(build_chain(), recovery=True)
        vnet.execute([FaultEvent(1.0, "broker", 2)])
        system = vnet.system
        system.topology.add_edge(1, 3, 1.0)
        assert heal_partition(system) == ["q"]
        assert system.query("q").status is QueryStatus.ACTIVE


class _Timers:
    """A simulator stand-in that records the delay of every timer."""

    def __init__(self):
        self.delays = []

    def schedule_in(self, delay, action):
        self.delays.append(delay)


class TestNackBackoff:
    @pytest.mark.parametrize(
        "given",
        [{}, {"NACK_DELAY": 1.0, "NACK_BACKOFF": 3.0, "NACK_CAP": 5.0}],
        ids=["default", "tight-cap"],
    )
    def test_a_nack_is_never_scheduled_past_the_cap(self, given, monkeypatch):
        # The NACK delay grows by NACK_BACKOFF per unanswered attempt and
        # is capped at NACK_CAP, so retransmission pressure under loss
        # stays bounded however many attempts a gap has used.
        for name, value in given.items():
            monkeypatch.setattr(network, name, value)
        vnet = VirtualNetwork(build_chain(), recovery=True)
        timers = _Timers()
        for attempt in (1, 2, 3, 5, 10, 60):
            vnet._schedule_nack(timers, "Temp", 0, attempt)
        assert timers.delays[0] == network.NACK_DELAY
        assert timers.delays[1] == network.NACK_DELAY * network.NACK_BACKOFF
        assert max(timers.delays) == network.NACK_CAP
        assert timers.delays[-1] == network.NACK_CAP
        assert timers.delays == sorted(timers.delays)


class TestNackGiveUp:
    """A gap whose retransmission is still on the wire when the last
    NACK's timer fires is abandoned; the late copy is then suppressed."""

    def run(self, monkeypatch, max_nacks, retransmit_rtt):
        timings = {"NACK_DELAY": 1.0, "NACK_BACKOFF": 2.0, "NACK_CAP": 2.0,
                   "MAX_NACKS": max_nacks, "RETRANSMIT_RTT": retransmit_rtt}
        for name, value in timings.items():
            monkeypatch.setattr(network, name, value)
        vnet = VirtualNetwork(build_chain(), recovery=True)
        vnet.execute([
            DropEvent(1.0, "Temp", seq=0, payload=(("station", 1),), sent=1.0),
            InjectEvent(2.0, "Temp", (("station", 2),), seq=1, sent=2.0),
        ])
        return vnet, vnet.trace.render().splitlines()

    def test_the_last_nack_gives_up_on_a_slow_retransmit(self, monkeypatch):
        vnet, lines = self.run(monkeypatch, max_nacks=1, retransmit_rtt=5.0)
        assert [line for line in lines if line.startswith(("nack", "abandon", "retransmit"))] == [
            "nack t=3 Temp seq=0 attempt=1",
            "abandon t=5 Temp seq=0 -> 1 released",
            "retransmit t=8 Temp seq=0 -> 0 released suppressed",
        ]
        counts = health(vnet)
        assert (counts["gaps_abandoned"], counts["duplicates_suppressed"]) == (1, 1)
        assert vnet.counters.deliveries == 1

    def test_a_gap_is_abandoned_only_after_max_nacks(self, monkeypatch):
        __, lines = self.run(monkeypatch, max_nacks=3, retransmit_rtt=20.0)
        nacks = [line for line in lines if line.startswith("nack")]
        assert [line.rsplit(" ", 1)[1] for line in nacks] == [
            "attempt=1", "attempt=2", "attempt=3"]
        abandon = lines.index("abandon t=9 Temp seq=0 -> 1 released")
        assert abandon > lines.index(nacks[-1])

    def test_a_retransmit_inside_the_budget_heals_the_gap(self, monkeypatch):
        vnet, lines = self.run(monkeypatch, max_nacks=1, retransmit_rtt=1.0)
        assert not any(line.startswith("abandon") for line in lines)
        assert health(vnet)["gaps_abandoned"] == 0
        assert vnet.counters.deliveries == 2


class TestRetransmitsAreTheSenders:
    """``retransmits`` counts the NACKs a sender answered; the receiver's
    ``retransmit`` row counts only the retransmissions that filled a slot."""

    def test_a_retransmission_the_original_overtook_is_a_duplicate(self):
        # seq 1 exposes gap 0 at t=1; its NACK fires at t=5 and the
        # sender answers it, but the original (sent at t=0.5, slow on
        # the wire) arrives at t=6, before the retransmission at t=7.
        # The sender counts the retransmission it sent; the receiver
        # counts no ``retransmit`` row (it filled no slot) and one late
        # copy suppressed below the watermark.
        vnet = VirtualNetwork(build_chain(), recovery=True)
        vnet.execute([
            InjectEvent(1.0, "Temp", (("station", 1),), seq=1, sent=1.0),
            InjectEvent(6.0, "Temp", (("station", 0),), seq=0, sent=0.5),
        ])
        assert "retransmit t=7 Temp seq=0 -> 0 released suppressed" in (
            vnet.trace.render().splitlines()
        )
        slots = vnet.state.receiver("Temp").slots
        assert health(vnet)["retransmits"] == 1
        assert slots.taken("retransmit") == 0
        assert slots.counts["duplicate RELEASED->RELEASED"] == 1
        assert health(vnet)["duplicates_suppressed"] == 1
        assert vnet.counters.deliveries == 2

