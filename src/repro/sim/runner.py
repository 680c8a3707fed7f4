"""Chaos runs: seeded workload + schedule generation and oracle checks.

One :class:`ChaosConfig` (essentially just a seed plus size knobs)
deterministically defines an entire chaos run:

* a Barabási–Albert physical topology with an MST dissemination tree,
  processors, two source streams and a handful of single-stream
  select-project queries (the fragment the delivery oracle is exact
  for);
* a pristine periodic feed, perturbed per source link (delay, drop,
  duplication, reordering) into explicit injection events;
* a fault plan of broker/processor crash-and-repair events inside the
  middle of the run;
* an *epilogue* of pristine injections after quiescence, used by the
  convergence invariant: once the last repair settled, further traffic
  must not move the routing epoch, and must be delivered per ground
  truth.

Every random draw is resolved at generation time from stream-named
children of the seed (``random.Random`` string seeding is stable across
processes and immune to hash randomisation), so
``generate_schedule(config)`` is a pure function and the resulting
event list is a value: replayable byte-identically and shrinkable.

:func:`run_schedule` executes any event list under the full oracle
battery and returns a :class:`ChaosReport`; :func:`run_chaos` is the
seed-to-report convenience; :func:`shrink_failing_schedule` reduces a
failing run to a minimal event schedule that still fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.sim.network import ChaosCounters, VirtualNetwork
from repro.sim.oracle import (
    check_chronology,
    check_ground_truth,
    check_no_orphans,
    compare_systems,
    pristine_feed_from_events,
)
from repro.sim.schedule import (
    ChaosEvent,
    ChaosSchedule,
    InjectEvent,
    LinkModel,
    MigrationEvent,
    PunctuationEvent,
    merge_events,
    perturb_feed,
    plan_faults,
)
from repro.sim.trace import ChaosTrace, shrink_schedule
from repro.system.cosmos import CosmosSystem
from repro.system.monitor import SystemMonitor


def _chaos_schemas() -> Tuple[StreamSchema, StreamSchema]:
    """The chaos workload's two source streams.

    Deliberately timestamp-free payloads: application time comes only
    from the publish call, which keeps the oracle's binding trivially
    exact.
    """
    return (
        StreamSchema(
            "Temp",
            [
                Attribute("station", "int", 0, 9),
                Attribute("celsius", "float", -20, 40),
            ],
            rate=1.0,
        ),
        StreamSchema(
            "Humid",
            [
                Attribute("station", "int", 0, 9),
                Attribute("percent", "float", 0, 100),
            ],
            rate=1.0,
        ),
    )


#: (template, threshold grid) pairs the query generator draws from.
_QUERY_TEMPLATES: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    (
        "SELECT T.station, T.celsius FROM Temp [Range 1 Hour] T "
        "WHERE T.celsius > {t:g}",
        (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    ),
    (
        "SELECT T.celsius FROM Temp [Range 30 Minute] T "
        "WHERE T.station = {t:g} AND T.celsius > 0",
        (0.0, 1.0, 2.0, 3.0, 4.0),
    ),
    (
        "SELECT H.station, H.percent FROM Humid [Range 1 Hour] H "
        "WHERE H.percent < {t:g}",
        (30.0, 50.0, 70.0, 90.0),
    ),
    (
        "SELECT H.percent FROM Humid [Now] H "
        "WHERE H.station = {t:g}",
        (0.0, 1.0, 2.0, 3.0, 4.0),
    ),
)


@dataclass(frozen=True)
class ChaosConfig:
    """A fully deterministic chaos run, defined by its seed and sizes."""

    seed: int
    n_nodes: int = 18
    n_processors: int = 2
    n_queries: int = 5
    n_tuples: int = 12  # per stream, main phase
    n_faults: int = 2
    drop_p: float = 0.15
    dup_p: float = 0.1
    max_delay: float = 20.0
    duration: float = 600.0
    epilogue_tuples: int = 3  # per stream, after quiescence
    processor_fault_p: float = 0.35
    #: Self-healing mode: sequenced uplinks heal drops/dups/reorders
    #: in-band, crashes are detector-driven, and the oracle demands
    #: *exact* delivery of the pristine feed (zero tolerated losses).
    recovery: bool = False
    #: Adaptive load management: seeded migration probes live-migrate
    #: whole query groups between processors mid-run.  Requires
    #: ``recovery`` — zero-loss migration rides the recovery executor's
    #: ordering stage (all data publication happens after every
    #: migration timer has resolved), so quarantine windows cannot eat
    #: tuples.
    migrate: bool = False

    def __post_init__(self) -> None:
        if self.migrate and not self.recovery:
            raise ValueError(
                "migrate=True requires recovery=True: zero-loss live "
                "migration needs the recovery executor's ordering stage"
            )

    @property
    def epilogue_start(self) -> float:
        """Events at or past this time belong to the convergence epilogue
        (safely beyond any delayed main-phase injection)."""
        return self.duration + 2.0 * self.max_delay + 1.0

    def rng(self, purpose: str) -> random.Random:
        """A named child RNG; string seeding is process-stable."""
        return random.Random(f"chaos:{self.seed}:{purpose}")


def _layout(config: ChaosConfig) -> Dict[str, object]:
    """Node roles: processors first, then one node per source, then users."""
    schemas = _chaos_schemas()
    processors = list(range(config.n_processors))
    source_nodes = {
        schema.name: config.n_processors + index
        for index, schema in enumerate(schemas)
    }
    n_users = min(3, config.n_nodes - config.n_processors - len(schemas))
    first_user = config.n_processors + len(schemas)
    users = list(range(first_user, first_user + n_users))
    needed = config.n_processors + len(schemas) + max(n_users, 1)
    if config.n_nodes < needed + 2:
        raise ValueError(
            f"n_nodes={config.n_nodes} too small for the chaos layout "
            f"(need >= {needed + 2})"
        )
    return {
        "schemas": schemas,
        "processors": processors,
        "source_nodes": source_nodes,
        "users": users,
    }


def _queries(config: ChaosConfig) -> List[Tuple[str, str]]:
    """The chaos queries as (query_id, CQL text), drawn from the seed."""
    rng = config.rng("queries")
    out: List[Tuple[str, str]] = []
    for index in range(config.n_queries):
        template, grid = _QUERY_TEMPLATES[
            rng.randrange(len(_QUERY_TEMPLATES))
        ]
        out.append((f"cq{index}", template.format(t=rng.choice(grid))))
    return out


def query_ids(config: ChaosConfig) -> List[str]:
    return [query_id for query_id, __ in _queries(config)]


def build_system(config: ChaosConfig) -> CosmosSystem:
    """Provision one chaos twin: topology, tree, sources and queries.

    Pure — the VirtualNetwork calls this twice to get structurally
    identical twins.
    """
    layout = _layout(config)
    topology = barabasi_albert(config.n_nodes, 2, config.rng("topology"))
    tree = DisseminationTree.minimum_spanning(topology)
    system = CosmosSystem(
        tree, processor_nodes=layout["processors"], topology=topology
    )
    for schema in layout["schemas"]:
        system.add_source(schema, layout["source_nodes"][schema.name])
    users = layout["users"]
    for index, (query_id, text) in enumerate(_queries(config)):
        system.submit(text, user_node=users[index % len(users)], name=query_id)
    return system


def protected_nodes(config: ChaosConfig) -> List[int]:
    """Nodes that must never be broker-failed: processors, sources, users."""
    layout = _layout(config)
    protected = set(layout["processors"])
    protected.update(layout["source_nodes"].values())
    protected.update(layout["users"])
    return sorted(protected)


def _pristine_feed(
    config: ChaosConfig, phase: str, count: int, start: float
) -> List[Tuple[float, str, Dict[str, object]]]:
    """A periodic two-stream feed with seeded payloads, time-sorted."""
    rng = config.rng(f"feed:{phase}")
    schemas = _chaos_schemas()
    period = config.duration / max(count, 1)
    feed: List[Tuple[float, str, Dict[str, object]]] = []
    for index in range(count):
        for offset, schema in enumerate(schemas):
            time = start + index * period + offset * (period / len(schemas))
            payload: Dict[str, object] = {"station": rng.randrange(10)}
            if schema.name == "Temp":
                payload["celsius"] = round(rng.uniform(-20.0, 40.0), 2)
            else:
                payload["percent"] = round(rng.uniform(0.0, 100.0), 2)
            feed.append((time, schema.name, payload))
    feed.sort(key=lambda item: item[0])
    return feed


def _number_feed(
    feed: List[Tuple[float, str, Dict[str, object]]],
    next_seq: Dict[str, int],
) -> List[Tuple[float, str, Dict[str, object], int]]:
    """Annotate a time-sorted pristine feed with per-stream sequence
    numbers, continuing from (and advancing) ``next_seq``."""
    numbered = []
    for time, stream, payload in feed:
        seq = next_seq.get(stream, 0)
        next_seq[stream] = seq + 1
        numbered.append((time, stream, payload, seq))
    return numbered


def generate_schedule(config: ChaosConfig) -> ChaosSchedule:
    """The fully resolved chaos schedule of ``config`` (a pure function).

    With ``recovery=True`` the same schedule is generated (identical
    RNG draws, times, payloads and faults) with every feed event
    annotated by its uplink sequence number and original send time —
    the transport metadata the self-healing executor needs.
    """
    layout = _layout(config)
    links = {
        schema.name: LinkModel(config.max_delay, config.drop_p, config.dup_p)
        for schema in layout["schemas"]
    }
    main_feed = _pristine_feed(config, "main", config.n_tuples, start=1.0)
    next_seq: Dict[str, int] = {}
    if config.recovery:
        main_feed = _number_feed(main_feed, next_seq)
    main = perturb_feed(
        main_feed,
        links,
        config.rng("links"),
    )
    protected = set(protected_nodes(config))
    faults = plan_faults(
        config.rng("faults"),
        config.n_faults,
        (0.2 * config.duration, 0.6 * config.duration),
        broker_candidates=sorted(
            node for node in range(config.n_nodes) if node not in protected
        ),
        processor_candidates=list(layout["processors"]),
        processor_fault_p=config.processor_fault_p,
    )
    # Source punctuation closes the main phase in recovery mode: each
    # stream announces its highest main-phase sequence number just
    # before the epilogue boundary (safely after every delayed or
    # duplicated arrival), so a *trailing* drop — one no higher arrival
    # would ever expose — is NACKed and healed before the convergence
    # check and the main-phase delivery flush.
    punctuation: List[ChaosEvent] = []
    if config.recovery:
        punct_time = config.duration + 2.0 * config.max_delay
        punctuation = [
            PunctuationEvent(punct_time, stream, next_seq[stream] - 1)
            for stream in sorted(next_seq)
            if next_seq[stream] > 0
        ]
    # Migration probes (a fresh named RNG child, so migrate=False
    # schedules are byte-identical to pre-migration ones): one forced
    # rebalance before the fault window opens — both processors are
    # guaranteed up then, so every seed completes at least one live
    # migration — plus seeded detector scans across the fault window,
    # which compose migrations with crashes and exercise the
    # retry/abort paths.
    migrations: List[ChaosEvent] = []
    if config.migrate:
        mig_rng = config.rng("migrations")
        migrations.append(
            MigrationEvent(
                mig_rng.uniform(0.08, 0.15) * config.duration, "rebalance"
            )
        )
        for __ in range(2 + mig_rng.randrange(2)):
            migrations.append(
                MigrationEvent(
                    mig_rng.uniform(0.2, 0.9) * config.duration, "scan"
                )
            )
        migrations.sort(key=lambda e: e.time)
    # The epilogue is pristine by construction: after quiescence the
    # convergence oracle wants exact, loss-free traffic.  In recovery
    # mode it continues the per-stream numbering, so a gap left by a
    # trailing main-phase drop is detected by the first epilogue tuple.
    epilogue_feed = _pristine_feed(
        config,
        "epilogue",
        config.epilogue_tuples,
        start=config.epilogue_start + 10.0,
    )
    if config.recovery:
        epilogue: List[ChaosEvent] = [
            InjectEvent(
                time, stream, tuple(sorted(payload.items())),
                seq=seq, sent=time,
            )
            for time, stream, payload, seq in _number_feed(
                epilogue_feed, next_seq
            )
        ]
    else:
        epilogue = [
            InjectEvent(time, stream, tuple(sorted(payload.items())))
            for time, stream, payload in epilogue_feed
        ]
    return ChaosSchedule(
        config.seed,
        merge_events(main, faults, migrations, punctuation, epilogue),
    )


@dataclass
class ChaosReport:
    """The outcome of one chaos run under the full oracle battery."""

    config: ChaosConfig
    violations: List[str]
    counters: ChaosCounters
    trace: ChaosTrace
    routing_epoch: int = 0
    #: Simulated time of the last self-healing action (recovery mode);
    #: ``None`` when no recovery was ever needed (or lossy mode).
    convergence_time: Optional[float] = None
    #: Reliability counters snapshot (recovery mode only).
    reliability: Optional[Dict[str, int]] = None
    #: Post-run :meth:`~repro.system.monitor.SystemMonitor.health`
    #: snapshot of the primary (reliability + load-management block).
    health: Optional[Dict[str, object]] = None
    #: The rows the run's lifecycle executors took, by machine
    #: (:meth:`~repro.sim.network.VirtualNetwork.transitions`).
    transitions: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.violations)} violations)"
        tail = ""
        if self.config.recovery:
            converged = (
                f"converged t={self.convergence_time:g}"
                if self.convergence_time is not None
                else "no recovery needed"
            )
            tail = f" recovery ({converged})"
        lines = [
            f"chaos seed={self.config.seed} {status} "
            f"trace={self.trace.digest()}{tail}",
            *(f"  violation: {v}" for v in self.violations),
        ]
        return "\n".join(lines)


def run_schedule(
    config: ChaosConfig, events: Sequence[ChaosEvent]
) -> ChaosReport:
    """Execute an explicit event list under the full oracle battery.

    The list may be any sub-schedule of ``generate_schedule(config)``
    (the shrinker passes candidates through here); events at or past
    ``config.epilogue_start`` run after the convergence snapshot.

    With ``config.recovery`` the run goes through the self-healing
    path and the ground-truth oracle becomes *exact*: the expectation
    is computed from the pristine feed reconstructed out of the event
    list itself — drops must be healed by retransmission, duplicates
    suppressed, reorderings repaired, with zero tolerated losses.
    """
    vnet = VirtualNetwork(
        build=lambda: build_system(config),
        recovery=config.recovery,
        migrate=config.migrate,
    )
    main = [e for e in events if e.time < config.epilogue_start]
    epilogue = [e for e in events if e.time >= config.epilogue_start]
    vnet.execute(main)
    epoch_after_main = vnet.routing_epoch()
    vnet.execute(epilogue)
    violations: List[str] = []
    if epilogue and vnet.routing_epoch() != epoch_after_main:
        violations.append(
            f"convergence: routing epoch moved {epoch_after_main} -> "
            f"{vnet.routing_epoch()} on post-quiescence traffic"
        )
    ids = [
        query_id for query_id in query_ids(config)
        if vnet.primary.find_query(query_id) is not None
    ]
    if len(ids) != len(query_ids(config)):
        lost = sorted(set(query_ids(config)) - set(ids))
        violations.append(f"ground-truth: queries {lost} vanished")
    oracle_feed = (
        pristine_feed_from_events(events)
        if config.recovery
        else vnet.effective_feed
    )
    violations.extend(check_ground_truth(vnet.primary, oracle_feed, ids))
    violations.extend(check_no_orphans(vnet.primary))
    violations.extend(check_chronology(vnet.primary))
    violations.extend(check_no_orphans(vnet.shadow))
    violations.extend(compare_systems(vnet.primary, vnet.shadow))
    return ChaosReport(
        config=config,
        violations=violations,
        counters=vnet.counters,
        trace=vnet.trace,
        routing_epoch=vnet.routing_epoch(),
        convergence_time=vnet.last_recovery_time,
        reliability=(
            vnet.state.counters.as_dict() if vnet.state is not None else None
        ),
        health=SystemMonitor(vnet.primary).health(),
        transitions=vnet.transitions(),
    )


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Seed to report: generate the schedule and run it under the oracles."""
    return run_schedule(config, generate_schedule(config).events)


def shrink_failing_schedule(
    config: ChaosConfig, events: Sequence[ChaosEvent], max_runs: int = 200
) -> List[ChaosEvent]:
    """ddmin a failing schedule to a minimal event list that still fails."""
    return shrink_schedule(
        events,
        fails=lambda candidate: not run_schedule(config, candidate).ok,
        max_runs=max_runs,
    )
