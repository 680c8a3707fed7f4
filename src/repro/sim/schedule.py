"""Seeded chaos schedules: feeds, link perturbation, fault plans.

A chaos schedule is an explicit, fully resolved list of timed events —
tuple injections (post link-perturbation) and broker/processor crash
events — that the :mod:`repro.sim.network` layer executes through the
:class:`~repro.system.events.EventSimulator`.  Resolving every random
choice at *generation* time is what makes schedules first-class values:
the same seed always yields the same schedule, a failing schedule can
be serialised into a CI log line, and the shrinker
(:func:`repro.sim.trace.shrink_schedule`) can delete events without
consulting any RNG.

Link perturbation models the *source links* (a source's uplink to its
attachment broker) as lossy: each source stream gets per-link delay,
drop and duplication parameters drawn from the seeded RNG, applied to
its pristine periodic feed.  Perturbed tuples re-sort by their
effective arrival time, so delay skew also reorders tuples across
streams.  Inside the CBN, publication stays atomic — that is what
keeps the delivery oracle exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

PayloadItems = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class InjectEvent:
    """Publish one source tuple at ``time`` (its effective timestamp).

    Recovery-mode schedules additionally carry the uplink transport
    metadata: ``seq`` is the tuple's per-stream sequence number and
    ``sent`` its original (pristine) send time — the application
    timestamp the receiver publishes with.  Both stay ``None`` in lossy
    mode, where rendering and execution are unchanged.
    """

    time: float
    stream: str
    payload: PayloadItems
    duplicate: bool = False
    seq: Optional[int] = None
    sent: Optional[float] = None

    def render(self) -> str:
        items = ",".join(f"{k}={v!r}" for k, v in self.payload)
        tag = " dup" if self.duplicate else ""
        if self.seq is not None:
            tag += f" seq={self.seq}"
        return f"inject t={self.time:g} {self.stream}[{items}]{tag}"


@dataclass(frozen=True)
class DropEvent:
    """A tuple the lossy source link ate; executed as a no-op record.

    In recovery mode the drop still *was* a send: ``seq``, ``payload``
    and ``sent`` let the executor record it on the sender's uplink so a
    later NACK can retransmit exactly what the wire ate.
    """

    time: float
    stream: str
    seq: Optional[int] = None
    payload: Optional[PayloadItems] = None
    sent: Optional[float] = None

    def render(self) -> str:
        tag = f" seq={self.seq}" if self.seq is not None else ""
        return f"drop t={self.time:g} {self.stream}{tag}"


@dataclass(frozen=True)
class PunctuationEvent:
    """Source punctuation: ``stream`` has sent everything up to ``top``.

    Recovery-mode schedules emit one per stream at the end of the main
    phase, so a *trailing* drop (no higher sequence number ever arrives
    to expose the gap) is still detected and healed before the
    convergence epilogue — the classic source-heartbeat/FIN trick of
    upstream-backup designs.
    """

    time: float
    stream: str
    top: int

    def render(self) -> str:
        return f"punct t={self.time:g} {self.stream} seq<={self.top}"


@dataclass(frozen=True)
class FaultEvent:
    """Crash ``node`` at ``time``; repair runs immediately (fail-and-repair)."""

    time: float
    kind: str  # "broker" | "processor"
    node: int

    def render(self) -> str:
        return f"fail_{self.kind} t={self.time:g} node={self.node}"


@dataclass(frozen=True)
class MigrationEvent:
    """A load-management probe at ``time``.

    ``kind`` is ``"scan"`` (feed the hotspot detector a load snapshot
    and migrate whatever newly crossed the threshold) or
    ``"rebalance"`` (unconditionally move the busiest live processor's
    hottest group — the forced probe every migration-mode schedule
    carries so each seed exercises at least one full live migration).
    The probe only *triggers* the protocol; the migration's own timers
    (prepare, drain, cutover, retries) are scheduled by the executor.
    """

    time: float
    kind: str  # "scan" | "rebalance"

    def render(self) -> str:
        return f"migrate t={self.time:g} {self.kind}"


ChaosEvent = object  # InjectEvent | DropEvent | FaultEvent | PunctuationEvent | MigrationEvent


@dataclass
class ChaosSchedule:
    """A resolved, time-ordered chaos schedule plus its provenance."""

    seed: int
    events: List[ChaosEvent] = field(default_factory=list)


@dataclass(frozen=True)
class LinkModel:
    """Lossy-link parameters of one source's uplink."""

    max_delay: float
    drop_p: float
    dup_p: float


def _sorted_payload(payload: Dict[str, object]) -> PayloadItems:
    return tuple(sorted(payload.items()))


def perturb_feed(
    pristine: Sequence[Tuple[float, str, Dict[str, object]]],
    links: Dict[str, LinkModel],
    rng: random.Random,
) -> List[ChaosEvent]:
    """Apply per-link delay/drop/duplication to a pristine feed.

    ``pristine`` is a list of ``(time, stream, payload)`` — or, for
    recovery-mode schedules, ``(time, stream, payload, seq)``, in which
    case every resulting event is annotated with the tuple's sequence
    number and original send time (drops keep the payload so the
    sender can retransmit).  The result is the surviving injections (at
    their delayed effective times, with duplicates) plus drop records,
    sorted by effective time.  Draw order is fixed per tuple (drop,
    delay, dup, dup-delay) so the perturbation of one tuple never
    shifts another's randomness — and is identical with and without
    sequence annotations, so the recovery flag never perturbs the
    lossy-mode schedule.
    """
    events: List[ChaosEvent] = []
    for item in pristine:
        time, stream, payload = item[0], item[1], item[2]
        seq = item[3] if len(item) > 3 else None
        sent = time if seq is not None else None
        link = links.get(stream, LinkModel(0.0, 0.0, 0.0))
        dropped = rng.random() < link.drop_p
        delay = rng.uniform(0.0, link.max_delay) if link.max_delay else 0.0
        duplicated = rng.random() < link.dup_p
        dup_delay = rng.uniform(0.0, link.max_delay) if link.max_delay else 0.0
        items = _sorted_payload(payload)
        if dropped:
            if seq is None:
                events.append(DropEvent(time, stream))
            else:
                events.append(DropEvent(time, stream, seq, items, sent))
            continue
        events.append(
            InjectEvent(time + delay, stream, items, seq=seq, sent=sent)
        )
        if duplicated:
            events.append(
                InjectEvent(
                    time + delay + dup_delay, stream, items,
                    duplicate=True, seq=seq, sent=sent,
                )
            )
    events.sort(key=lambda e: e.time)
    return events


def plan_faults(
    rng: random.Random,
    n_faults: int,
    window: Tuple[float, float],
    broker_candidates: Sequence[int],
    processor_candidates: Sequence[int],
    processor_fault_p: float = 0.35,
) -> List[FaultEvent]:
    """Plan ``n_faults`` crash events inside the time ``window``.

    Victims are resolved now: broker victims are drawn without
    replacement from ``broker_candidates`` (pure brokers — never
    sources, users or processors); processor victims from
    ``processor_candidates``, always leaving at least one processor
    alive.  A broker crash planned against a node the repair already
    found partitioned is recorded as *refused* at execution time — the
    plan does not need to predict reachability.
    """
    lo, hi = window
    brokers = list(broker_candidates)
    processors = list(processor_candidates)
    faults: List[FaultEvent] = []
    for __ in range(n_faults):
        take_processor = (
            len(processors) > 1 and rng.random() < processor_fault_p
        )
        if take_processor:
            victim = processors.pop(rng.randrange(len(processors)))
            kind = "processor"
        elif brokers:
            victim = brokers.pop(rng.randrange(len(brokers)))
            kind = "broker"
        else:
            break
        faults.append(FaultEvent(rng.uniform(lo, hi), kind, victim))
    faults.sort(key=lambda e: e.time)
    return faults


def merge_events(*groups: Sequence[ChaosEvent]) -> List[ChaosEvent]:
    """Merge event groups into one schedule, stably sorted by time."""
    merged: List[ChaosEvent] = []
    for group in groups:
        merged.extend(group)
    merged.sort(key=lambda e: e.time)
    return merged
