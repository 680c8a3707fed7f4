"""The shared-lease failure detector against the per-node one it replaced.

``FailureDetector`` keeps one deadline for every node that answered the
last sweep and a deadline of its own only for a node that did not (or
was registered since), so a heartbeat sweep costs the silent nodes, not
the monitored ones.  :class:`PerNodeDetector` is the detector that was
there before, kept as the oracle: one deadline per node, renewed by a
``heartbeat`` per answering node, and a sweep that walks every monitored
node.  Both must agree, step by step, on what ``check`` returns and on
``monitored`` and ``suspected`` — and a chaos run must replay the same
trace with either one behind it.  The shared detector also runs the
``FAILURE_DETECTOR`` table, so it refuses what the table does not list
(registering a monitored node, deregistering an unknown one) and leaves
its state as it was; the oracle skips those steps.
"""

import random

import pytest

from repro.sim import ChaosConfig, run_chaos
from repro.system import reliability
from repro.system.lifecycle import Lifecycle
from repro.system.reliability import (
    FAILURE_DETECTOR,
    FailureDetector,
    ReliabilityError,
)


class PerNodeDetector:
    """One lease per node, renewed one heartbeat at a time."""

    def __init__(self):
        self._deadlines = {}
        self._suspected = set()
        #: what a chaos run reads the detector's counts from; the oracle
        #: counts only its suspicions (``health()``'s ``nodes_suspected``)
        self.leases = Lifecycle(FAILURE_DETECTOR, ReliabilityError)

    @property
    def monitored(self):
        return sorted(self._deadlines)

    @property
    def suspected(self):
        return sorted(self._suspected)

    def register(self, node, now):
        self._deadlines[node] = now + reliability.lease()
        self._suspected.discard(node)

    def deregister(self, node):
        self._deadlines.pop(node, None)
        self._suspected.discard(node)

    def heartbeat(self, node, now):
        if node in self._deadlines:
            self._deadlines[node] = now + reliability.lease()

    def sweep(self, now, silent):
        for node in self.monitored:
            if node not in silent:
                self.heartbeat(node, now)

    def check(self, now):
        newly = sorted(
            node for node, deadline in self._deadlines.items() if deadline <= now
        )
        for node in newly:
            del self._deadlines[node]
            self._suspected.add(node)
            self.leases.take("suspect", "MONITORED", node)
        return newly


def random_history(rng, steps=300, universe=12):
    """Register / deregister / sweep / check steps on a 5 s clock.

    Times sit on the sweep grid so a deadline often equals the ``now``
    of a check (the ``<=`` boundary); the clock mostly advances but
    sometimes steps back, and ``silent`` may name unmonitored nodes.
    """
    now = 0.0
    for _ in range(steps):
        now = max(0.0, now + rng.choice((0.0, 5.0, 5.0, 5.0, 10.0, 15.0, -5.0)))
        op = rng.random()
        if op < 0.2:
            yield ("register", rng.randrange(universe), now)
        elif op < 0.3:
            yield ("deregister", rng.randrange(universe))
        elif op < 0.7:
            silent = {n for n in range(universe) if rng.random() < 0.2}
            yield ("sweep", now, silent)
        else:
            yield ("check", now)


def apply(detector, step):
    name, *args = step
    return getattr(detector, name)(*args)


@pytest.mark.parametrize("seed", range(40))
def test_random_histories_match_the_per_node_oracle(seed):
    rng = random.Random(f"detector:{seed}")
    shared, oracle = FailureDetector(), PerNodeDetector()
    refused = 0
    for index, step in enumerate(random_history(rng)):
        monitored = step[1] in oracle._deadlines
        if step[0] == "register" and monitored or (
            step[0] == "deregister" and not monitored and step[1] not in oracle._suspected
        ):
            with pytest.raises(ReliabilityError, match=step[0]):
                apply(shared, step)
            refused += 1
        else:
            assert apply(shared, step) == apply(oracle, step), (index, step)
        assert sorted(shared._shared.union(shared._deadlines)) == oracle.monitored, (index, step)
        assert shared.suspected == oracle.suspected, (index, step)
    assert refused


def test_chaos_trace_is_the_same_with_the_oracle_detector(monkeypatch):
    """A recovery + migration run long enough for thousands of sweeps
    replays byte for byte with the per-node detector swapped in."""
    config = ChaosConfig(
        seed=0, recovery=True, migrate=True, duration=15000.0, n_nodes=100,
        n_queries=10, n_tuples=40, n_faults=6,
    )
    shared = run_chaos(config)
    created = []

    def per_node():
        created.append(PerNodeDetector())
        return created[-1]

    monkeypatch.setattr(reliability, "FailureDetector", per_node)
    oracle = run_chaos(config)
    assert created, "the oracle detector was not used"
    assert shared.ok and oracle.ok
    assert shared.reliability["nodes_suspected"] == config.n_faults
    assert shared.health["migrations_completed"] >= 1
    assert shared.trace.digest() == oracle.trace.digest()
    assert shared.render() == oracle.render()
    assert shared.reliability == oracle.reliability
