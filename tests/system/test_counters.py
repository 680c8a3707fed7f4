"""Activity counters: their ``as_dict`` views and ``health()`` key order.

Each counter's ``as_dict`` is serialised into ``health()``, the CLI
totals and the pinned ``BENCH_chaos*.json`` sweeps, so its keys must be
the dataclass fields in declaration order and its values a snapshot.
"""

from dataclasses import fields

import pytest

from repro.sim.network import ChaosCounters
from repro.system.cosmos import CosmosSystem
from repro.system.loadmgr import LoadCounters
from repro.system.monitor import SystemMonitor
from repro.system.reliability import ReliabilityCounters

COUNTERS = [ReliabilityCounters, LoadCounters, ChaosCounters]


def field_names(cls):
    return [f.name for f in fields(cls)]


@pytest.mark.parametrize("cls", COUNTERS, ids=lambda cls: cls.__name__)
class TestAsDict:
    def test_keys_are_the_fields_in_declaration_order(self, cls):
        assert list(cls().as_dict()) == field_names(cls)

    def test_values_are_the_current_counts(self, cls):
        counters = cls()
        for value, name in enumerate(field_names(cls), start=1):
            setattr(counters, name, value)
        assert list(counters.as_dict().values()) == list(
            range(1, len(field_names(cls)) + 1)
        )

    def test_is_a_snapshot(self, cls):
        counters = cls()
        first = field_names(cls)[0]
        view = counters.as_dict()
        view[first] = 99
        setattr(counters, first, 5)
        assert getattr(counters, first) == 5
        assert view[first] == 99
        assert counters.as_dict()[first] == 5


def test_health_keys_in_pinned_order(line_tree):
    # Reliability fields, the reliability lists, then load fields and
    # the load lists: the order the chaos sweeps serialise.
    health = SystemMonitor(CosmosSystem(line_tree, processor_nodes=[2])).health()
    assert list(health) == (
        field_names(ReliabilityCounters)
        + ["suspected_nodes", "quarantined_queries", "degraded_queries"]
        + field_names(LoadCounters)
        + ["hot_processors", "migrations_in_flight"]
    )
