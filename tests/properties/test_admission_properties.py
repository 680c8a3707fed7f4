"""Admission: ``CosmosSystem.submit`` installs a query or refuses it
cleanly.

Queries come from the workload generator; a drawn one of their WHERE
constants is swapped for a string, alone or with its operator made
``=`` (a mistyped query), or two of them trade places (bounds in the
wrong order).  Each damaged query is submitted just before its intact
original, so a damaged query that got in would meet a well-typed one
over the same stream, attribute and structure in grouping.  Every submit must install the query or raise
``QueryError`` / ``ParseError`` with the system's state unchanged; no
other exception may escape.
"""

import random
import re

from hypothesis import example, given, settings, strategies as st

from repro.cql.ast import QueryError
from repro.cql.parser import ParseError
from repro.cql.text import to_cql
from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog

CATALOG = sensorscope_catalog(2, rng=random.Random(1))
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]
#: a comparison operator and the numeric literal it compares against
#: (exponent included; not part of a name)
NUMBER = re.compile(r"([<>!=]=?) (-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)(?![\w.])")


def damage(text, kind, index):
    """``text`` with one WHERE constant made a string (``"mistyped"``;
    ``"mistyped="`` also makes its operator ``=``) or two constants
    swapped (``"swapped"``); ``None`` when it has too few."""
    head, where_kw, where = text.partition(" WHERE ")
    constants = list(NUMBER.finditer(where))
    if kind.startswith("mistyped") and constants:
        hit = constants[index % len(constants)]
        op = "=" if kind == "mistyped=" else hit.group(1)
        return head + where_kw + where[: hit.start()] + f"{op} 'abc'" + where[hit.end():]
    if kind == "swapped" and len(constants) >= 2:
        first = index % (len(constants) - 1)
        a, b = constants[first], constants[first + 1]
        return (
            head + where_kw + where[: a.start(2)] + b.group(2)
            + where[a.end(2): b.start(2)] + a.group(2) + where[b.end(2):]
        )
    return None


def state(system):
    network = system.network
    return (
        [handle.query_id for handle in system.queries],
        system.grouping_summary(),
        sorted(
            (node, processor.spe.query_names)
            for node, processor in system.processors.items()
        ),
        network.subscription_count,
        network.routing_state_size(),
        network.routing_epoch,
    )


def installs_or_refuses(system, text, name):
    before = state(system)
    try:
        system.submit(text, user_node=4, name=name)
    except (QueryError, ParseError):
        assert state(system) == before, text
    else:
        assert name in [handle.query_id for handle in system.queries], text


class TestSubmitInstallsOrRefuses:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        join_fraction=st.sampled_from([0.0, 0.3]),
        damages=st.lists(
            st.tuples(
                st.sampled_from(["mistyped", "mistyped=", "swapped", None]),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    # the poisoning case: "ss00.solar_radiation = 'abc'" admitted, its
    # intact original then fails in grouping (Conjunction.hull)
    @example(seed=0, join_fraction=0.0, damages=[("mistyped=", 0)])
    def test_submit_installs_or_refuses_cleanly(self, seed, join_fraction, damages):
        system = CosmosSystem(
            DisseminationTree(EDGES, {edge: 1.0 for edge in EDGES}),
            processor_nodes=[2],
        )
        for index, schema in enumerate(CATALOG):
            system.add_source(schema, index)
        workload = QueryWorkload(
            CATALOG,
            WorkloadConfig(join_fraction=join_fraction, aggregate_fraction=0.2, seed=seed),
        )
        for position, (kind, index) in enumerate(damages):
            text = to_cql(workload.next_query())
            damaged = kind and damage(text, kind, index)
            if damaged is not None:
                installs_or_refuses(system, damaged, f"d{position}")
            installs_or_refuses(system, text, f"q{position}")
