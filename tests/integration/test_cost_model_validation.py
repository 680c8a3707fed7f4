"""Validating the C(q) estimator against measured result rates.

The grouping decisions hinge on the cost model, so its estimates should
track reality on workloads matching its assumptions (uniform values,
independent attributes).  These tests feed uniform synthetic streams
through the SPE and compare measured result-tuple rates against
:meth:`CostModel.result_tuple_rate`.
"""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.core.cost import CostModel
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.spe.engine import StreamProcessingEngine

RATE = 5.0  # tuples per second
DURATION = 400.0

CATALOG = Catalog(
    [
        StreamSchema(
            "U",
            [Attribute("k", "int", 0, 9), Attribute("v", "float", 0.0, 100.0)],
            rate=RATE,
        ),
        StreamSchema(
            "W",
            [Attribute("k", "int", 0, 9), Attribute("z", "float", 0.0, 100.0)],
            rate=RATE,
        ),
    ]
)


def uniform_feed(rng, streams=("U",)):
    events = []
    for stream in streams:
        t = 0.0
        payload_attr = "v" if stream == "U" else "z"
        while t < DURATION:
            t += rng.expovariate(RATE)
            events.append(
                Datagram(
                    stream,
                    {"k": rng.randrange(10), payload_attr: rng.uniform(0, 100)},
                    t,
                )
            )
    events.sort(key=lambda d: d.timestamp)
    return events


def estimated_tuple_rate(query):
    """The cost model's result tuples per second for ``query``."""
    return CostModel()._tuple_rate(query.streams, query.predicate, query.is_aggregate, CATALOG)


def measured_tuple_rate(query, feed):
    spe = StreamProcessingEngine(CATALOG)
    spe.register(query, "q")
    count = sum(len(spe.push(d)) for d in feed)
    return count / DURATION


class TestSingleStreamEstimates:
    @pytest.mark.parametrize(
        "where,expected_rel_err",
        [
            ("", 0.15),
            ("WHERE U.v >= 50", 0.2),
            ("WHERE U.v >= 25 AND U.v <= 75", 0.2),
            ("WHERE U.k = 3", 0.4),
        ],
    )
    def test_estimate_tracks_measurement(self, where, expected_rel_err):
        query = parse_query(f"SELECT U.v FROM U [Range 60] U {where}".strip())
        estimate = estimated_tuple_rate(query)
        measured = measured_tuple_rate(query, uniform_feed(random.Random(3)))
        assert measured == pytest.approx(estimate, rel=expected_rel_err)


class TestJoinEstimate:
    def test_window_join_within_factor_two(self):
        query = parse_query(
            "SELECT U.v, W.z FROM U [Range 20] U, W [Range 20] W "
            "WHERE U.k = W.k"
        )
        estimate = estimated_tuple_rate(query)
        measured = measured_tuple_rate(
            query, uniform_feed(random.Random(5), streams=("U", "W"))
        )
        assert estimate / 2 <= measured <= estimate * 2

    def test_rate_ordering_preserved(self):
        """Even if absolute estimates drift, the *ordering* the greedy
        relies on must match measurements."""
        texts = [
            "SELECT U.v FROM U [Range 60] U",
            "SELECT U.v FROM U [Range 60] U WHERE U.v >= 50",
            "SELECT U.v FROM U [Range 60] U WHERE U.v >= 90",
        ]
        feed = uniform_feed(random.Random(7))
        estimates = []
        measures = []
        for text in texts:
            query = parse_query(text)
            estimates.append(estimated_tuple_rate(query))
            measures.append(measured_tuple_rate(query, feed))
        assert estimates == sorted(estimates, reverse=True)
        assert measures == sorted(measures, reverse=True)
