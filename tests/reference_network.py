"""A content-based network on the naive scan alone, for tests.

:class:`ReferenceNetwork` routes every publication through
:func:`repro.sim.reference.scan` and nothing else, so a property suite
can drive it and a production :class:`ContentBasedNetwork` through one
history as two independent networks and compare their deliveries and
``data_stats``.
"""

from repro.cbn.network import ContentBasedNetwork
from repro.sim.reference import scan


class ReferenceNetwork(ContentBasedNetwork):
    """A CBN whose publications take the naive scan, one datagram at a time."""

    def publish_many(self, datagrams, node):
        self.table(node)  # unknown brokers raise as in production
        return [scan(self, datagram, node, self.data_stats) for datagram in datagrams]
