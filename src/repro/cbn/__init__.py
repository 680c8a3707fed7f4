"""Content-based network substrate (section 3 of the paper).

A CBN is a multicast-like communication substrate: datagrams are sets
of attribute/value pairs, receivers declare *profiles* of data interest
and the network routes each datagram to every receiver whose profile
covers it.  Sources and receivers never learn about each other
("loose coupling").

COSMOS extends the classic CBN in two ways this package implements:

* **streaming relations** — every datagram carries the unique name of
  the stream it belongs to, and schemas are distributed either by
  flooding or through a DHT (:mod:`repro.cbn.schema_registry`);
* **early projection** — profiles carry, per stream, the set of
  attributes of interest, and brokers strip unrequested attributes as
  early as possible (:mod:`repro.cbn.routing`).
"""

from __future__ import annotations

from repro.cbn.datagram import Datagram
from repro.cbn.dht import ConsistentHashRing
from repro.cbn.filters import Filter, Profile
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.cbn.schema_registry import DHTSchemaRegistry, FloodedSchemaRegistry

__all__ = [
    "ConsistentHashRing",
    "ContentBasedNetwork",
    "Datagram",
    "Delivery",
    "DHTSchemaRegistry",
    "Filter",
    "FloodedSchemaRegistry",
    "Profile",
]
