"""Audits of a content-based network's routing state, for tests.

Both read the tables and walk the tree on their own, independently of
the propagation code in :meth:`ContentBasedNetwork._propagate_toward`,
so a regression in either shows up as a disagreement.  They are the
oracle of ``tests/properties/test_cbn_properties.py``.
"""

from repro.cbn.network import entry_id
from repro.cbn.routing import RoutingTable


def unreachable_subscribers(network):
    """Where a subscriber cannot be fed from an advertised publisher of a
    stream it requests: its own broker lacks its LOCAL entry, or a
    broker on the tree path lacks its entry behind the interface that
    points back toward it.  One message per problem; ``[]`` when
    every subscriber is reachable."""
    problems = []
    for sid, (node, profile) in network.subscriptions().items():
        if sid not in network.table(node).local_profiles():
            problems.append(f"{sid!r} has no local entry at its own broker {node!r}")
        for stream in sorted(profile.streams):
            wanted = entry_id(sid, stream)
            for publisher in network.publishers_of(stream):
                if publisher == node:
                    continue  # local publications deliver directly
                path = network.tree.path(node, publisher)
                for toward_sub, here in zip(path, path[1:]):
                    if wanted not in network.table(here).entries(toward_sub):
                        problems.append(
                            f"broker {here!r} has no entry for {sid!r}/{stream!r} "
                            f"behind {toward_sub!r}: datagrams from {publisher!r} stop there"
                        )
                        break
    return problems


def orphan_entries(network):
    """Routing entries that can never fire: no live subscription owns
    the id (a subscription owns its own id, its LOCAL entry, and one
    :func:`~repro.cbn.network.entry_id` per stream it requests; ids are
    compared, never parsed), or the entry sits behind an interface
    that is not a tree neighbour of its broker.  One message each."""
    owned = set()
    for sid, (__, profile) in network.subscriptions().items():
        owned.add(sid)
        owned.update(entry_id(sid, stream) for stream in profile.streams)
    problems = []
    for node in network.tree.nodes:
        table = network.table(node)
        neighbors = set(network.tree.neighbors(node))
        for interface in table.interfaces:
            local = interface is RoutingTable.LOCAL
            if not local and interface not in neighbors:
                problems.append(
                    f"broker {node!r} has entries behind {interface!r}, not a tree neighbour"
                )
            problems.extend(
                f"orphan entry {entry!r} at broker {node!r}"
                for entry in table.entries(interface)
                if entry not in owned
            )
    return problems
