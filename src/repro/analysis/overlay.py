"""COS4xx: overlay and routing-state checks.

These checks inspect a :class:`ContentBasedNetwork` (or a raw
node/edge list) without publishing a single datagram:

* ``COS402`` — the overlay graph is not a tree (cycle, disconnection,
  self-loop, dangling edge).  Routing in COSMOS assumes a
  dissemination tree; a cycle would duplicate datagrams, a
  disconnection silently partitions publishers from subscribers.
* ``COS401`` — a subscriber cannot be reached from some advertised
  publisher of a stream it requests: a broker on the path lacks the
  subscription's routing entry pointing back toward the subscriber.
* ``COS403`` — a routing entry that can never fire: no live
  subscription owns its id, or it sits behind an interface that is not
  a tree neighbour of its broker.
* ``COS404`` — a subscribed stream has no advertised publisher, so
  under advertisement-scoped propagation the subscription never
  receives data.

The reachability check re-walks the tree path independently of the
propagation code in :meth:`ContentBasedNetwork._propagate_toward`, so
regressions in either show up as a disagreement here.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.satisfiability import check_dead_profiles
from repro.cbn.network import ContentBasedNetwork, entry_id
from repro.cbn.routing import RoutingTable
from repro.overlay.tree import DisseminationTree, TreeError


def check_overlay_graph(
    nodes: Iterable[Hashable],
    edges: Iterable[Tuple[Hashable, Hashable]],
    source: str = "<overlay>",
) -> Report:
    """COS402 on a raw node/edge list: is this a tree?

    Independent of :class:`DisseminationTree`'s own constructor check
    (union-find here, BFS there) so the checker also validates overlay
    descriptions that never make it into a tree object.
    """
    report = Report()
    node_list = list(nodes)
    node_set = set(node_list)
    if len(node_list) != len(node_set):
        report.add("COS402", "duplicate node ids in overlay", source)
    parent: Dict[Hashable, Hashable] = {node: node for node in node_set}

    def find(item: Hashable) -> Hashable:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    edge_count = 0
    seen_edges: Set[Tuple[Hashable, Hashable]] = set()
    for u, v in edges:
        edge_count += 1
        if u == v:
            report.add("COS402", f"self-loop on node {u!r}", source)
            continue
        if u not in node_set or v not in node_set:
            report.add(
                "COS402",
                f"edge ({u!r}, {v!r}) references a node outside the overlay",
                source,
            )
            continue
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        if key in seen_edges:
            report.add("COS402", f"duplicate edge ({u!r}, {v!r})", source)
            continue
        seen_edges.add(key)
        ru, rv = find(u), find(v)
        if ru == rv:
            report.add(
                "COS402",
                f"edge ({u!r}, {v!r}) closes a cycle: datagrams would be "
                "duplicated",
                source,
            )
            continue
        parent[ru] = rv
    components = {find(node) for node in node_set}
    if len(components) > 1:
        report.add(
            "COS402",
            f"overlay is disconnected: {len(components)} components; "
            "publishers and subscribers in different components can "
            "never exchange data",
            source,
        )
    return report


def check_reachability(network: ContentBasedNetwork) -> Report:
    """COS401/404: can every subscriber be fed from every publisher?"""
    report = Report()
    for sid, (node, profile) in network.subscriptions().items():
        source = f"subscription:{sid}"
        if sid not in network.table(node).local_profiles():
            report.add(
                "COS401",
                f"subscriber {sid!r} has no local delivery entry at its "
                f"own broker {node!r}",
                source,
            )
        for stream in sorted(profile.streams):
            publishers = network.publishers_of(stream)
            if not publishers:
                report.add(
                    "COS404",
                    f"subscription {sid!r} requests stream {stream!r} "
                    "which no node advertises; it will never receive "
                    "data",
                    source,
                )
                continue
            wanted = entry_id(sid, stream)
            for publisher in publishers:
                if publisher == node:
                    continue  # local publications deliver directly
                try:
                    path = network.tree.path(node, publisher)
                except TreeError as exc:
                    report.add(
                        "COS401",
                        f"no overlay path from subscriber {sid!r} at "
                        f"{node!r} to publisher {publisher!r} of "
                        f"{stream!r}: {exc}",
                        source,
                    )
                    continue
                for toward_sub, here in zip(path, path[1:]):
                    if wanted not in network.table(here).entries(toward_sub):
                        report.add(
                            "COS401",
                            f"broker {here!r} has no routing entry for "
                            f"{sid!r}/{stream!r} behind interface "
                            f"{toward_sub!r}: datagrams from publisher "
                            f"{publisher!r} stop there",
                            source,
                        )
                        break
    return report


def check_routing_entries(network: ContentBasedNetwork) -> Report:
    """COS403: routing entries that can never fire.

    An entry is live when a live subscription owns its id — the
    subscription's own id for its LOCAL entry, one
    :func:`~repro.cbn.network.entry_id` per requested stream for its
    forwarding entries.  Ids are compared, never parsed: a subscription
    id may contain any character.
    """
    report = Report()
    owned: Set[str] = set()
    for sid, (__, profile) in network.subscriptions().items():
        owned.add(sid)
        owned.update(entry_id(sid, stream) for stream in profile.streams)
    for node in network.tree.nodes:
        table = network.table(node)
        source = f"broker:{node}"
        neighbors: Set[Hashable] = set(network.tree.neighbors(node))
        for interface in table.interfaces:
            is_local = interface is RoutingTable.LOCAL
            if not is_local and interface not in neighbors:
                report.add(
                    "COS403",
                    f"routing entries behind {interface!r} which is not a "
                    f"tree neighbour of broker {node!r}; they can never "
                    "match a forwarded datagram",
                    source,
                )
            for entry in table.entries(interface):
                if entry not in owned:
                    report.add(
                        "COS403",
                        f"orphan routing entry {entry!r} behind "
                        f"{'local' if is_local else repr(interface)}: "
                        "no live subscription owns it",
                        source,
                    )
    return report


def check_routing_redundancy(network: ContentBasedNetwork) -> Report:
    """COS203/205 across each broker interface's installed profiles."""
    report = Report()
    for node in network.tree.nodes:
        table = network.table(node)
        for interface in table.interfaces:
            if interface is RoutingTable.LOCAL:
                continue  # local entries are delivery endpoints, never dead
            entries = list(table.entries(interface).items())
            if len(entries) > 1:
                report.extend(
                    check_dead_profiles(
                        entries, source=f"broker:{node}/if:{interface}"
                    )
                )
    return report


def check_network(network: ContentBasedNetwork) -> Report:
    """All COS4xx checks (plus interface-level COS203) for one CBN."""
    report = check_overlay_graph(
        network.tree.nodes, network.tree.edges, source="<overlay>"
    )
    if report.errors:
        return report  # path queries on a broken overlay are meaningless
    report.extend(check_reachability(network))
    report.extend(check_routing_entries(network))
    report.extend(check_routing_redundancy(network))
    return report
