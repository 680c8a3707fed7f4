"""Property-based checks of the overlay substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.topology import barabasi_albert, edge_key
from repro.overlay.tree import DisseminationTree

seeds = st.integers(min_value=0, max_value=10_000)


def far_side(tree, node, neighbor):
    """The nodes ``tree`` reaches from ``node`` through ``neighbor``."""
    seen, frontier = {node, neighbor}, [neighbor]
    while frontier:
        for other in tree.neighbors(frontier.pop()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen - {node}


class TestTreeProperties:
    @given(seeds, st.integers(min_value=5, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_mst_is_minimal_under_single_swaps(self, seed, n):
        """No single edge swap can improve an MST (cut property)."""
        topo = barabasi_albert(n, 2, random.Random(seed))
        tree = DisseminationTree.minimum_spanning(topo)
        for edge in tree.edges:
            u, v = edge
            side = far_side(tree, u, v)
            for cand in sorted(topo.weights):
                a, b = cand
                if cand == edge:
                    continue
                if (a in side) != (b in side):
                    # Swapping in cand must not beat the MST edge.
                    assert topo.weights[cand] >= tree.weight(u, v) - 1e-9

    @given(seeds, st.integers(min_value=5, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_paths_are_symmetric(self, seed, n):
        topo = barabasi_albert(n, 2, random.Random(seed))
        tree = DisseminationTree.minimum_spanning(topo)
        rng = random.Random(seed + 1)
        for __ in range(5):
            a, b = rng.randrange(n), rng.randrange(n)
            assert tree.path(a, b) == list(reversed(tree.path(b, a)))

    @given(seeds, st.integers(min_value=5, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_path_weight_triangle_inequality_on_trees(self, seed, n):
        """On a tree, w(a->c) <= w(a->b) + w(b->c) with equality when b
        lies on the a->c path."""
        topo = barabasi_albert(n, 2, random.Random(seed))
        tree = DisseminationTree.minimum_spanning(topo)
        rng = random.Random(seed + 2)
        a, b, c = (rng.randrange(n) for __ in range(3))
        assert (
            tree.path_weight(a, c)
            <= tree.path_weight(a, b) + tree.path_weight(b, c) + 1e-9
        )
