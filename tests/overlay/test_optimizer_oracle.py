"""The cycle-priced optimizer against the brute force it replaced.

``OverlayOptimizer.optimize`` prices a swap from the flows of the
current tree, along the cycle the added edge closes, and builds a tree
only for an accepted swap.  :func:`reference_optimize` is the loop that
was there before, kept as the oracle: for every tree edge and every
topology edge, *build* the trial tree and ``tree_cost`` it — no cut
index, no flow identity, no knowledge of which pairs can work (a pair
that cannot raises ``TreeError``).  Same iteration order, same
acceptance rule, so the accepted swaps, the final tree and the report
must be the same, for any cost function.

One thing differs from the deleted loop on purpose: it tracked the
current cost as ``cost -= best_gain`` across rounds, and that running
value drifts from the tree's real cost by a rounding error that every
gain of the round then carries — enough, at convergence, to accept the
swap of an idle edge that moves no flow and gains nothing (2 of 400
random cases).  The oracle prices the current tree afresh each round.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.optimizer import (
    OptimizationReport,
    OverlayOptimizer,
    hop_count_cost,
    weighted_traffic_cost,
)
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree, TreeError


def congestion_cost(weight, flow):
    """Convex in the flow: nothing in the optimizer may assume that the
    cost of a link is linear in what it carries."""
    return weight * flow**2


COST_FUNCTIONS = [weighted_traffic_cost, hop_count_cost, congestion_cost]


def reference_optimize(topology, tree, demands, max_rounds, cost_function, max_degree):
    """Brute-force hill climbing; returns (tree, report, accepted swaps)."""
    pricer = OverlayOptimizer(topology, cost_function)
    current = tree
    initial_cost = pricer.tree_cost(current, demands)
    accepted = []
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        current_cost = pricer.tree_cost(current, demands)
        best_gain, best_swap = 0.0, None
        for edge in current.edges:
            for cand in topology.edges:
                weight = topology.weights[cand]
                try:
                    trial = current.with_edge_swap(edge, cand, weight)
                except TreeError:
                    continue
                if max_degree is not None and any(
                    current.degree(end) < trial.degree(end) > max_degree
                    for end in cand
                ):
                    continue
                gain = current_cost - pricer.tree_cost(trial, demands)
                if gain > best_gain + 1e-12:
                    best_gain, best_swap = gain, (edge, cand, weight)
        if best_swap is None:
            break
        current = current.with_edge_swap(*best_swap)
        accepted.append(best_swap)
    report = OptimizationReport(
        rounds, len(accepted), initial_cost, pricer.tree_cost(current, demands)
    )
    return current, report, accepted


def random_case(seed):
    """Topology, tree, demands, rounds, cost function and degree cap.

    Half the cases are *exact*: small integer link weights and rates in
    halves, so every cost is computed without rounding and equal gains
    are common — the tie-breaks (first tree edge, first candidate) are
    what is tested.  The other half keep the generator's Euclidean
    weights and draw real-valued rates.  Either way some demands carry
    nothing, some go nowhere and some pairs repeat.
    """
    rng = random.Random(seed)
    n = rng.randint(5, 24)
    topology = barabasi_albert(n, rng.choice([1, 2, 2, 3]), rng)
    exact = rng.random() < 0.5
    if exact:
        for u, v in topology.edges:
            topology.add_edge(u, v, rng.randint(1, 4))
    if rng.random() < 0.5:
        tree = DisseminationTree.minimum_spanning(topology)
    else:
        tree = DisseminationTree.shortest_path(topology, rng.randrange(n))
    demands = []
    for __ in range(rng.choice([1, 3, 8, 20, 40])):
        source, sink = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.1:
            sink = source
        rate = rng.randint(1, 8) / 2 if exact else rng.uniform(0.5, 10.0)
        if rng.random() < 0.1:
            rate = 0.0
        demands.append((source, sink, rate))
    demands += rng.sample(demands, min(2, len(demands)))
    cap = None
    if rng.random() < 0.5:
        cap = max(tree.degree(node) for node in tree.nodes) - rng.randint(0, 1)
        cap = max(cap, 2)
    return topology, tree, demands, rng.randint(1, 4), rng.choice(COST_FUNCTIONS), cap


def recorded_swaps(monkeypatch):
    """Every ``with_edge_swap`` call from here on, in order."""
    calls, build = [], DisseminationTree.with_edge_swap

    def spy(tree, removed, added, added_weight):
        calls.append((removed, added, added_weight))
        return build(tree, removed, added, added_weight)

    monkeypatch.setattr(DisseminationTree, "with_edge_swap", spy)
    return calls


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=120, deadline=None)
def test_same_swaps_tree_and_report_as_brute_force(seed):
    topology, tree, demands, rounds, cost_function, cap = random_case(seed)
    expected_tree, expected_report, expected_swaps = reference_optimize(
        topology, tree, demands, rounds, cost_function, cap
    )
    optimizer = OverlayOptimizer(topology, cost_function, cap)
    before = tree.edges
    with pytest.MonkeyPatch.context() as patch:
        swaps = recorded_swaps(patch)
        improved, report = optimizer.optimize(tree, demands, rounds)
    # a tree is built per accepted swap, never per trial
    assert swaps == expected_swaps
    assert improved.edges == expected_tree.edges
    assert [improved.weight(*e) for e in improved.edges] == [
        expected_tree.weight(*e) for e in expected_tree.edges
    ]
    assert report == expected_report
    assert tree.edges == before
    # every accepted swap paid: the cost falls strictly along the way
    costs = [optimizer.tree_cost(tree, demands)]
    current = tree
    for swap in swaps:
        current = current.with_edge_swap(*swap)
        costs.append(optimizer.tree_cost(current, demands))
    assert all(later < earlier for earlier, later in zip(costs, costs[1:]))
    if cap is not None:
        assert all(
            improved.degree(node) <= max(cap, tree.degree(node))
            for node in improved.nodes
        )


def test_every_cost_function_and_cap_is_drawn():
    """The property above is only as wide as its generator."""
    cases = [random_case(seed) for seed in range(200)]
    assert {case[4] for case in cases} == set(COST_FUNCTIONS)
    assert {case[5] is None for case in cases} == {True, False}
    assert {case[3] for case in cases} == {1, 2, 3, 4}
    assert any(rate == 0.0 for case in cases for __, __, rate in case[2])
    assert any(source == sink for case in cases for source, sink, __ in case[2])
