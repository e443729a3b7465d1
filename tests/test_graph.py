from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from semint import graph

from oracles import all_shortest_paths, directed_reachability, equivalence_partition, level_rule_breaks

NODES = list(range(8))
edge_lists = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=24)


def labelled_adjacency(edges, labels):
    """One labelled edge per (u, v), as the callers build it."""
    adjacency: dict[int, dict[int, int]] = {}
    for (u, v), label in zip(edges, labels):
        adjacency.setdefault(u, {}).setdefault(v, label)
    return adjacency


def node_sets(adjacency):
    return {u: set(targets) for u, targets in adjacency.items()}


@settings(deadline=None)
@given(edge_lists)
def test_components_match_oracle_partition(edges):
    roots = graph.components(edges)
    classes: dict[int, set[int]] = {}
    for node in NODES:
        classes.setdefault(roots.get(node, node), set()).add(node)
    assert {frozenset(c) for c in classes.values()} == equivalence_partition(NODES, edges)
    assert all(root == min(members) for root, members in classes.items())
    assert set(roots) == {n for edge in edges for n in edge}


@settings(deadline=None)
@given(edge_lists)
def test_reach_matches_oracle(edges):
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
    pairs = {(u, v) for u in NODES for v in graph.reach(adjacency, u)}
    assert pairs == directed_reachability(NODES, edges)


@settings(deadline=None)
@given(edge_lists, st.sampled_from(NODES), st.sampled_from(NODES))
def test_reach_goal_found_iff_reachable(edges, start, goal):
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
    found = graph.reach(adjacency, start, goal)
    assert (goal in found) == ((start, goal) in directed_reachability(NODES, edges))
    assert found <= graph.reach(adjacency, start)


@settings(deadline=None)
@given(edge_lists, st.sampled_from(NODES))
def test_best_path_picks_smallest_node_sequence(edges, start):
    adjacency = labelled_adjacency(edges, edges)
    for goal in NODES:
        path = graph.best_path(adjacency, start, (goal,), lambda v, _: v)
        expected = all_shortest_paths(node_sets(adjacency), start, goal)
        if not expected:
            assert path is None
            continue
        assert [start] + [v for _, v in path] == min(expected)


@settings(deadline=None)
@given(edge_lists, st.lists(st.integers(0, 2), min_size=24, max_size=24), st.sampled_from(NODES))
@example(edges=[(0, 1), (0, 2), (1, 3), (2, 3)], labels=[0, 0, 1, 0] + [0] * 20, start=0)
def test_best_path_picks_smallest_key_sequence_with_repeated_keys(edges, labels, start):
    # few distinct keys, so different paths often share a key sequence; in
    # the example 1 and 2 are reached by equal keys and 2 leads on with the
    # smaller one
    adjacency = labelled_adjacency(edges, labels)
    for goal in NODES:
        path = graph.best_path(adjacency, start, (goal,), lambda _, label: label)
        expected = all_shortest_paths(node_sets(adjacency), start, goal)
        if expected:
            keys = [tuple(adjacency[p[i]][p[i + 1]] for i in range(len(p) - 1)) for p in expected]
            assert path == min(keys)
        else:
            assert path is None


@settings(deadline=None)
@given(
    edge_lists,
    st.lists(st.integers(0, 2), min_size=24, max_size=24),
    st.sampled_from(NODES),
    st.sets(st.sampled_from(NODES), min_size=1, max_size=4),
    st.none() | st.integers(0, 4),
)
# the goal lies one step past the bound; 3 is nearer than 2 but keyed higher
@example(edges=[(0, 1), (1, 2), (0, 3)], labels=[0, 0, 1] + [0] * 21, start=0, goals={2}, max_hops=1)
@example(edges=[(0, 1), (1, 2), (0, 3)], labels=[0, 0, 1] + [0] * 21, start=0, goals={2, 3}, max_hops=None)
def test_best_path_reaches_nearest_goal_within_max_hops(edges, labels, start, goals, max_hops):
    adjacency = labelled_adjacency(edges, labels)
    candidates = []
    for goal in goals:
        for p in all_shortest_paths(node_sets(adjacency), start, goal):
            keys = tuple(adjacency[p[i]][p[i + 1]] for i in range(len(p) - 1))
            if max_hops is None or len(keys) <= max_hops:
                candidates.append((len(keys), keys))
    expected = min(candidates)[1] if candidates else None
    assert graph.best_path(adjacency, start, goals, lambda _, label: label, max_hops) == expected


def test_levels_rise_along_every_edge_of_a_dag():
    adjacency = {0: {1, 2}, 1: {3}, 2: {3}, 3: {4}, 5: {4}}
    levels = graph.levels(adjacency)
    assert set(levels) == {0, 1, 2, 3, 4, 5}
    assert all(levels[u] < levels[v] for u, targets in adjacency.items() for v in targets)
    # each node's level is its longest path up from a node with no edge in
    assert levels == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3, 5: 0}


def test_levels_give_a_cycle_and_its_tail_one_level_above_the_rest():
    # 0 -> 1 -> 2 -> 3 -> 1 is a cycle with 1 and 3 below it; 3 -> 4 -> 5 is its tail
    adjacency = {0: {1}, 1: {2}, 2: {3}, 3: {1, 4}, 4: {5}, 6: {7}}
    levels = graph.levels(adjacency)
    top = levels[1]
    assert {levels[n] for n in (1, 2, 3, 4, 5)} == {top}
    assert all(levels[n] < top for n in (0, 6, 7))
    assert level_rule_breaks(adjacency, levels) == []


def test_levels_of_no_edges_are_empty():
    assert graph.levels({}) == {}


@settings(deadline=None)
@given(edge_lists)
def test_levels_keep_the_rule_and_pruned_walks_find_every_goal(edges):
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
    levels = graph.levels(adjacency)
    assert set(levels) == {n for edge in edges for n in edge}
    assert level_rule_breaks(adjacency, levels) == []
    for start in NODES:
        for goal in NODES:
            pruned = graph.reach(adjacency, start, goal, levels)
            assert (goal in pruned) == (goal in graph.reach(adjacency, start, goal)), (start, goal)
            assert all(levels[n] <= levels[goal] for n in pruned)
