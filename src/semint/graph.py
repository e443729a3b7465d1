"""Graph walks shared by the terminology closure, crosswalks and operations.

Each service answers a reachability question over its own graph: mapping
edges for equivalence classes and hierarchy, crosswalks for schema
connectivity, crosswalk paths for reachable operations. The walks live here
once; callers supply the edges and, for paths, their tie-break rule.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Mapping, TypeVar

__all__ = ["components", "reach", "shortest_paths"]

N = TypeVar("N", bound=Hashable)
E = TypeVar("E")


def components(edges: Iterable[tuple[N, N]]) -> dict[N, N]:
    """Each endpoint of ``edges`` mapped to the smallest member of its
    connected component; edge direction is ignored.

    Nodes with no edge are absent: callers treat them as singletons.
    """
    parent: dict[N, N] = {}

    def find(x: N) -> N:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        # the smaller root wins, so every root is its component's minimum
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    return {x: find(x) for x in parent}


def reach(adjacency: Mapping[N, Iterable[N]], start: N, goal: N | None = None) -> set[N]:
    """Nodes reachable in one or more steps from ``start``.

    With ``goal`` the walk stops once it reaches the goal, so the result holds
    the goal exactly when it is reachable, and maybe not every other node.
    """
    seen: set[N] = set()
    stack = list(adjacency.get(start, ()))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node == goal:
            break
        stack.extend(adjacency.get(node, ()))
    return seen


def shortest_paths(
    adjacency: Mapping[N, Mapping[N, E]],
    start: N,
    step_key: Callable[[N, E], Any],
    max_hops: int | None = None,
    goal: N | None = None,
) -> dict[N, tuple[E, ...]]:
    """Shortest path from ``start`` to each node it reaches, as edge labels.

    ``adjacency[u][v]`` is the label of the one edge kept from u to v. Among
    paths of equal length the one whose sequence of ``step_key(v, label)``
    over its steps is smallest wins. ``start`` maps to the empty path. Paths
    are at most ``max_hops`` long when it is given. With ``goal`` the search
    stops at the goal's level and only the goal's path is returned, if any.
    """
    parent: dict[N, tuple[N, E] | None] = {start: None}
    # the current level in path order; equal key sequences share a rank
    frontier: list[tuple[int, N]] = [(0, start)]
    hops = 0
    while frontier and (max_hops is None or hops < max_hops):
        if goal is not None and goal in parent:
            break
        # walking the level in rank order, a node's best path comes from its
        # first-ranked predecessor; step keys decide only between equal ranks
        found: dict[N, tuple[int, Any, N, E]] = {}
        for rank, u in frontier:
            for v, label in adjacency.get(u, {}).items():
                if v in parent:
                    continue
                best = found.get(v)
                if best is not None and best[0] < rank:
                    continue
                key = step_key(v, label)
                if best is None or key < best[1]:
                    found[v] = (rank, key, u, label)
        frontier = []
        previous = None
        for v in sorted(found, key=lambda n: found[n][:2]):
            rank, key, u, label = found[v]
            parent[v] = (u, label)
            if (rank, key) != previous:
                previous = (rank, key)
                next_rank = len(frontier)
            frontier.append((next_rank, v))
        hops += 1

    def path(node: N) -> tuple[E, ...]:
        labels = []
        step = parent[node]
        while step is not None:
            node, label = step
            labels.append(label)
            step = parent[node]
        return tuple(reversed(labels))

    if goal is not None:
        return {goal: path(goal)} if goal in parent else {}
    return {node: path(node) for node in parent}
