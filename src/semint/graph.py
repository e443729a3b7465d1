"""Graph walks shared by the terminology closure, crosswalks and operations.

Each service answers a reachability question over its own graph: mapping
edges for equivalence classes and hierarchy, crosswalks for schema
connectivity, crosswalk paths for reachable operations. The walks live here
once; callers supply the edges and, for paths, their tie-break rule, and for
a walk toward a goal maybe the levels that prune it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Any, Callable, Container, Hashable, Iterable, Mapping, TypeVar

__all__ = ["best_path", "components", "levels", "reach"]

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


def reach(
    adjacency: Mapping[N, Iterable[N]], start: N, goal: N | None = None, levels: Mapping[N, int] | None = None
) -> set[N]:
    """Nodes reachable in one or more steps from ``start``.

    With ``goal`` the walk stops once it reaches the goal, so the result holds
    the goal exactly when it is reachable, and maybe not every other node.
    With ``goal`` and ``levels``, which must never fall along an edge (see
    :func:`levels`), the walk also never steps onto a node whose level is
    above the goal's, and does not start when ``start`` is above it.
    """
    seen: set[N] = set()
    top = None
    if levels is not None and goal is not None:
        # a node with no level has no edge, so nothing reaches it
        top = levels.get(goal, -1)
        if levels.get(start, top) > top:
            return seen
    stack = list(adjacency.get(start, ()))
    while stack:
        node = stack.pop()
        if node in seen or (top is not None and levels[node] > top):
            continue
        seen.add(node)
        if node == goal:
            break
        stack.extend(adjacency.get(node, ()))
    return seen


def levels(adjacency: Mapping[N, Iterable[N]]) -> dict[N, int]:
    """A level for every node of ``adjacency`` that never falls along an edge,
    and rises along every edge whose lower end lies on no cycle and above none.

    Kahn's order, one layer at a time: a node's level is the layer in which
    its last edge in is taken away, which is the longest path up to it from
    a node with no edge in. The nodes no layer reaches are the cycles and
    everything above them; no edge leaves that set, so all of it gets one
    level, one above every layer.
    """
    indegree = Counter(chain.from_iterable(adjacency.values()))
    layer = [u for u in adjacency if u not in indegree]
    level: dict[N, int] = {}
    k = 0
    while layer:
        level.update(dict.fromkeys(layer, k))
        above = []
        for u in layer:
            for v in adjacency.get(u, ()):
                indegree[v] -= 1
                if not indegree[v]:
                    above.append(v)
        layer = above
        k += 1
    level.update(dict.fromkeys([v for v, count in indegree.items() if count], k))
    return level


def best_path(
    adjacency: Mapping[N, Mapping[N, E]],
    start: N,
    goals: Container[N],
    step_key: Callable[[N, E], Any],
    max_hops: int | None = None,
) -> tuple[E, ...] | None:
    """Shortest path from ``start`` to any node in ``goals``, as edge labels.

    ``adjacency[u][v]`` is the label of the one edge kept from u to v. Among
    paths of equal length the one whose sequence of ``step_key(v, label)``
    over its steps is smallest wins. The path is empty when ``start`` is a
    goal, and None when no goal lies within ``max_hops`` steps.
    """
    # breadth-first levels, each in first-seen order, up to the first goal
    levels = [[start]]
    seen = {start}
    while not any(node in goals for node in levels[-1]):
        if not levels[-1] or (max_hops is not None and len(levels) > max_hops):
            return None
        level = list(dict.fromkeys(v for u in levels[-1] for v in adjacency.get(u, {}) if v not in seen))
        seen.update(level)
        levels.append(level)
    # walking back, mark the nodes of each level that lead on to a goal
    marked = [{node for node in levels.pop() if node in goals}]
    for level in reversed(levels):
        marked.insert(0, {u for u in level if any(v in marked[0] for v in adjacency.get(u, {}))})
    # every marked node leads on, so the smallest key at each step gives the
    # smallest key sequence; every node that key reaches goes on, in
    # first-seen order, so that the answer is the same in every process
    paths: dict[N, tuple[E, ...]] = {start: ()}
    for ahead in marked[1:]:
        steps = [
            (step_key(v, label), v, path + (label,))
            for u, path in paths.items()
            for v, label in adjacency[u].items()
            if v in ahead
        ]
        smallest = min(key for key, _, _ in steps)
        paths = {}
        for key, v, path in steps:
            if key == smallest:
                paths.setdefault(v, path)
    return next(iter(paths.values()))
