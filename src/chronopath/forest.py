"""Exact temporal path counting when the underlying graph is a forest.

Between two vertices of a forest there is at most one static path, so a
temporal path's underlying edges are forced and we only choose labels.
The count follows from a left-to-right pass along that static path,
recording for each vertex v and time t how many temporal (s,v)-paths
arrive at time <= t:

    F(v_0 = s, t) = 1
    F(v_i, t)     = sum over labels t' <= t of edge {v_{i-1}, v_i} of F(v_{i-1}, t')

Each column F(v_i, .) is a non-decreasing step function with one breakpoint
per label of the incoming edge, so we store breakpoints instead of dense
T-length arrays; long lifetimes stay cheap.  The same step (:func:`advance`)
drives the feedback-edge engine and the timed-FVS window counts, and both
peel the trees hanging off their graphs with :func:`two_core`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from .errors import NotAForestError
from .graph import StaticGraph, TemporalGraph, _keep_edges, _reach_from, underlying_graph


def two_core(edges: Iterable[tuple[int, int]], keep: Iterable[int] = ()) -> dict[int, set[int]]:
    """Adjacency of the 2-core: vertices of degree <= 1, other than ``keep``,
    peeled until none is left.

    This is the k = 2 case of Batagelj and Zaversnik's O(m) core
    decomposition.  Without ``keep`` the 2-core is an induced subgraph that
    holds every cycle; it is empty iff the graph is a forest.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    keep = set(keep)
    stack = [v for v, nb in adj.items() if len(nb) <= 1 and v not in keep]
    while stack:
        v = stack.pop()
        for w in adj.pop(v):
            nb = adj[w]
            nb.discard(v)
            if len(nb) == 1 and w not in keep:
                stack.append(w)
    return adj


def pair_cut(g: TemporalGraph, s: int, z: int) -> tuple[TemporalGraph, list[int]]:
    """The time-edges (u, v, t) where s reaches u by t and v can leave at t and still
    reach z (latest departure is earliest arrival under time reversal, Wu et al. 2014),
    in their 2-core keeping s and z, and the cut's other vertices.  Labels may repeat
    along a walk, so either orientation of {u, v} passes this test if one does.
    """
    top = g.lifetime + 1
    rev = TemporalGraph(g.n, tuple(sorted((u, v, top - t) for u, v, t in g.time_edges)), top - 1)
    a = [top if x is None else x for x in _reach_from(g, s)]
    d = [0 if x is None else top - x for x in _reach_from(rev, z)]
    kept = [(u, v, t) for u, v, t in g.time_edges if a[u] <= t <= d[v]]
    core = two_core(((u, v) for u, v, _ in kept), keep=(s, z))
    cut = _keep_edges(g, [e for e in kept if e[0] in core and e[1] in core])
    return cut, sorted(v for v in core if v != s and v != z)


def static_tree_path(static: StaticGraph, a: int, b: int) -> list[int] | None:
    """The unique a..b path of a forest as a vertex list, or None if disconnected."""
    if a == b:
        return [a]
    parent: dict[int, int] = {a: a}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            break
        for w in static.adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def advance(
    fn: tuple[list[int], list[int]], label_lists: list[tuple[int, ...]]
) -> tuple[list[int], list[int]] | None:
    """Carry a step function across a run of path edges; None once it dies.

    ``fn = (times, values)`` lists breakpoints: ``fn`` at t is the number of
    temporal prefixes arriving by time t.  ``label_lists[i]`` holds the
    sorted labels of the i-th edge of the run.
    """
    for labels in label_lists:
        times, values = fn
        new_times: list[int] = []
        new_values: list[int] = []
        running = 0
        for t in labels:
            i = bisect_right(times, t)
            if i:
                running += values[i - 1]
                new_times.append(t)
                new_values.append(running)
        if not new_times:
            return None
        fn = (new_times, new_values)
    return fn


def count_path_labels(
    label_lists: list[tuple[int, ...]], t_min: int = 1, t_max: int | None = None
) -> int:
    """Count non-decreasing label choices along a fixed static path.

    ``label_lists[i]`` holds the available labels of the i-th path edge.
    Only choices with first label >= t_min and last label <= t_max count.
    An empty path has exactly one realization (the trivial path).
    """
    fn = advance(([t_min], [1]), label_lists)
    if fn is None:
        return 0
    times, values = fn
    if t_max is None:
        return values[-1]
    i = bisect_right(times, t_max)
    return values[i - 1] if i else 0


def count_forest(g: TemporalGraph, s: int, z: int) -> int:
    """Number of temporal (s,z)-paths; requires a forest underlying graph.

    s == z yields 1, the trivial path.  Paths inside a window [lo, hi] are
    ``count_forest(restrict(g, lo, hi), s, z)``.
    """
    static = underlying_graph(g)
    if not static.is_forest:
        raise NotAForestError("underlying graph contains a cycle")
    if s == z:
        return 1
    path = static_tree_path(static, s, z)
    if path is None:
        return 0
    labels = [g.edge_labels(u, v) for u, v in zip(path, path[1:])]
    return count_path_labels(labels)
