"""Exact counting parameterised by the feedback edge number.

After exhaustively pruning degree-<=1 vertices (which no (s,z)-path can
use), the underlying graph is a spanning forest plus f extra edges.  The
forest decomposes into few maximal degree-2 paths, so every static s-z
path is a short sequence of "links" (feedback edges and maximal paths) in
a condensed multigraph.  We enumerate those sequences and count, per
sequence, the temporal realizations along the expanded static path with
the forest DP.  The enumeration is capped at c * 8^f * (f+2)! sequences,
which the corpus instances stay well under.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EnumerationLimitError
from .forest import advance
from .graph import StaticGraph, TemporalGraph, _keep_edges, underlying_graph

SEQUENCE_CAP_CONSTANT = 64


def prune_degree_one(g: TemporalGraph, s: int, z: int) -> TemporalGraph:
    """Strip time-edges of vertices that no (s,z)-path can visit.

    Repeatedly removes vertices of underlying degree <= 1 other than s and
    z together with their time-edges; the vertex set itself (and all dense
    ids) stay untouched, such vertices just become isolated.
    """
    degree = [0] * g.n
    static = underlying_graph(g)
    adj = {v: set(ws) for v, ws in static.adj.items()}
    for v in range(g.n):
        degree[v] = len(adj[v])
    removed = [False] * g.n
    queue = [v for v in range(g.n) if degree[v] <= 1 and v not in (s, z)]
    while queue:
        v = queue.pop()
        if removed[v]:
            continue
        removed[v] = True
        for w in adj[v]:
            if removed[w]:
                continue
            degree[w] -= 1
            if degree[w] <= 1 and w not in (s, z):
                queue.append(w)
    return _keep_edges(g, [e for e in g.time_edges if not removed[e[0]] and not removed[e[1]]])


def feedback_edge_set(static: StaticGraph) -> frozenset[tuple[int, int]]:
    """Complement of a spanning forest; any spanning forest gives minimum size."""
    parent = list(range(static.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    feedback = []
    for u, v in sorted(static.edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            feedback.append((u, v))
        else:
            parent[ru] = rv
    return frozenset(feedback)


class CondensedGraph(NamedTuple):
    """Terminals plus links; each link carries its static vertex sequence."""

    terminals: frozenset[int]
    links: tuple[tuple[int, ...], ...]  # vertex sequences, endpoints are terminals


def condense(g: TemporalGraph, s: int, z: int) -> CondensedGraph:
    """Decompose the pruned underlying graph into terminals and links."""
    static = underlying_graph(g)
    feedback = feedback_edge_set(static)
    forest_adj: dict[int, list[int]] = {v: [] for v in range(static.n)}
    for u, v in static.edges:
        if (u, v) in feedback:
            continue
        forest_adj[u].append(v)
        forest_adj[v].append(u)
    terminals = {s, z}
    for u, v in feedback:
        terminals.add(u)
        terminals.add(v)
    for v in range(static.n):
        if static.degree(v) >= 3:
            terminals.add(v)

    links: list[tuple[int, ...]] = [(u, v) for u, v in sorted(feedback)]
    seen_edges: set[tuple[int, int]] = set()
    for start in sorted(terminals):
        for first in sorted(forest_adj[start]):
            key = (min(start, first), max(start, first))
            if key in seen_edges:
                continue
            path = [start, first]
            seen_edges.add(key)
            while path[-1] not in terminals:
                cur, prev = path[-1], path[-2]
                nxts = [w for w in forest_adj[cur] if w != prev]
                if not nxts:
                    break  # dangles at a degree-1 vertex; unusable by any s-z path
                path.append(nxts[0])
                seen_edges.add((min(cur, nxts[0]), max(cur, nxts[0])))
            if path[-1] in terminals:
                links.append(tuple(path))
    return CondensedGraph(terminals=frozenset(terminals), links=tuple(links))


def _sequence_cap(f: int) -> int:
    cap = SEQUENCE_CAP_CONSTANT * (8**f)
    for i in range(2, f + 3):
        cap *= i
    return cap


def count_fen(g: TemporalGraph, s: int, z: int) -> int:
    """Number of temporal (s,z)-paths, FPT in the feedback edge number."""
    if s == z:
        return 1
    pruned = prune_degree_one(g, s, z)
    if not pruned.time_edges:
        return 0
    condensed = condense(pruned, s, z)
    f = len(feedback_edge_set(underlying_graph(pruned)))
    cap = _sequence_cap(f)

    # Per terminal, the links leaving it as (far end, label lists in walking
    # order); each link's lists are built once, in both directions.
    labels_by_edge = pruned.labels_by_edge
    moves: dict[int, list[tuple[int, list[tuple[int, ...]]]]] = {
        t: [] for t in condensed.terminals
    }
    for link in condensed.links:
        lists = [labels_by_edge[(a, b) if a < b else (b, a)] for a, b in zip(link, link[1:])]
        moves[link[0]].append((link[-1], lists))
        moves[link[-1]].append((link[0], lists[::-1]))

    explored = 0
    total = 0

    def walk(cur: int, fn, visited: set[int]) -> None:
        nonlocal explored, total
        explored += 1
        if explored > cap:
            raise EnumerationLimitError(
                f"condensed sequence enumeration exceeded cap {cap} (f={f})"
            )
        if cur == z:
            total += fn[1][-1]
            return
        # A used link has both ends visited, so the visited check covers it.
        for nxt, lists in moves[cur]:
            if nxt in visited:
                continue
            extended = advance(fn, lists)
            if extended is None:
                continue
            visited.add(nxt)
            walk(nxt, extended, visited)
            visited.remove(nxt)

    walk(s, ([1], [1]), {s})
    return total
