"""Exact counting parameterised by the feedback edge number.

After exhaustively pruning degree-<=1 vertices (which no (s,z)-path can
use), the underlying graph is a spanning forest plus f extra edges.  The
forest decomposes into few maximal degree-2 paths, so every static s-z
path is a short sequence of "links" (feedback edges and maximal paths) in
a condensed multigraph.  A walk over links carries its prefix's step
function (the forest DP's :func:`advance`) from terminal to terminal.  The
number of ways to finish at z depends only on the terminal, that step
function and the region of terminals still reachable through unvisited
ones, so each such state is expanded once and its completions are shared
by every prefix that reaches it; a region without z finishes nothing.  At
most c * 8^f * (f+2)! states are expanded, which the corpus instances stay
well under.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .errors import EnumerationLimitError
from .forest import advance, two_core
from .graph import StaticGraph, TemporalGraph, _keep_edges, underlying_graph
from .graph import closing_edges, region_mask, sum_walk_states

SEQUENCE_CAP_CONSTANT = 64


def prune_degree_one(g: TemporalGraph, s: int, z: int) -> TemporalGraph:
    """Strip time-edges of vertices that no (s,z)-path can visit.

    Repeatedly removes vertices of underlying degree <= 1 other than s and
    z together with their time-edges; the vertex set itself (and all dense
    ids) stay untouched, such vertices just become isolated.
    """
    core = two_core(underlying_graph(g).sorted_edges, (s, z))
    return _keep_edges(g, [e for e in g.time_edges if e[0] in core and e[1] in core])


def feedback_edge_set(static: StaticGraph) -> frozenset[tuple[int, int]]:
    """Complement of a spanning forest; any spanning forest gives minimum size."""
    return frozenset(closing_edges(static.n, static.sorted_edges))


class CondensedGraph(NamedTuple):
    """Terminals plus links; each link carries its static vertex sequence."""

    terminals: frozenset[int]
    links: tuple[tuple[int, ...], ...]  # vertex sequences, endpoints are terminals
    feedback: frozenset[tuple[int, int]]


def condense(g: TemporalGraph, s: int, z: int) -> CondensedGraph:
    """Decompose the pruned underlying graph into terminals and links."""
    static = underlying_graph(g)
    feedback = feedback_edge_set(static)
    # Built from the sorted edges, so every neighbour list comes out sorted.
    forest_adj: list[list[int]] = [[] for _ in range(static.n)]
    for u, v in static.sorted_edges:
        if (u, v) not in feedback:
            forest_adj[u].append(v)
            forest_adj[v].append(u)
    terminals = {s, z, *(x for edge in feedback for x in edge)}
    terminals.update(v for v, nb in enumerate(static.adj) if len(nb) >= 3)

    links: list[tuple[int, ...]] = sorted(feedback)
    # A link walked from one terminal is not walked back from the other: the
    # forest has no cycle, so only its far end leads into it again.
    arrived: set[tuple[int, int]] = set()
    for start in sorted(terminals):
        for first in forest_adj[start]:
            if (start, first) in arrived:
                continue
            path = [start, first]
            while path[-1] not in terminals:
                cur, prev = path[-1], path[-2]
                nxts = [w for w in forest_adj[cur] if w != prev]
                if not nxts:
                    break  # dangles at a degree-1 vertex; unusable by any s-z path
                path.append(nxts[0])
            if path[-1] in terminals:
                arrived.add((path[-1], path[-2]))
                links.append(tuple(path))
    return CondensedGraph(frozenset(terminals), tuple(links), feedback)


def _sequence_cap(f: int) -> int:
    """Most walk states count_fen expands: the distinct ones the memo misses."""
    return SEQUENCE_CAP_CONSTANT * 8**f * factorial(f + 2)


def count_fen(g: TemporalGraph, s: int, z: int) -> int:
    """Number of temporal (s,z)-paths, FPT in the feedback edge number."""
    if s == z:
        return 1
    pruned = prune_degree_one(g, s, z)
    if not pruned.time_edges:
        return 0
    condensed = condense(pruned, s, z)
    f = len(condensed.feedback)
    cap = _sequence_cap(f)

    # Per terminal index, the links leaving it as (far end, label lists in
    # walking order), each built once in both directions, and a neighbour mask.
    index = {t: i for i, t in enumerate(sorted(condensed.terminals))}
    moves: list[list[tuple[int, list[tuple[int, ...]]]]] = [[] for _ in index]
    nbr = [0] * len(index)
    for link in condensed.links:
        a, b = index[link[0]], index[link[-1]]
        lists = [pruned.edge_labels(u, v) for u, v in zip(link, link[1:])]
        moves[a].append((b, lists))
        moves[b].append((a, lists[::-1]))
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    zi = index[z]
    explored = 0

    # A state is (terminal, prefix step function, region of terminals still
    # reachable through unvisited ones); a used link has both ends visited.
    def expand(state):
        nonlocal explored
        explored += 1
        if explored > cap:
            raise EnumerationLimitError(
                f"condensed sequence enumeration exceeded cap {cap} (f={f})"
            )
        cur, times, values, region = state
        children, base = [], 0
        for nxt, lists in moves[cur]:
            if not region >> nxt & 1:
                continue
            fn = advance((times, values), lists)
            if fn is None:
                continue
            if nxt == zi:
                base += fn[1][-1]
                continue
            sub = region_mask(nbr, nxt, region & ~(1 << nxt))
            if sub >> zi & 1:
                children.append((nxt, tuple(fn[0]), tuple(fn[1]), sub))
        return children, base

    si = index[s]
    return sum_walk_states((si, (1,), (1,), region_mask(nbr, si, ~(1 << si))), expand, {})
