"""Vertex-interval-membership bag sizes and the bag-state counting DP.

The bag F_t holds every vertex with an incident time-edge both at some
time <= t and at some time >= t; the width of a temporal graph is the
largest bag.  The sizes |F_t| come from one sweep over first and last
labels, which builds no bag.  Narrow bags make exact counting cheap even
for enormous lifetimes: the DP below runs in time linear in T at fixed
width.

State (w, X) of bag F_t carries the number of temporal (s,w)-paths that
arrive by time t and meet F_t \\ {w} exactly in X; the trivial path at s is
the state (s, {}) from s's first label on.  Moving from t-1 to t, states
are carried over (vertices that fell out of the bag have no future edges
and are dropped from X).  Inside the snapshot (V, E_t) a path's future
depends only on its state, so one sweep in order of growing |X| extends
each state once, by its merged count, to every neighbour outside X; an
arrival is a state one level up.  X keeps every visited bag vertex, as one
may be entered again at a later label.  A bag has at most |F_t|*2^|F_t|
states, so the work is at most the sum over t of |F_t|*2^|F_t| times the
largest degree in snapshot t.

In the last snapshot only arrivals at z count, and the ways to finish a
simple path there depend only on its end vertex and the region of
unvisited vertices it still reaches: they are counted once per (vertex,
region) and multiplied into every carried state.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .graph import _LABEL, TemporalGraph, region_mask, sum_walk_states


def _edge_window(g: TemporalGraph) -> tuple[dict[int, int], dict[int, int]]:
    """First and last label of every vertex with a time-edge, read off the time-edges."""
    by_label = sorted(g.time_edges, key=_LABEL)
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for u, v, t in by_label:
        last[u] = last[v] = t
    for u, v, t in reversed(by_label):
        first[u] = first[v] = t
    return first, last


def vim_sequence(g: TemporalGraph) -> list[int]:
    """Bag sizes |F_1|..|F_T|: v is in F_t for every t from its first label to its last."""
    first, last = _edge_window(g)
    events = Counter(first.values())
    events.subtract(t + 1 for t in last.values())
    return list(accumulate(events[t] for t in range(1, g.lifetime + 1)))


def vimw_width(g: TemporalGraph) -> int:
    """The largest bag."""
    return max(vim_sequence(g), default=0)


def _finish_at_z(snap: dict[int, tuple[int, ...]], pos, starts, z: int) -> int:
    """Paths from ``starts``, ((u, X), count) pairs, finished at z inside ``snap``.

    u goes on by simple snapshot paths to z that avoid X, memoised per (u, region).
    """
    nbr = [0] * (max(pos.values()) + 1)
    for u, nbrs in snap.items():
        for v in nbrs:
            nbr[pos[u]] |= 1 << pos[v]
    zi = pos[z]

    def enter(x: int, allowed: int):
        region = 0 if x == zi else region_mask(nbr, x, allowed)
        return (x, region) if x == zi or region >> zi & 1 else None

    def expand(state):
        w, region = state
        children = []
        rest = nbr[w] & region
        while rest:
            low = rest & -rest
            rest ^= low
            child = enter(low.bit_length() - 1, region & ~low)
            if child:
                children.append(child)
        return children, 0

    memo = {(zi, 0): 1}
    total = 0
    for (u, y_mask), count in starts:
        root = enter(pos[u], ~(y_mask | 1 << pos[u]))
        if root:
            total += count * sum_walk_states(root, expand, memo)
    return total


def count_vimw(g: TemporalGraph, s: int, z: int) -> int:
    """Number of temporal (s,z)-paths via the bag-state DP."""
    if s == z:
        return 1
    first, last = _edge_window(g)
    if s not in first or z not in first:
        return 0
    # Trailing snapshots where z has no edge cannot host the final arrival.
    horizon = last[z]

    # Each bag vertex holds one bit of the masks; a vertex that leaves the bag
    # frees its bit for the next one to enter.
    pos: dict[int, int] = {}
    free: list[int] = []
    carried: dict[tuple[int, int], int] = {}
    start = first[s]
    for t in range(1, horizon + 1):
        adj = g.snapshots.get(t, {})
        gone = [v for v in pos if last[v] < t]
        if gone:
            # Departed vertices have no future edges: drop states ending there
            # and clear their bits.
            keep = -1
            for v in gone:
                free.append(pos.pop(v))
                keep ^= 1 << free[-1]
            states, carried = carried, {}
            for (v, mask), count in states.items():
                if v in pos:
                    carried[v, mask & keep] = carried.get((v, mask & keep), 0) + count
        for v in adj:
            if v not in pos:
                pos[v] = free.pop() if free else len(pos)
        if t == start:
            carried[s, 0] = 1
        if t == horizon:
            break
        # Extend each state once, by its merged count: arrivals are one level
        # up, so a level is complete before its turn.
        levels: list[list[tuple[int, int]]] = [[] for _ in pos]
        for key in carried:
            if key[0] in adj:
                levels[key[1].bit_count()].append(key)
        for level in levels:
            for w, x_mask in level:
                count = carried[w, x_mask]
                seen = x_mask | 1 << pos[w]
                for v in adj[w]:
                    if not seen >> pos[v] & 1:
                        arrival = (v, seen)
                        if arrival in carried:
                            carried[arrival] += count
                        else:
                            carried[arrival] = count
                            levels[seen.bit_count()].append(arrival)
    return _finish_at_z(g.snapshots[horizon], pos, carried.items(), z)
