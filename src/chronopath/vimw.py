"""Vertex-interval-membership sequence and the bag-state counting DP.

The bag F_t holds every vertex with an incident time-edge both at some
time <= t and at some time >= t; the width of a temporal graph is the
largest bag.  Narrow bags make exact counting cheap even for enormous
lifetimes: the DP below runs in time linear in T at fixed width.

State (v, X) of bag F_t carries the number of temporal (s,v)-paths that
arrive by time t and meet F_t \\ {v} exactly in X.  Moving from t-1 to t,
previous states are carried over (vertices that fell out of the bag have
no future edges and are dropped from X), and paths arriving at exactly t
are added by gluing an initial segment that reached some u by t-1 to a
path inside the snapshot (V, E_t) starting at u.  The trivial segment
sitting at s is always available as an initial segment, which is how
paths departing s late are generated; it is injected rather than stored,
so it is never double counted.

Earlier snapshots keep full masks, as a bag vertex may be entered again at
a later label.  In the last snapshot only arrivals at z count, and the ways
to finish a simple path there depend only on its end vertex and the region
of unvisited vertices it still reaches: they are counted once per (vertex,
region) and multiplied into every carried state.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .graph import TemporalGraph, region_mask, sum_walk_states


class _VIMSequenceFields(NamedTuple):
    bags: tuple[frozenset[int], ...]


class VIMSequence(_VIMSequenceFields):
    """Bags F_1..F_T and their maximum size."""

    @cached_property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0)

    def histogram(self) -> dict[int, int]:
        """Bag size -> number of times steps with that size."""
        return dict(sorted(Counter(len(b) for b in self.bags).items()))


def _edge_window(g: TemporalGraph) -> tuple[dict[int, int], dict[int, int]]:
    """First and last label of every vertex with a time-edge, read off the snapshots."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for t, snap in g.snapshots.items():
        for x in snap:
            first.setdefault(x, t)
            last[x] = t
    return first, last


def _bags(g: TemporalGraph, last: dict[int, int], horizon: int):
    """(t, F_t) for t = 1..horizon: F_(t-1) less the vertices whose last label is
    before t, plus every vertex with a time-edge at t."""
    bag: set[int] = set()
    for t in range(1, horizon + 1):
        bag = {v for v in bag if last[v] >= t}
        bag.update(g.snapshots.get(t, ()))
        yield t, bag


def vim_sequence(g: TemporalGraph) -> VIMSequence:
    """Exact vertex interval membership sequence of g."""
    _, last = _edge_window(g)
    return VIMSequence(tuple(frozenset(bag) for _, bag in _bags(g, last, g.lifetime)))


def vimw_width(g: TemporalGraph) -> int:
    """The largest bag, by a sweep over first and last labels that builds no bag."""
    first, last = _edge_window(g)
    events = Counter(first.values())
    events.subtract(t + 1 for t in last.values())
    return max(accumulate(events[t] for t in sorted(events)), default=0)


def _finish_at_z(snap: dict[int, tuple[int, ...]], pos, starts, z: int) -> int:
    """Paths from ``starts``, ((u, X), count) pairs, finished at z inside ``snap``.

    u goes on by simple snapshot paths to z that avoid X, memoised per (u, region).
    """
    nbr = [0] * len(pos)
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
    if z not in first:
        return 0
    # Trailing snapshots where z has no edge cannot host the final arrival.
    horizon = last[z]

    # States: (vertex, mask over the current bag's local indices) -> count.
    states: dict[tuple[int, int], int] = {}
    prev_pos: dict[int, int] = {}

    for t, bag in _bags(g, last, horizon):
        adj = g.snapshots.get(t, {})
        pos = {v: i for i, v in enumerate(sorted(bag))}

        # Carry states over, remapping masks and dropping departed vertices.
        carried: dict[tuple[int, int], int] = {}
        keep_bits = [(1 << prev_pos[v], 1 << pos[v]) for v in prev_pos if v in pos]
        for (v, mask), count in states.items():
            if v not in pos:
                continue
            new_mask = 0
            for old_bit, new_bit in keep_bits:
                if mask & old_bit:
                    new_mask |= new_bit
            key = (v, new_mask)
            carried[key] = carried.get(key, 0) + count

        # Initial segments: carried states, plus the trivial segment at s.
        starts = [*carried.items(), ((s, 0), 1)] if s in pos else list(carried.items())
        if t == horizon:
            break
        if adj:
            for (u, y_mask), count in starts:
                if u not in adj:
                    continue
                # Stream all simple snapshot paths out of u with an explicit
                # stack; a bag vertex may be entered again at a later label,
                # so every arrival keeps its full mask.
                frames = [(1 << pos[u], iter(adj[u]))]
                while frames:
                    mask, neighbours = frames[-1]
                    for w in neighbours:
                        bit = 1 << pos[w]
                        if mask & bit or y_mask & bit:
                            continue
                        key = (w, y_mask | mask)
                        carried[key] = carried.get(key, 0) + count
                        frames.append((mask | bit, iter(adj[w])))
                        break
                    else:
                        frames.pop()
        states = carried
        prev_pos = pos
    return _finish_at_z(g.snapshots[horizon], pos, starts, z)
