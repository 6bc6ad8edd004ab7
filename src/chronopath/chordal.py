"""Weighted multicoloured independent-set counting on chordal graphs.

Computes the sum, over independent sets X containing exactly one vertex of
each colour 1..k, of the product of the vertex weights of X.  This is the
engine behind the timed-feedback-vertex-set path counter; on its own it is
FPT in the number of colours.

The dynamic program runs over the clique tree that a perfect elimination
ordering gives directly (Blair & Peyton 1993), held in lists by vertex: v's
bag is {v} plus its later neighbours, a clique, and v hangs under its pivot,
the earliest of them, or under the one empty root bag.  A child's bag minus
its own vertex lies inside its pivot's bag, so every vertex's bags form a
subtree and an independent set meets a bag in at most one vertex.  The
fold runs in reverse search order, which reaches every bag after the bags
under it: each table is lifted into its parent's bag, introducing the
other vertices there with their weights multiplied in, and joined with its
siblings' over colour subsets.  A vertex selected in both halves of a join
had its weight multiplied in twice, so each join divides it out once; that
division is always exact and checked so.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from typing import NamedTuple

from .errors import InvariantError, NotChordalError


class _ChordalInstanceFields(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    colour: tuple[int, ...]
    weight: tuple[int, ...]


class ChordalInstance(_ChordalInstanceFields):
    """Static graph with a colour in 1..k and a non-negative weight per vertex."""

    @cached_property
    def adj(self) -> dict[int, set[int]]:
        a: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            a[u].add(v)
            a[v].add(u)
        return a


def maximum_cardinality_search(n: int, adj: dict[int, set[int]]) -> list[int]:
    """MCS visit order; its reverse is a perfect elimination ordering iff chordal."""
    weight = [0] * n
    visited = [False] * n
    order: list[int] = []
    # Highest weight first, then the smallest vertex; stale entries are skipped.
    heap = [(0, v) for v in range(n)]
    while heap:
        negative, best = heappop(heap)
        if -negative != weight[best]:
            continue
        visited[best] = True
        order.append(best)
        for w in adj[best]:
            if not visited[w]:
                weight[w] += 1
                heappush(heap, (-weight[w], w))
    return order


def build_clique_tree(
    instance: ChordalInstance,
) -> tuple[list[int], list[frozenset[int]], list[int | None]]:
    """Clique tree ``(order, bag, pivot)``; NotChordalError if not chordal.

    ``order`` is a maximum cardinality search, the reverse of the
    elimination ordering.  ``bag[v]`` is {v} plus the neighbours met before
    v, and ``pivot[v]`` is the last of them met, or None under the root.
    The ordering is perfect iff every later neighbour of v is the pivot or
    adjacent to it.  That check runs in search order, so the chordless
    cycle a NotChordalError names is the first one met there.
    """
    n, adj = instance.n, instance.adj
    order = maximum_cardinality_search(n, adj)
    rank = [-1] * n
    bag: list[frozenset[int]] = [frozenset()] * n
    pivot: list[int | None] = [None] * n
    for i, v in enumerate(order):
        later = [u for u in adj[v] if rank[u] >= 0]
        rank[v] = i
        bag[v] = frozenset((v, *later))
        p = pivot[v] = max(later, key=rank.__getitem__, default=None)
        for u in later:
            if u != p and u not in adj[p]:
                raise NotChordalError(
                    f"vertices {u} and {p} witness a chordless cycle through {v}"
                )
    return order, bag, pivot


def _verify_clique_tree(instance: ChordalInstance, order: list, bag: list, pivot: list) -> None:
    """Check the clique-tree invariants (used by tests)."""
    rank = {v: i for i, v in enumerate(order)}
    for v in range(instance.n):
        members, p = sorted(bag[v]), pivot[v]
        if v not in bag[v] or p is not None and rank[p] >= rank[v]:
            raise AssertionError(f"bag {members} or pivot {p} of {v} misplaced")
        if any(w not in instance.adj[u] for i, u in enumerate(members) for w in members[i + 1 :]):
            raise AssertionError(f"bag {members} is not a clique")
        # Bags of a rooted tree are connected iff at most one of them has a
        # parent outside the set; the root's bag is empty.
        tops = [u for u in order if v in bag[u] and (pivot[u] is None or v not in bag[pivot[u]])]
        if len(tops) > 1:
            raise AssertionError(f"bags containing {v} are disconnected")
    for u, v in instance.edges:
        if not any(u in b and v in b for b in bag):
            raise AssertionError(f"edge ({u},{v}) covered by no bag")


# DP table: (colour mask, selected bag vertex or -1) -> weighted sum.
Table = dict[tuple[int, int], int]


def _lift(
    table: Table,
    child_bag: frozenset[int],
    bag: frozenset[int],
    weight: tuple[int, ...],
    bit: list[int],
) -> Table:
    """Carry a child's table into its parent's bag (chain step)."""
    out: Table = {}
    # Sets selecting no vertex of the parent bag, by colour mask; a selection
    # dropped below the parent folds into these.
    free: dict[int, int] = {}
    for (mask, sel), value in table.items():
        if sel != -1 and sel in bag:
            out[(mask, sel)] = value
        else:
            free[mask] = free.get(mask, 0) + value
    for mask, value in free.items():
        out[(mask, -1)] = value
    # Vertices new to this bag can be selected only by sets that avoid it; a
    # zero-weight vertex is never selected.
    for v in bag - child_bag:
        if not weight[v]:
            continue
        cb = bit[v]
        for mask, value in free.items():
            if not mask & cb:
                out[(mask | cb, v)] = weight[v] * value
    return out


def _join(left: Table, right: Table, weight: tuple[int, ...], bit: list[int]) -> Table:
    """Combine two tables over the same bag, dividing out a shared selection."""
    by_sel: dict[int, list[tuple[int, int]]] = {}
    for (mask, sel), value in right.items():
        by_sel.setdefault(sel, []).append((mask, value))
    out: Table = {}
    for (m1, sel), v1 in left.items():
        shared = 0 if sel == -1 else bit[sel]
        for m2, v2 in by_sel.get(sel, ()):
            if m1 & m2 != shared:
                continue
            prod = v1 * v2
            if sel != -1:
                if prod % weight[sel]:
                    raise InvariantError("join division is not exact")
                prod //= weight[sel]
            key = (m1 | m2, sel)
            out[key] = out.get(key, 0) + prod
    return out


def count_weighted_mc_is(
    instance: ChordalInstance, k: int, stats: dict | None = None
) -> int:
    """Sum of weight products over multicoloured independent sets.

    A multicoloured independent set picks exactly one vertex of each colour
    1..k.  Zero-weight vertices cannot contribute to any product, so their
    edges are dropped up front: each is an isolated leaf that no lift
    selects.  If ``stats`` is given, the number of stored DP entries is
    recorded under ``"entries"``.
    """
    if any(not 1 <= c <= k for c in instance.colour):
        raise ValueError("vertex colour out of range 1..k")
    weight = instance.weight
    if any(w < 0 for w in weight):
        raise ValueError("negative vertex weight")
    if 0 in weight:
        instance = instance._replace(
            edges=tuple((u, v) for u, v in instance.edges if weight[u] and weight[v])
        )

    order, bag, pivot = build_clique_tree(instance)
    bit = [1 << (c - 1) for c in instance.colour]
    root: frozenset[int] = frozenset()
    # The tables lifted into a bag so far, joined, by the bag's vertex (None:
    # the root); a leaf has none and lifts the empty set's table instead.
    tables: dict[int | None, Table] = {}
    entries = 0
    for v in reversed(order):
        table = tables.pop(v) if v in tables else _lift({(0, -1): 1}, root, bag[v], weight, bit)
        entries += len(table)
        p = pivot[v]
        lifted = _lift(table, bag[v], root if p is None else bag[p], weight, bit)
        tables[p] = _join(tables[p], lifted, weight, bit) if p in tables else lifted
    table = tables.get(None, {(0, -1): 1})
    entries += len(table)

    full = (1 << k) - 1
    answer = sum(value for (mask, _sel), value in table.items() if mask == full)
    if stats is not None:
        stats["entries"] = entries
        stats["colours"] = k
        stats["bags"] = len(order) + 1
        stats["max_bag"] = max(map(len, bag), default=0)
    return answer


def count_mc_is_bruteforce(instance: ChordalInstance, k: int) -> int:
    """Subset-enumeration reference for tests (exponential)."""
    total = 0
    for subset in combinations(range(instance.n), k):
        if sorted(instance.colour[v] for v in subset) != list(range(1, k + 1)):
            continue
        if any(v in instance.adj[u] for i, u in enumerate(subset) for v in subset[i + 1 :]):
            continue
        prod = 1
        for v in subset:
            prod *= instance.weight[v]
        total += prod
    return total
