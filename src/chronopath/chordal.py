"""Weighted multicoloured independent-set counting on chordal graphs.

Computes the sum, over independent sets X containing exactly one vertex of
each colour 1..k, of the product of the vertex weights of X.  This is the
engine behind the timed-feedback-vertex-set path counter; on its own it is
FPT in the number of colours.

The dynamic program runs bottom-up over the clique tree that a perfect
elimination ordering gives directly (Blair & Peyton 1993): vertex v gets the
bag {v} plus its later neighbours, a clique, and hangs under the earliest of
them; one empty root holds the components.  A child's bag minus its own
vertex lies inside its parent's bag, so every vertex's bags form a subtree
and an independent set meets a bag in at most one vertex.  Each child table
is lifted into its parent's bag, introducing the parent's other vertices
with their weights multiplied in, and the children of one bag are joined
over colour subsets.  A vertex selected in both halves of a join had its
weight multiplied in twice, so each join divides it out once; that division
is always exact and checked so.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import InvariantError, NotChordalError


class _ChordalInstanceFields(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    colour: tuple[int, ...]
    weight: tuple[int, ...]


class ChordalInstance(_ChordalInstanceFields):
    """Static graph with a colour in 1..k and a positive weight per vertex."""

    @cached_property
    def adj(self) -> dict[int, set[int]]:
        a: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            a[u].add(v)
            a[v].add(u)
        return a


class CliqueTreeNode:
    """Bag of a clique tree: a clique of the graph and the bags hung under it."""

    __slots__ = ("bag", "children")

    def __init__(self, bag: frozenset[int]):
        self.bag = bag
        self.children: list[CliqueTreeNode] = []


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


def build_clique_tree(instance: ChordalInstance) -> CliqueTreeNode:
    """Clique tree read off a perfect elimination ordering; NotChordalError otherwise.

    The ordering is the reverse of a maximum cardinality search.  Vertex v
    gets the bag {v} plus its later neighbours and hangs under the earliest
    of them, its pivot; a vertex without later neighbours hangs under the
    empty root bag, which so holds one subtree per component.  The ordering
    is perfect iff every later neighbour of v is the pivot or adjacent to
    it.  That check runs while the tree is built, in search order, so the
    chordless cycle a NotChordalError names is the first one met there.
    """
    n, adj = instance.n, instance.adj
    root = CliqueTreeNode(bag=frozenset())
    rank: dict[int, int] = {}
    nodes: dict[int, CliqueTreeNode] = {}
    # In search order a vertex's later neighbours are the ones already seen,
    # so its pivot (the last of them seen) already has a node.
    for i, v in enumerate(maximum_cardinality_search(n, adj)):
        later = [u for u in adj[v] if u in rank]
        rank[v] = i
        nodes[v] = CliqueTreeNode(bag=frozenset((v, *later)))
        if not later:
            root.children.append(nodes[v])
            continue
        pivot = max(later, key=rank.__getitem__)
        for u in later:
            if u != pivot and u not in adj[pivot]:
                raise NotChordalError(
                    f"vertices {u} and {pivot} witness a chordless cycle through {v}"
                )
        nodes[pivot].children.append(nodes[v])
    return root


def _verify_clique_tree(instance: ChordalInstance, root: CliqueTreeNode) -> None:
    """Check the clique-tree invariants (used by tests)."""
    parent: dict[int, CliqueTreeNode] = {}
    nodes = [root]
    for nd in nodes:
        for c in nd.children:
            parent[id(c)] = nd
            nodes.append(c)
    for nd in nodes:
        members = sorted(nd.bag)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if v not in instance.adj[u]:
                    raise AssertionError(f"bag {members} is not a clique")
    for v in range(instance.n):
        holding = [nd for nd in nodes if v in nd.bag]
        if instance.weight[v] > 0 and not holding:
            raise AssertionError(f"vertex {v} missing from every bag")
        # Bags of a rooted tree are connected iff at most one of them has a
        # parent outside the set.
        tops = [nd for nd in holding if id(nd) not in parent or v not in parent[id(nd)].bag]
        if len(tops) > 1:
            raise AssertionError(f"bags containing {v} are disconnected")
    for u, v in instance.edges:
        if not any(u in nd.bag and v in nd.bag for nd in nodes):
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
    # Vertices new to this bag can be selected only by sets that avoid it.
    for v in bag - child_bag:
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
    1..k.  Zero-weight vertices cannot contribute to any product and are
    dropped up front.  If ``stats`` is given, the number of stored DP
    entries is recorded under ``"entries"``.
    """
    if any(not 1 <= c <= k for c in instance.colour):
        raise ValueError("vertex colour out of range 1..k")
    if any(w < 0 for w in instance.weight):
        raise ValueError("negative vertex weight")
    if any(w == 0 for w in instance.weight):
        keep = [v for v in range(instance.n) if instance.weight[v] > 0]
        remap = {v: i for i, v in enumerate(keep)}
        instance = ChordalInstance(
            n=len(keep),
            edges=tuple(
                (remap[u], remap[v])
                for u, v in instance.edges
                if u in remap and v in remap
            ),
            colour=tuple(instance.colour[v] for v in keep),
            weight=tuple(instance.weight[v] for v in keep),
        )

    root = build_clique_tree(instance)
    weight = instance.weight
    bit = [1 << (c - 1) for c in instance.colour]
    # Reversed breadth-first order puts every child before its parent.
    order = [root]
    for node in order:
        order.extend(node.children)
    tables: dict[int, Table] = {}
    entries = 0
    for node in reversed(order):
        table = None
        for child in node.children:
            lifted = _lift(tables.pop(id(child)), child.bag, node.bag, weight, bit)
            table = lifted if table is None else _join(table, lifted, weight, bit)
        if table is None:  # a leaf: its bag lifted over the empty set's table
            table = _lift({(0, -1): 1}, frozenset(), node.bag, weight, bit)
        tables[id(node)] = table
        entries += len(table)

    full = (1 << k) - 1
    answer = sum(value for (mask, _sel), value in tables[id(root)].items() if mask == full)
    if stats is not None:
        stats["entries"] = entries
        stats["colours"] = k
        stats["bags"] = len(order)
        stats["max_bag"] = max(len(node.bag) for node in order)
    return answer


def count_mc_is_bruteforce(instance: ChordalInstance, k: int) -> int:
    """Subset-enumeration reference for tests (exponential)."""
    from itertools import combinations

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
