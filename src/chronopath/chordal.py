"""Weighted multicoloured independent-set counting on chordal graphs.

Computes the sum, over independent sets X containing exactly one vertex of
each colour 1..k, of the product of the vertex weights of X.  This is the
engine behind the timed-feedback-vertex-set path counter; on its own it is
FPT in the number of colours.

The dynamic program runs bottom-up over a normalized clique tree: every
bag induces a clique (so an independent set meets a bag in at most one
vertex), and every bag is a leaf, has one child, or has exactly two
children with identical vertex content.  Join bags combine colour subsets
by enumerating submask splits, dividing out the doubly-counted weight of
the shared selected vertex; that division is always exact and checked so.
"""

from __future__ import annotations

from functools import cached_property
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
    """Bag of a normalized clique tree (leaf / chain / binary join)."""

    __slots__ = ("bag", "children")

    def __init__(self, bag: frozenset[int], children: list[CliqueTreeNode] | None = None):
        self.bag = bag
        self.children = [] if children is None else children


def maximum_cardinality_search(n: int, adj: dict[int, set[int]]) -> list[int]:
    """MCS visit order; its reverse is a perfect elimination ordering iff chordal."""
    weight = [0] * n
    visited = [False] * n
    order: list[int] = []
    for _ in range(n):
        best = max((v for v in range(n) if not visited[v]), key=lambda v: (weight[v], -v))
        visited[best] = True
        order.append(best)
        for w in adj[best]:
            if not visited[w]:
                weight[w] += 1
    return order


def _check_peo(n: int, adj: dict[int, set[int]], elimination: list[int]) -> None:
    pos = {v: i for i, v in enumerate(elimination)}
    for v in elimination:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        pivot = min(later, key=lambda u: pos[u])
        for u in later:
            if u != pivot and u not in adj[pivot]:
                raise NotChordalError(
                    f"vertices {u} and {pivot} witness a chordless cycle through {v}"
                )


def _maximal_cliques(n: int, adj: dict[int, set[int]], elimination: list[int]) -> list[frozenset[int]]:
    pos = {v: i for i, v in enumerate(elimination)}
    candidates = []
    for v in elimination:
        clique = frozenset({v} | {u for u in adj[v] if pos[u] > pos[v]})
        candidates.append(clique)
    candidates.sort(key=len, reverse=True)
    maximal: list[frozenset[int]] = []
    for c in candidates:
        if not any(c < m or c == m for m in maximal):
            maximal.append(c)
    return maximal


def build_clique_tree(instance: ChordalInstance) -> CliqueTreeNode:
    """Normalized clique tree of a chordal graph; raises NotChordalError otherwise.

    Maximal cliques are linked by a maximum-intersection spanning tree
    (which yields the clique-intersection property), components are capped
    by empty bags, and multi-child nodes are rewritten into binary joins
    whose two children repeat the parent bag.
    """
    n, adj = instance.n, instance.adj
    visit = maximum_cardinality_search(n, adj)
    elimination = list(reversed(visit))
    _check_peo(n, adj, elimination)
    cliques = _maximal_cliques(n, adj, elimination)
    if not cliques:
        return CliqueTreeNode(bag=frozenset())

    # Maximum-weight spanning forest on clique intersections (Prim per component).
    m = len(cliques)
    in_tree = [False] * m
    tree_children: dict[int, list[int]] = {i: [] for i in range(m)}
    roots: list[int] = []
    for start in range(m):
        if in_tree[start]:
            continue
        in_tree[start] = True
        roots.append(start)
        frontier = [start]
        while True:
            best_edge: tuple[int, int, int] | None = None  # (overlap, parent, child)
            for i in frontier:
                for j in range(m):
                    if in_tree[j]:
                        continue
                    overlap = len(cliques[i] & cliques[j])
                    if overlap == 0:
                        continue
                    cand = (overlap, i, j)
                    if best_edge is None or cand > best_edge:
                        best_edge = cand
            if best_edge is None:
                break
            _, parent, child = best_edge
            in_tree[child] = True
            tree_children[parent].append(child)
            frontier.append(child)

    def build(i: int) -> CliqueTreeNode:
        node = CliqueTreeNode(bag=cliques[i])
        for j in tree_children[i]:
            node.children.append(build(j))
        return node

    # Cap each component with an empty bag, then join the caps pairwise so
    # the final structure is one rooted tree.
    capped = [CliqueTreeNode(bag=frozenset(), children=[build(r)]) for r in roots]
    root = capped[0]
    for nxt in capped[1:]:
        root = CliqueTreeNode(bag=frozenset(), children=[root, nxt])
    return _binarize(root)


def _binarize(node: CliqueTreeNode) -> CliqueTreeNode:
    children = [_binarize(c) for c in node.children]
    if len(children) <= 1:
        return CliqueTreeNode(bag=node.bag, children=children)
    # Fold k children into a right-leaning spine of join nodes; every join
    # has two children carrying the same bag as the join itself.
    spine = CliqueTreeNode(bag=node.bag, children=[children[-1]])
    for child in reversed(children[:-1]):
        left = CliqueTreeNode(bag=node.bag, children=[child])
        spine = CliqueTreeNode(bag=node.bag, children=[left, spine])
    return spine


def _verify_clique_tree(instance: ChordalInstance, root: CliqueTreeNode) -> None:
    """Check the clique-tree invariants (used by tests)."""
    nodes: list[CliqueTreeNode] = []

    def collect(nd: CliqueTreeNode) -> None:
        nodes.append(nd)
        for c in nd.children:
            collect(c)

    collect(root)
    for nd in nodes:
        members = sorted(nd.bag)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if v not in instance.adj[u]:
                    raise AssertionError(f"bag {members} is not a clique")
        if len(nd.children) > 2:
            raise AssertionError("node with more than two children")
        if len(nd.children) == 2 and not (
            nd.bag == nd.children[0].bag == nd.children[1].bag
        ):
            raise AssertionError("binary join without identical bags")
    for v in range(instance.n):
        holding = [nd for nd in nodes if v in nd.bag]
        if instance.weight[v] > 0 and not holding:
            raise AssertionError(f"vertex {v} missing from every bag")
        # Connectivity of the subtree of bags containing v.
        seen: set[int] = set()

        def walk(nd: CliqueTreeNode, inside: bool) -> None:
            here = v in nd.bag
            if here and inside is False and seen:
                raise AssertionError(f"bags containing {v} are disconnected")
            if here:
                seen.add(id(nd))
            for c in nd.children:
                walk(c, here)

        walk(root, False)
    for u, v in instance.edges:
        if not any(u in nd.bag and v in nd.bag for nd in nodes):
            raise AssertionError(f"edge ({u},{v}) covered by no bag")


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
    full = (1 << k) - 1
    entries = 0
    bag_count = 0
    max_bag = 0

    def colour_bit(v: int) -> int:
        return 1 << (instance.colour[v] - 1)

    def solve(node: CliqueTreeNode) -> dict[tuple[int, int], int]:
        """Table mapping (colour mask, selected vertex or -1) -> weighted sum."""
        nonlocal entries, bag_count, max_bag
        bag_count += 1
        max_bag = max(max_bag, len(node.bag))
        table: dict[tuple[int, int], int] = {}
        if not node.children:
            table[(0, -1)] = 1
            for v in node.bag:
                table[(colour_bit(v), v)] = instance.weight[v]
        elif len(node.children) == 1:
            sub = solve(node.children[0])
            child_bag = node.children[0].bag
            # Selections surviving from the child: vertex still in this bag,
            # or dropped below (folded into the "no selected vertex" row).
            for (mask, sel), value in sub.items():
                key = (mask, sel if sel != -1 and sel in node.bag else -1)
                table[key] = table.get(key, 0) + value
            # Fresh vertices of this bag extend child sets that avoid the bag.
            by_mask: dict[int, int] = {}
            for (mask, sel), value in sub.items():
                if sel == -1 or sel not in node.bag:
                    by_mask[mask] = by_mask.get(mask, 0) + value
            for v in node.bag:
                if v in child_bag:
                    continue
                cb = colour_bit(v)
                for mask, value in by_mask.items():
                    if mask & cb:
                        continue
                    key = (mask | cb, v)
                    table[key] = table.get(key, 0) + instance.weight[v] * value
        else:
            left = solve(node.children[0])
            right = solve(node.children[1])
            for (m1, sel1), val1 in left.items():
                for (m2, sel2), val2 in right.items():
                    if sel1 != sel2:
                        continue
                    if sel1 == -1:
                        if m1 & m2:
                            continue
                        key = (m1 | m2, -1)
                        table[key] = table.get(key, 0) + val1 * val2
                    else:
                        cb = colour_bit(sel1)
                        if (m1 & m2) != cb:
                            continue
                        prod = val1 * val2
                        w = instance.weight[sel1]
                        if prod % w:
                            raise InvariantError("join division is not exact")
                        key = (m1 | m2, sel1)
                        table[key] = table.get(key, 0) + prod // w
        entries += len(table)
        return table

    root_table = solve(root)
    answer = sum(
        value for (mask, _sel), value in root_table.items() if mask == full
    )
    if stats is not None:
        stats["entries"] = entries
        stats["colours"] = k
        stats["bags"] = bag_count
        stats["max_bag"] = max_bag
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
