import random
import subprocess
import sys

import pytest

from chronopath.chordal import (
    ChordalInstance,
    _verify_clique_tree,
    build_clique_tree,
    count_mc_is_bruteforce,
    count_weighted_mc_is,
    maximum_cardinality_search,
)
from chronopath.errors import NotChordalError


def random_interval_instance(rng: random.Random, n: int, k: int) -> ChordalInstance:
    """Interval graphs are chordal; separated intervals give disconnected ones."""
    spans = []
    for _ in range(n):
        a = rng.randint(0, 24)
        spans.append((a, a + rng.randint(0, 6)))
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    )
    return ChordalInstance(
        n=n,
        edges=edges,
        colour=tuple(rng.randint(1, k) for _ in range(n)),
        weight=tuple(rng.randint(0, 9) for _ in range(n)),
    )


def random_ktree_instance(rng: random.Random, n: int, k: int) -> ChordalInstance:
    base = rng.randint(1, 3)
    edges = set()
    cliques = [tuple(range(min(base + 1, n)))]
    for u in range(min(base + 1, n)):
        for v in range(u + 1, min(base + 1, n)):
            edges.add((u, v))
    for v in range(base + 1, n):
        host = list(rng.choice(cliques))
        rng.shuffle(host)
        chosen = host[:base]
        for u in chosen:
            edges.add((min(u, v), max(u, v)))
        cliques.append(tuple(sorted(chosen + [v])))
    return ChordalInstance(
        n=n,
        edges=tuple(sorted(edges)),
        colour=tuple(rng.randint(1, k) for _ in range(n)),
        weight=tuple(rng.randint(0, 9) for _ in range(n)),
    )


def test_examples():
    pair = ChordalInstance(n=2, edges=(), colour=(1, 2), weight=(2, 3))
    assert count_weighted_mc_is(pair, 2) == 6
    edge = ChordalInstance(n=2, edges=((0, 1),), colour=(1, 2), weight=(2, 3))
    assert count_weighted_mc_is(edge, 2) == 0
    path = ChordalInstance(n=3, edges=((0, 1), (1, 2)), colour=(1, 2, 2), weight=(2, 3, 5))
    assert count_weighted_mc_is(path, 2) == 10


def test_triangle_single_bag():
    tri = ChordalInstance(n=3, edges=((0, 1), (0, 2), (1, 2)), colour=(1, 1, 1), weight=(1, 1, 1))
    _order, bag, _pivot = build_clique_tree(tri)
    assert frozenset({0, 1, 2}) in bag
    assert count_weighted_mc_is(tri, 1) == 3


def test_four_cycle_rejected():
    square = ChordalInstance(
        n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)), colour=(1, 1, 1, 1), weight=(1, 1, 1, 1)
    )
    with pytest.raises(NotChordalError):
        build_clique_tree(square)
    with pytest.raises(NotChordalError):
        count_weighted_mc_is(square, 1)


def test_against_bruteforce_random():
    rng = random.Random(0xBEEF)
    for trial in range(150):
        n = rng.randint(1, 11)
        k = rng.randint(1, 4)
        if trial % 2:
            inst = random_interval_instance(rng, n, k)
        else:
            inst = random_ktree_instance(rng, n, k)
        assert count_weighted_mc_is(inst, k) == count_mc_is_bruteforce(inst, k)


def disjoint_union(a: ChordalInstance, b: ChordalInstance) -> ChordalInstance:
    return ChordalInstance(
        n=a.n + b.n,
        edges=a.edges + tuple((u + a.n, v + a.n) for u, v in b.edges),
        colour=a.colour + b.colour,
        weight=a.weight + b.weight,
    )


def test_clique_tree_invariants():
    rng = random.Random(7)
    for _ in range(40):
        inst = random_interval_instance(rng, rng.randint(1, 10), 2)
        _verify_clique_tree(inst, *build_clique_tree(inst))
    for _ in range(40):
        inst = random_ktree_instance(rng, rng.randint(1, 12), 2)
        _verify_clique_tree(inst, *build_clique_tree(inst))
    for _ in range(20):
        inst = disjoint_union(
            random_interval_instance(rng, rng.randint(1, 8), 2),
            random_interval_instance(rng, rng.randint(1, 8), 2),
        )
        order, bag, pivot = build_clique_tree(inst)
        assert pivot.count(None) >= 2  # one subtree under the root per component
        _verify_clique_tree(inst, order, bag, pivot)
        assert count_weighted_mc_is(inst, 2) == count_mc_is_bruteforce(inst, 2)


def test_long_path_no_recursion_limit():
    """A 1,500-vertex path is an elimination tree 1,500 bags deep."""
    n = 1500
    edges = tuple((i, i + 1) for i in range(n - 1))
    single = ChordalInstance(n=n, edges=edges, colour=(1,) * n, weight=(1,) * n)
    assert count_weighted_mc_is(single, 1) == n
    alternating = ChordalInstance(
        n=n, edges=edges, colour=tuple(1 + i % 2 for i in range(n)), weight=(1,) * n
    )
    # 750 x 750 colour-1/colour-2 pairs, less the 1,499 adjacent ones.
    assert count_weighted_mc_is(alternating, 2) == 750**2 - 1499


def test_search_order_matches_the_max_rule():
    """The lazy heap visits in the order of a max over (weight, -vertex)."""

    def max_rule(n, adj):
        weight, visited, order = [0] * n, [False] * n, []
        for _ in range(n):
            best = max((v for v in range(n) if not visited[v]), key=lambda v: (weight[v], -v))
            visited[best] = True
            order.append(best)
            for w in adj[best]:
                if not visited[w]:
                    weight[w] += 1
        return order

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 30)
        adj = {v: set() for v in range(n)}
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        assert maximum_cardinality_search(n, adj) == max_rule(n, adj)


def test_long_path_search_is_not_quadratic():
    """A 20,000-vertex path counts in well under the quadratic search's ~50 s."""
    script = (
        "from chronopath.chordal import ChordalInstance, count_weighted_mc_is\n"
        "n = 20000\n"
        "edges = tuple((i, i + 1) for i in range(n - 1))\n"
        "inst = ChordalInstance(n=n, edges=edges, colour=(1,) * n, weight=(1,) * n)\n"
        "print(count_weighted_mc_is(inst, 1))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"20000\n"


def test_entry_bound():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_interval_instance(rng, rng.randint(2, 12), 3)
        stats: dict = {}
        count_weighted_mc_is(inst, 3, stats=stats)
        assert stats["entries"] <= stats["bags"] * (2**3) * (stats["max_bag"] + 1)


def test_empty_graph_and_zero_weights():
    empty = ChordalInstance(n=0, edges=(), colour=(), weight=())
    assert count_weighted_mc_is(empty, 1) == 0
    zeroed = ChordalInstance(n=2, edges=(), colour=(1, 1), weight=(0, 4))
    assert count_weighted_mc_is(zeroed, 1) == 4


def test_zero_weight_vertex_on_a_chordless_cycle():
    """A zero-weight vertex counts as absent, even where it closes a 4-cycle."""
    square = ChordalInstance(
        n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)), colour=(1, 1, 2, 2), weight=(0, 3, 5, 7)
    )
    assert count_weighted_mc_is(square, 2) == count_mc_is_bruteforce(square, 2) == 21
    isolated = ChordalInstance(n=4, edges=((1, 2),), colour=(1, 1, 2, 2), weight=(0, 3, 5, 7))
    assert count_weighted_mc_is(isolated, 2) == count_mc_is_bruteforce(isolated, 2) == 21
