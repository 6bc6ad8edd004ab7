from itertools import combinations

import pytest

from chronopath import tfvs
from chronopath.errors import BudgetExceededError
from chronopath.forest import count_forest, two_core
from chronopath.generate import random_forest_graph
from chronopath.graph import StaticGraph, TemporalGraph, underlying_graph
from chronopath.oracle import count_paths_bf
from chronopath.tfvs import (
    _sanitize_tfvs,
    _shortest_cycle_edges,
    compute_timed_fvs,
    count_tfvs,
    delete_appearances,
    is_timed_fvs,
)

from conftest import I1, I5, make_graph, random_instance


def all_appearances(g):
    out = set()
    for u, v, t in g.time_edges:
        out.add((u, t))
        out.add((v, t))
    return sorted(out)


def minimum_size_bruteforce(g, limit=3):
    for size in range(limit + 1):
        for subset in combinations(all_appearances(g), size):
            if is_timed_fvs(g, frozenset(subset)):
                return size
    return None


def _reference_shortest_cycle_edges(static: StaticGraph):
    """The plain cycle scan: one BFS from every static edge of the whole graph."""
    best = None
    for u0, v0 in static.sorted_edges:
        # Shortest u0..v0 path avoiding the edge itself closes a shortest
        # cycle through that edge.
        parent = {u0: u0}
        frontier = [u0]
        found = False
        while frontier and not found:
            nxt = []
            for a in frontier:
                for b in static.adj[a]:
                    if (min(a, b), max(a, b)) == (u0, v0):
                        continue
                    if b in parent:
                        continue
                    parent[b] = a
                    if b == v0:
                        found = True
                        break
                    nxt.append(b)
                if found:
                    break
            frontier = nxt
        if not found:
            continue
        path = [v0]
        while path[-1] != u0:
            path.append(parent[path[-1]])
        cycle = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
        cycle.append((u0, v0))
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def _reference_timed_fvs(g, budget=None):
    """The plain branching search: graphs rebuilt and the cycle rescanned at every node."""

    def search(x, remaining):
        residual = delete_appearances(g, frozenset(x))
        cycle = _reference_shortest_cycle_edges(underlying_graph(residual))
        if cycle is None:
            return frozenset(x)
        if remaining == 0:
            return None
        cycle_edges = set(cycle)
        candidates = sorted(
            {
                (w, t)
                for u, v, t in residual.time_edges
                if (u, v) in cycle_edges
                for w in (u, v)
            }
        )
        for a in candidates:
            x.add(a)
            result = search(x, remaining - 1)
            x.discard(a)
            if result is not None:
                return result
        return None

    depth = 0
    while True:
        if budget is not None and depth > budget:
            raise BudgetExceededError(
                f"no timed feedback vertex set of size <= {budget}"
            )
        result = search(set(), depth)
        if result is not None:
            return result
        depth += 1


def _outcome(search, g, budget):
    try:
        return search(g, budget=budget)
    except BudgetExceededError as exc:
        return ("exceeded", str(exc))


def test_search_matches_reference(rng):
    """Same set, or the same budget error, as the plain search; same shortest cycle."""
    kinds = set()
    for i in range(320):
        g = random_instance(rng, n_hi=9, t_hi=7, m_hi=20)
        budget = i % 5
        want = _outcome(_reference_timed_fvs, g, budget)
        assert _outcome(compute_timed_fvs, g, budget) == want, (g.time_edges, budget)
        kinds.add(len(want) if isinstance(want, frozenset) else "exceeded")
        static = underlying_graph(g)
        assert _shortest_cycle_edges(two_core(static.sorted_edges)) == _reference_shortest_cycle_edges(static)
    assert {0, 1, 2, 3, "exceeded"} <= kinds


def test_compute_examples():
    assert compute_timed_fvs(I1) == frozenset()
    tri = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert len(compute_timed_fvs(tri)) == 1
    two = make_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    assert len(compute_timed_fvs(two)) == 2


def test_compute_is_minimum(rng):
    for _ in range(60):
        g = random_instance(rng, n_hi=6, m_hi=10)
        want = minimum_size_bruteforce(g)
        if want is None:
            continue
        x = compute_timed_fvs(g)
        assert is_timed_fvs(g, x)
        assert len(x) == want


def test_budget():
    tri = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(BudgetExceededError):
        compute_timed_fvs(tri, budget=0)
    assert len(compute_timed_fvs(tri, budget=1)) == 1


def test_count_examples():
    assert count_tfvs(I5, 0, 2) == 2
    assert count_tfvs(I1, 0, 2) == 1
    assert count_tfvs(I1, 0, 0) == 1
    assert count_tfvs(make_graph(3, []), 0, 2) == 0


def test_forest_instances_degenerate(rng):
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_forest_graph(n=n, m=rng.randint(n - 1, 3 * (n - 1)), t_max=5, seed=rng.randrange(2**32))
        s, z = rng.sample(range(g.n), 2)
        assert compute_timed_fvs(g) == frozenset()
        assert count_tfvs(g, s, z) == count_forest(g, s, z)


def test_against_oracle(rng):
    ran_sizes = set()
    terminal_in_set = False
    for _ in range(260):
        g = random_instance(rng, n_hi=9, t_hi=8, m_hi=20)
        try:
            x = compute_timed_fvs(g, budget=3)
        except BudgetExceededError:
            continue
        ran_sizes.add(len(x))
        s, z = rng.sample(range(g.n), 2)
        terminal_in_set |= any(v in (s, z) for v, _ in x)
        assert count_tfvs(g, s, z) == count_paths_bf(g, s, z), (g.time_edges, s, z)
    assert {1, 2, 3} <= ran_sizes
    # Some minimum set held an appearance of s or z, which the brackets must share.
    assert terminal_in_set


def test_terminal_appearances_in_the_set():
    """An appearance of s or z in the set sits next to that terminal's bracket.

    On this 4-cycle, 0 reaches 2 over 0-1-2 (labels 1, 2) and 0-3-2 (3, 4),
    and 2 reaches 0 not at all.  Each set below is one appearance of 0 or 2,
    so each count needs a terminal in two positions of some order.
    """
    g = TemporalGraph(4, ((0, 1, 1), (0, 3, 3), (1, 2, 2), (2, 3, 4)), 4)
    for x in ({(0, 1)}, {(0, 3)}, {(2, 4)}, {(2, 2)}):
        assert count_tfvs(g, 0, 2, tfvs=frozenset(x)) == 2, x
        assert count_tfvs(g, 2, 0, tfvs=frozenset(x)) == 0, x


def test_user_supplied_set(rng):
    tri = make_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    valid = frozenset({(0, 3)})
    assert is_timed_fvs(tri, valid)
    assert count_tfvs(tri, 0, 2, tfvs=valid) == 2
    bigger = frozenset({(0, 3), (1, 1)})
    assert is_timed_fvs(tri, bigger)
    assert count_tfvs(tri, 0, 2, tfvs=bigger) == 2
    with pytest.raises(ValueError):
        count_tfvs(tri, 0, 2, tfvs=frozenset())
    # Any valid set counts correctly, also a non-minimum one: a minimum set
    # plus one or two arbitrary appearances.  (Every instance has an edge,
    # hence at least two appearances.)
    checked = 0
    while checked < 300:
        g = random_instance(rng, n_hi=9, t_hi=8, m_hi=20)
        try:
            x = compute_timed_fvs(g, budget=3)
        except BudgetExceededError:
            continue
        extra = frozenset(rng.sample(all_appearances(g), rng.randint(1, 2)))
        s, z = rng.sample(range(g.n), 2)
        want = count_paths_bf(g, s, z)
        for supplied in (x, x | extra):
            assert count_tfvs(g, s, z, tfvs=supplied) == want, (g.time_edges, s, z, supplied)
        checked += 1


def test_sanitize_returns_a_minimal_set(rng):
    """A valid set shrinks to a timed FVS from which no appearance can be dropped."""
    for _ in range(80):
        g = random_instance(rng, n_hi=8, t_hi=6, m_hi=16)
        appearances = all_appearances(g)
        for x in (frozenset(appearances), frozenset(rng.sample(appearances, len(appearances) // 2))):
            kept = _sanitize_tfvs(g, x)
            if not is_timed_fvs(g, x):
                assert kept == x
                continue
            assert kept <= x and is_timed_fvs(g, kept)
            assert not any(is_timed_fvs(g, kept - {a}) for a in kept), (g.time_edges, x, kept)


def test_orders_reach_the_check_time_sorted(rng, monkeypatch):
    """count_tfvs permutes only equal times: every order it checks has non-decreasing times."""
    check = tfvs._order_admissible
    distinct_times = []

    def sorted_only(order):
        times = [t for _, t, _ in order]
        assert times == sorted(times), order
        distinct_times.append(len(set(times[1:-1])))
        return check(order)

    monkeypatch.setattr(tfvs, "_order_admissible", sorted_only)
    for _ in range(60):
        g = random_instance(rng, n_hi=8, t_hi=6, m_hi=16)
        try:
            x = compute_timed_fvs(g, budget=3)
        except BudgetExceededError:
            continue
        x |= frozenset(rng.sample(all_appearances(g), 2))
        s, z = rng.sample(range(g.n), 2)
        assert count_tfvs(g, s, z, tfvs=x) == count_paths_bf(g, s, z), (g.time_edges, s, z, x)
    # Orders with several distinct middle times were checked, not only ties.
    assert max(distinct_times) >= 3


def test_delete_appearances():
    tri = make_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    g = delete_appearances(tri, frozenset({(0, 1)}))
    assert g.time_edges == ((0, 2, 3), (1, 2, 2))
