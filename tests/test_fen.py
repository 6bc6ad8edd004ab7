from chronopath.fen import condense, count_fen, feedback_edge_set, prune_degree_one
from chronopath.forest import count_forest
from chronopath.generate import random_forest_graph
from chronopath.graph import underlying_graph
from chronopath.oracle import count_paths_bf

from conftest import I1, I5, make_graph, random_instance, theta_graph


def test_prune_examples():
    star = make_graph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 2)])
    pruned = prune_degree_one(star, 0, 1)
    assert pruned.time_edges == ((0, 1, 1),)
    assert prune_degree_one(I1, 0, 2).time_edges == I1.time_edges


def test_prune_preserves_counts(rng):
    for _ in range(60):
        g = random_instance(rng, n_hi=8, m_hi=14)
        s, z = rng.sample(range(g.n), 2)
        pruned = prune_degree_one(g, s, z)
        assert count_paths_bf(pruned, s, z) == count_paths_bf(g, s, z)


def test_feedback_edge_set_examples():
    assert feedback_edge_set(underlying_graph(I1)) == frozenset()
    cycle = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert len(feedback_edge_set(underlying_graph(cycle))) == 1
    theta = theta_graph([1, 2, 2], lambda i, j: 1)
    static = underlying_graph(theta)
    assert len(feedback_edge_set(static)) == len(static.sorted_edges) - static.n + 1


def test_condense_link_budget(rng):
    # |links| stays linear in the feedback edge number after pruning.
    for _ in range(60):
        g = random_instance(rng, n_hi=9, m_hi=16)
        s, z = rng.sample(range(g.n), 2)
        pruned = prune_degree_one(g, s, z)
        f = len(feedback_edge_set(underlying_graph(pruned)))
        links = len(condense(pruned, s, z).links)
        assert links <= 4 * f + 4


def test_count_examples():
    assert count_fen(I5, 0, 2) == 2
    theta = theta_graph([1, 2, 2], lambda i, j: 1)
    assert count_fen(theta, 0, 1) == 3
    assert count_fen(I1, 0, 2) == count_forest(I1, 0, 2) == 1


def test_forest_matches_forest_dp(rng):
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_forest_graph(n=n, m=rng.randint(n - 1, 3 * (n - 1)), t_max=6, seed=rng.randrange(2**32))
        s, z = rng.sample(range(g.n), 2)
        assert count_fen(g, s, z) == count_forest(g, s, z)


def test_against_oracle(rng):
    for _ in range(250):
        g = random_instance(rng, n_hi=10, t_hi=8, m_hi=18)
        s, z = rng.sample(range(g.n), 2)
        assert count_fen(g, s, z) == count_paths_bf(g, s, z), (g.time_edges, s, z)


def test_count_finds_the_feedback_edges_once(rng, monkeypatch):
    import chronopath.fen as fen

    calls = []
    real = fen.feedback_edge_set
    monkeypatch.setattr(fen, "feedback_edge_set", lambda static: calls.append(static) or real(static))
    for _ in range(40):
        g = random_instance(rng, n_hi=9, m_hi=16)
        s, z = rng.sample(range(g.n), 2)
        calls.clear()
        assert count_fen(g, s, z) == count_paths_bf(g, s, z)
        assert len(calls) == (1 if prune_degree_one(g, s, z).time_edges else 0)


def _reference_prune(g, s, z):
    """prune_degree_one as a degree-count queue over the whole vertex range."""
    adj = underlying_graph(g).adj
    degree = [len(adj[v]) for v in range(g.n)]
    removed = [False] * g.n
    queue = [v for v in range(g.n) if degree[v] <= 1 and v not in (s, z)]
    while queue:
        v = queue.pop()
        if removed[v]:
            continue
        removed[v] = True
        for w in adj[v]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] <= 1 and w not in (s, z):
                    queue.append(w)
    return tuple(e for e in g.time_edges if not removed[e[0]] and not removed[e[1]])


def _reference_feedback_edge_set(static):
    """Union-find over the sorted static edges with a nested find."""
    parent = list(range(static.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    feedback = []
    for u, v in static.sorted_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            feedback.append((u, v))
        else:
            parent[ru] = rv
    return frozenset(feedback)


def _reference_condense(g, s, z):
    """condense with sorted neighbour lists and (min, max) edge keys built per call."""
    static = underlying_graph(g)
    feedback = _reference_feedback_edge_set(static)
    forest_adj = {v: [] for v in range(static.n)}
    degree = [0] * static.n
    for u, v in static.sorted_edges:
        degree[u] += 1
        degree[v] += 1
        if (u, v) not in feedback:
            forest_adj[u].append(v)
            forest_adj[v].append(u)
    terminals = {s, z, *(x for edge in feedback for x in edge)}
    terminals.update(v for v in range(static.n) if degree[v] >= 3)
    links = [(u, v) for u, v in sorted(feedback)]
    seen_edges = set()
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
                    break
                path.append(nxts[0])
                seen_edges.add((min(cur, nxts[0]), max(cur, nxts[0])))
            if path[-1] in terminals:
                links.append(tuple(path))
    return frozenset(terminals), tuple(links), feedback


def test_prune_feedback_edges_and_condense_match_reference(rng):
    for _ in range(300):
        g = random_instance(rng, n_hi=11, m_hi=22)
        static = underlying_graph(g)
        assert feedback_edge_set(static) == _reference_feedback_edge_set(static)
        s, z = rng.sample(range(g.n), 2)
        assert prune_degree_one(g, s, z).time_edges == _reference_prune(g, s, z)
        for h in (g, prune_degree_one(g, s, z)):
            assert tuple(condense(h, s, z)) == _reference_condense(h, s, z), (h.time_edges, s, z)
