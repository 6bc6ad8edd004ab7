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
    assert len(feedback_edge_set(static)) == len(static.edges) - static.n + 1


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
