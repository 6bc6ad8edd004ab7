import random

import pytest

from chronopath.errors import NotAForestError
from chronopath.fen import count_fen
from chronopath.forest import count_forest, pair_cut
from chronopath.generate import random_forest_graph, random_temporal_graph
from chronopath.graph import restrict
from chronopath.oracle import count_paths_bf, iter_paths

from conftest import I1, I5, make_graph


def test_count_forest_examples():
    assert count_forest(I1, 0, 2) == 1
    two_labels = make_graph(3, [(0, 1, 1), (0, 1, 2), (1, 2, 2)])
    assert count_forest(two_labels, 0, 2) == 2
    split = make_graph(4, [(0, 1, 1), (2, 3, 1)])
    assert count_forest(split, 0, 3) == 0
    assert count_forest(I1, 1, 1) == 1


def test_count_forest_rejects_cycles():
    with pytest.raises(NotAForestError):
        count_forest(I5, 0, 2)
    # A window that keeps a cycle is still refused; one that cuts it is a forest.
    triangle_then_tail = make_graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 2)])
    with pytest.raises(NotAForestError):
        count_forest(restrict(triangle_then_tail, 1, 1), 0, 2)
    assert count_forest(restrict(I5, 1, 2), 0, 2) == 1


def test_window_examples():
    assert count_forest(restrict(I1, 1, 2), 0, 2) == 1
    assert count_forest(restrict(I1, 2, 2), 0, 2) == 0
    assert count_forest(restrict(I1, 1, 1), 0, 2) == 0
    assert count_forest(restrict(I1, 1, 2), 1, 1) == 1


def test_window_widening_is_monotone(rng):
    for _ in range(40):
        n = rng.randint(3, 8)
        g = random_forest_graph(
            n=n, m=rng.randint(n - 1, 2 * (n - 1)), t_max=6, seed=rng.randrange(2**32)
        )
        a, b = rng.sample(range(g.n), 2)
        centre = rng.randint(1, g.lifetime)
        prev = 0
        for width in range(g.lifetime + 1):
            lo, hi = max(1, centre - width), min(g.lifetime, centre + width)
            value = count_forest(restrict(g, lo, hi), a, b)
            assert value >= prev
            prev = value


def test_against_oracle_on_random_forests():
    rng = random.Random(424242)
    for _ in range(120):
        n = rng.randint(2, 12)
        m = rng.randint(n - 1, min(2 * n, (n - 1) * 4))
        g = random_forest_graph(n=n, m=m, t_max=min(8, m), seed=rng.randrange(2**32))
        s, z = rng.sample(range(g.n), 2)
        assert count_forest(g, s, z) == count_paths_bf(g, s, z)


def test_window_against_oracle():
    rng = random.Random(31337)
    for _ in range(80):
        n = rng.randint(2, 9)
        g = random_forest_graph(n=n, m=rng.randint(n - 1, 3 * n), t_max=6, seed=rng.randrange(2**32))
        a, b = rng.sample(range(g.n), 2)
        lo = rng.randint(1, g.lifetime)
        hi = rng.randint(lo, g.lifetime)
        want = sum(
            1
            for p in iter_paths(g, a, b)
            if p.steps and p.start_time >= lo and p.arrival_time <= hi
        )
        assert count_forest(restrict(g, lo, hi), a, b) == want


def test_pair_cut_keeps_every_path():
    # Every ordered pair of seeded random graphs: the cut counts as many
    # paths as the whole graph, and at 9 vertices or fewer it holds every
    # path's time-edges and internal vertices.
    rng = random.Random(26)
    shrunk = 0
    for n in [6, 7, 8, 9] * 3 + [10, 12, 14, 16] * 2:
        t_max = rng.randint(2, 8)
        g = random_temporal_graph(n, n - 1 + rng.randint(1, n), t_max, rng.randrange(10**6))
        for s in range(n):
            for z in range(n):
                if s == z:
                    continue
                cut, reach = pair_cut(g, s, z)
                assert set(cut.time_edges) <= set(g.time_edges)
                assert reach == sorted({v for e in cut.time_edges for v in e[:2]} - {s, z})
                assert count_fen(cut, s, z) == count_fen(g, s, z)
                shrunk += len(cut.time_edges) < len(g.time_edges)
                if n > 9:
                    continue
                for p in iter_paths(g, s, z):
                    assert set(p.vertices()[1:-1]) <= set(reach)
                    assert {(min(u, v), max(u, v), t) for u, v, t in p.steps} <= set(cut.time_edges)
    assert shrunk > 1000


def test_pair_cut_examples():
    # s=0, z=2.  {2, 3} at 1 comes before 3 is reached, {2, 4} before 2 is,
    # and {1, 3} at 2 then leads only back to 1: a walk, not a path, so the
    # 2-core peels it.
    g = make_graph(5, [(0, 1, 1), (1, 2, 3), (1, 3, 2), (2, 3, 1), (2, 4, 2)])
    cut, reach = pair_cut(g, 0, 2)
    assert (cut.time_edges, reach) == (((0, 1, 1), (1, 2, 3)), [1])
    # Leaving v at exactly its latest departure still reaches z.
    same_label = make_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert pair_cut(same_label, 0, 2) == (same_label, [1])
