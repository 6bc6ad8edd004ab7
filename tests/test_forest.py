import random

import pytest

from chronopath.errors import NotAForestError
from chronopath.forest import count_forest
from chronopath.generate import random_forest_graph
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
