from fractions import Fraction

import pytest

from chronopath.errors import EnumerationLimitError
from chronopath.graph import restrict, validate_path
from chronopath.oracle import (
    betweenness_bf,
    count_optimal_bf,
    count_paths_bf,
    enumerate_paths,
    sigma_accessor_bf,
)
from chronopath.generate import diamond_chain, width_bounded_chain

from conftest import I1, I2, I4, I5, random_instance


def test_enumerate_examples():
    assert len(enumerate_paths(I1, 0, 2)) == 1
    assert len(enumerate_paths(I4, 0, 1)) == 2
    one_diamond = diamond_chain(1)
    assert len(enumerate_paths(one_diamond, 0, 3)) == 2


def test_enumerate_validates():
    for p in enumerate_paths(I5, 0, 2):
        validate_path(I5, p)
    paths = enumerate_paths(I5, 0, 2)
    assert len(set(paths)) == len(paths)


def test_enumeration_limit():
    g = diamond_chain(8)
    with pytest.raises(EnumerationLimitError):
        enumerate_paths(g, 0, g.n - 1, limit=10)


def test_count_examples():
    assert count_paths_bf(I5, 0, 2) == 2
    assert count_paths_bf(I1, 0, 0) == 1
    assert count_paths_bf(I2, 0, 2) == 0


def test_count_long_path():
    """A 1,500-step temporal path is deeper than Python's recursion limit."""
    g = width_bounded_chain(1500, width3=False)
    assert count_paths_bf(g, 0, 1500) == 1


def test_count_optimal_examples():
    assert count_optimal_bf(I5, 0, 2, "foremost") == 1
    assert count_optimal_bf(I5, 0, 2, "fastest") == 1
    assert count_optimal_bf(I2, 0, 2, "foremost") == 0


def test_betweenness_examples():
    assert betweenness_bf(I1, 1, "foremost") == 1
    from conftest import make_graph

    with_isolated = make_graph(4, [(0, 1, 1), (1, 2, 2)])
    assert betweenness_bf(with_isolated, 3, "foremost") == 0
    assert betweenness_bf(I4, 0, "fastest") == 0


def test_sigma_accessor_convention():
    assert sigma_accessor_bf(I1, 0, 2, 0, "foremost") == 1
    assert sigma_accessor_bf(I1, 0, 2, 2, "foremost") == 1
    assert sigma_accessor_bf(I1, 0, 2, 1, "foremost") == 1


def test_count_matches_enumeration(rng):
    for _ in range(60):
        g = random_instance(rng, n_hi=7)
        for s in range(g.n):
            for z in range(g.n):
                assert count_paths_bf(g, s, z) == len(enumerate_paths(g, s, z))


def test_deletion_identity(rng):
    # Removing v from the graph removes exactly the paths visiting v.
    for _ in range(60):
        g = random_instance(rng, n_hi=7)
        s, z = 0, g.n - 1
        paths = enumerate_paths(g, s, z)
        for v in range(g.n):
            if v in (s, z):
                continue
            without = count_paths_bf(restrict(g, 1, max(g.lifetime, 1), {v}), s, z)
            through = sum(1 for p in paths if p.visits(v))
            assert count_paths_bf(g, s, z) - without == through


def test_optimal_at_most_total(rng):
    for _ in range(60):
        g = random_instance(rng)
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                total = count_paths_bf(g, s, z)
                for star in ("foremost", "fastest"):
                    assert count_optimal_bf(g, s, z, star) <= total


def test_betweenness_is_fraction():
    value = betweenness_bf(I5, 1, "foremost")
    assert isinstance(value, Fraction)
