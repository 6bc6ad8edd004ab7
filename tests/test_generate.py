import pytest

from chronopath.errors import InvalidParameterError
from chronopath import generate
from chronopath.generate import (
    diamond_chain,
    random_forest_graph,
    random_temporal_graph,
    width_bounded_chain,
)
from chronopath.graph import TemporalGraph, underlying_graph
from chronopath.oracle import count_paths_bf
from chronopath.vimw import vimw_width


def test_random_is_deterministic():
    a = random_temporal_graph(8, 14, 5, seed=10)
    b = random_temporal_graph(8, 14, 5, seed=10)
    c = random_temporal_graph(8, 14, 5, seed=11)
    assert a == b
    assert a != c
    assert len(a.time_edges) == 14
    assert a.lifetime <= 5


def test_random_validation():
    with pytest.raises(InvalidParameterError):
        random_temporal_graph(1, 1, 1, seed=0)
    with pytest.raises(InvalidParameterError):
        random_temporal_graph(3, 100, 1, seed=0)


def test_forest_is_acyclic():
    for seed in range(12):
        g = random_forest_graph(10, 16, 6, seed=seed)
        assert underlying_graph(g).is_forest
        assert len(g.time_edges) == 16


def test_diamond_counts():
    for length in (1, 2, 5):
        g = diamond_chain(length)
        assert count_paths_bf(g, 0, g.n - 1) == 2**length
    with pytest.raises(InvalidParameterError):
        diamond_chain(0)


def test_diamond_structure():
    g = diamond_chain(3, label=4)
    assert g.lifetime == 1  # labels normalize to 1
    assert g.n == 10
    assert len(g.time_edges) == 12


def test_width_bounded_chain():
    assert vimw_width(width_bounded_chain(30, width3=False)) == 2
    assert vimw_width(width_bounded_chain(30, width3=True)) == 3
    g = width_bounded_chain(30)
    from chronopath.oracle import count_paths_bf as bf

    assert bf(g, 0, 30) == 1


def test_finalize_matches_its_reference(monkeypatch):
    """The shared normaliser gives each generator the graph its own remap and sort gave."""

    def reference(n, edges):
        labels = sorted({t for _, _, t in edges})
        remap = {t: i + 1 for i, t in enumerate(labels)}
        return TemporalGraph(
            n=n, time_edges=tuple(sorted((u, v, remap[t]) for u, v, t in edges)), lifetime=len(labels)
        )

    makers = [
        lambda: random_temporal_graph(9, 20, 30, seed=4),
        lambda: random_forest_graph(40, 70, 25, seed=7),
        lambda: diamond_chain(5, label=3),
        lambda: width_bounded_chain(12),
    ]
    built = [make() for make in makers]
    monkeypatch.setattr(generate, "_finalize", reference)
    assert built == [make() for make in makers]
