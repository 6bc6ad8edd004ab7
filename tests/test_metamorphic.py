"""Metamorphic properties at sizes the brute-force oracle cannot enumerate.

Reversing time (t -> T + 1 - t) turns every temporal (s,z)-path into a
temporal (z,s)-path over the same vertices, so an exact engine must give
count(G, s, z) == count(rev G, z, s).  The two sides walk different bags,
link sequences and label lists, so an engine that drops or double counts
a path in one time direction is caught without an oracle.

Relabelling t -> 3t + 2 keeps the order of labels, so it keeps every path
and every count.  Afterwards no label is 1 and the lifetime exceeds the
number of labels, which an engine that reads labels as 1..T or brackets a
path at labels 1 and T must still get right.  The timed-FVS engine runs on
forests plus 1-3 extra time-edges, whose timed FVS has at most 3
appearances.

The sampler relies on self-reducibility: the (cur, z)-paths that go on from
a walk state (cur, min_label, visited) are the paths of the cut that keeps
labels from min_label on and drops the other visited vertices.  Each built
state's total weight must be that cut's count by an independent engine.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronopath.fen import count_fen
from chronopath.forest import count_forest
from chronopath.generate import random_forest_graph, random_temporal_graph
from chronopath.graph import TemporalGraph, restrict
from chronopath.sampling import PathSampler
from chronopath.tfvs import count_tfvs
from chronopath.vimw import count_vimw


def reverse_time(g: TemporalGraph) -> TemporalGraph:
    top = g.lifetime + 1
    edges = tuple(sorted((u, v, top - t) for u, v, t in g.time_edges))
    return TemporalGraph(g.n, edges, g.lifetime)


def stretch_time(g: TemporalGraph) -> TemporalGraph:
    edges = tuple((u, v, 3 * t + 2) for u, v, t in g.time_edges)
    return TemporalGraph(g.n, edges, 3 * g.lifetime + 2)


@st.composite
def instances(draw, generator, extra_edges):
    n = draw(st.integers(10, 16))
    t_max = draw(st.integers(2, 8))
    m = n - 1 + draw(extra_edges)
    g = generator(n, m, t_max, draw(st.integers(0, 10**6)))
    s, z = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return g, s, z


@st.composite
def forests_plus_edges(draw):
    g, s, z = draw(instances(random_forest_graph, st.integers(0, 8)))
    vertex = st.integers(0, g.n - 1)
    extra = draw(st.lists(
        st.tuples(vertex, vertex, st.integers(1, g.lifetime)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=3,
    ))
    edges = {*g.time_edges, *((min(u, v), max(u, v), t) for u, v, t in extra)}
    return TemporalGraph(g.n, tuple(sorted(edges)), g.lifetime), s, z


def _reverses(count, instance) -> None:
    g, s, z = instance
    assert count(g, s, z) == count(reverse_time(g), z, s)


@settings(max_examples=60, deadline=None)
@given(instances(random_temporal_graph, st.integers(1, 45)))
def test_vimw_count_is_invariant_under_time_reversal(instance):
    _reverses(count_vimw, instance)


@settings(max_examples=60, deadline=None)
@given(instances(random_temporal_graph, st.integers(1, 45)))
def test_fen_count_is_invariant_under_time_reversal(instance):
    _reverses(count_fen, instance)


@settings(max_examples=60, deadline=None)
@given(instances(random_forest_graph, st.integers(0, 8)))
def test_forest_count_is_invariant_under_time_reversal(instance):
    _reverses(count_forest, instance)


@settings(max_examples=60, deadline=None)
@given(forests_plus_edges())
def test_tfvs_count_is_invariant_under_time_reversal(instance):
    _reverses(count_tfvs, instance)


@pytest.mark.parametrize("count", [count_vimw, count_fen, count_tfvs])
@settings(max_examples=50, deadline=None)
@given(instance=forests_plus_edges())
def test_count_is_invariant_under_stretched_labels(count, instance):
    g, s, z = instance
    assert count(g, s, z) == count(stretch_time(g), s, z)


@settings(max_examples=60, deadline=None)
@given(instances(random_temporal_graph, st.integers(1, 45)), st.integers(0, 2**32))
def test_sampler_walk_states_weigh_their_residual_paths(instance, seed):
    g, s, z = instance
    sampler = PathSampler(g, s, z, count_vimw)
    if sampler.total_count():
        rng = random.Random(seed)
        for _ in range(30):
            sampler.walk(rng)
    root = sampler._state(s, 1, frozenset((s,)))
    assert (root.cum or [0])[-1] == sampler.total_count()
    for (cur, min_label, visited), state in sampler._states.items():
        residual = restrict(g, min_label, g.lifetime, visited - {cur})
        assert (state.cum or [0])[-1] == count_fen(residual, cur, z)
