import subprocess
import sys
import time
from math import perm

from hypothesis import given, settings
from hypothesis import strategies as st

from chronopath.fen import count_fen
from chronopath.generate import diamond_chain, random_temporal_graph, width_bounded_chain
from chronopath.graph import TemporalGraph, restrict
from chronopath.oracle import count_paths_bf
from chronopath.vimw import count_vimw, vim_sequence, vimw_width

from conftest import I1, make_graph, random_instance
from test_metamorphic import instances


@st.composite
def small_temporal_graphs(draw):
    n = draw(st.integers(2, 6))
    raw = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5)),
            min_size=1,
            max_size=10,
        )
    )
    edges = {(u, v, t) for u, v, t in raw if u != v}
    return make_graph(n, edges), n


def test_sequence_examples():
    assert vim_sequence(make_graph(3, [(0, 1, 1), (1, 2, 2)])) == [2, 2]
    assert vim_sequence(make_graph(4, [(0, 1, 1), (1, 2, 2), (0, 3, 3)])) == [2, 3, 2]
    assert vim_sequence(make_graph(2, [(0, 1, 1)])) == [2]
    assert vim_sequence(make_graph(3, [])) == []
    assert vimw_width(make_graph(3, [])) == 0


def test_sequence_definition_bruteforce(rng):
    # v is in F_t iff v touches an edge at some i <= t and some j >= t.  Label
    # cuts keep absolute labels, so their bags before the first kept label are
    # empty; the cut [1, T] is g itself.
    for _ in range(60):
        g = random_instance(rng)
        windows = [(lo, hi) for hi in range(1, g.lifetime + 1) for lo in range(1, hi + 1)]
        for lo, hi in windows:
            h = restrict(g, lo, hi)
            sizes = vim_sequence(h)
            assert len(sizes) == h.lifetime
            assert vimw_width(h) == max(sizes, default=0)
            for t in range(1, h.lifetime + 1):
                bag = set()
                for v in range(h.n):
                    times = [lab for w, lab in h.incident[v]]
                    if times and min(times) <= t <= max(times):
                        bag.add(v)
                assert sizes[t - 1] == len(bag)


def test_count_examples():
    assert count_vimw(I1, 0, 2) == 1
    d3 = diamond_chain(3)
    assert count_vimw(d3, 0, d3.n - 1) == 8
    lonely = make_graph(3, [(1, 2, 1)])
    assert count_vimw(lonely, 0, 2) == 0
    assert count_vimw(lonely, 0, 0) == 1


def test_against_oracle(rng):
    for _ in range(200):
        g = random_instance(rng, n_hi=8, t_hi=6, m_hi=16)
        for s in range(g.n):
            for z in range(g.n):
                assert count_vimw(g, s, z) == count_paths_bf(g, s, z), (
                    g.time_edges,
                    s,
                    z,
                )


def test_against_oracle_on_graphs_with_deep_snapshots():
    # Four labels over 20 edges put several edges of a path in one snapshot,
    # so states of different depth meet there and the sweep order matters.
    for seed in range(200):
        g = random_temporal_graph(9, 20, 4, seed)
        for s in range(g.n):
            for z in range(g.n):
                assert count_vimw(g, s, z) == count_paths_bf(g, s, z), (seed, s, z)


@settings(max_examples=60, deadline=None)
@given(small_temporal_graphs(), st.integers(0, 35), st.integers(0, 35))
def test_against_oracle_hypothesis(gn, s_pick, z_pick):
    g, n = gn
    s, z = s_pick % n, z_pick % n
    assert count_vimw(g, s, z) == count_paths_bf(g, s, z)


def test_long_narrow_instance_is_fast():
    g = width_bounded_chain(10_000, width3=False)
    assert vimw_width(g) == 2
    start = time.perf_counter()
    assert count_vimw(g, 0, 10_000) == 1
    assert time.perf_counter() - start < 10.0


def test_histogram():
    assert vim_sequence(width_bounded_chain(50)) == [3] * 50


def test_width_builds_no_snapshot_index():
    g = width_bounded_chain(40)
    assert vimw_width(g) == 3
    assert "snapshots" not in g.__dict__


def test_sequence_builds_no_snapshot_index():
    g = width_bounded_chain(40)
    assert vim_sequence(g) == [3] * 40
    assert "snapshots" not in g.__dict__


def test_one_label_clique_counts_by_merged_states():
    # K_12 at label 1, then a hub joined to every clique vertex but 0 at label
    # 2: the paths are the floor(e * 11!) - 1 simple paths from 0 inside the
    # clique, too many to walk one by one in time.
    k = 12
    edges = [f"{u} {v} 1" for u in range(k) for v in range(u + 1, k)]
    edges += [f"{v} {k} 2" for v in range(1, k)]
    proc = subprocess.run(
        [sys.executable, "-m", "chronopath.cli", "count", "--algo", "vimw", "-s", "0", "-z", str(k)],
        input="\n".join(edges).encode(),
        capture_output=True,
        timeout=10,
    )
    assert proc.stdout.decode() == f"{sum(perm(k - 1, j) for j in range(1, k))}\n" == "108505111\n"


def test_states_of_different_depth_merge_within_a_snapshot():
    # 0-2-1-3 arrives at label 1 and 0-1 at label 2, so the deeper state comes
    # first among those carried into label 3.  There 0-1 goes on by 1-2-3 and
    # meets 0-2-1-3 in the state (3, {1, 2}) (0 has left the bag), which must
    # be extended by both, to 4 at label 3 and to z = 5 at label 4: three paths.
    edges = [(0, 2, 1), (1, 2, 1), (1, 3, 1), (0, 1, 2), (1, 2, 3), (2, 3, 3), (3, 4, 3)]
    g = make_graph(6, [*edges, (4, 5, 4)])
    assert count_vimw(g, 0, 5) == count_paths_bf(g, 0, 5) == 3
    for z in range(g.n):
        assert count_vimw(g, 0, z) == count_paths_bf(g, 0, z), z


@settings(max_examples=60, deadline=None)
@given(instances(random_temporal_graph, st.integers(1, 45)), st.data())
def test_vimw_and_fen_are_invariant_under_vertex_permutation(instance, data):
    g, s, z = instance
    p = data.draw(st.permutations(range(g.n)))
    edges = sorted((min(p[u], p[v]), max(p[u], p[v]), t) for u, v, t in g.time_edges)
    h = TemporalGraph(g.n, tuple(edges), g.lifetime)
    want = count_vimw(g, s, z)
    assert count_fen(g, s, z) == count_vimw(h, p[s], p[z]) == count_fen(h, p[s], p[z]) == want
