from fractions import Fraction

import pytest

from chronopath import graph
from chronopath.fen import count_fen
from chronopath.generate import random_temporal_graph
from chronopath.oracle import (
    betweenness_bf,
    count_optimal_bf,
    count_paths_bf,
    iter_paths,
    optimal_paths,
    sigma_accessor_bf,
)
from chronopath.reductions import (
    betweenness_exact,
    count_fastest,
    count_foremost,
    optimal_windows,
    sigma_through,
)
from chronopath.graph import fastest_duration, restrict
from chronopath.vimw import count_vimw

from conftest import I1, I2, I4, I5, make_graph, random_instance

COUNTERS = {"fen": count_fen, "vimw": count_vimw, "oracle": count_paths_bf}


@pytest.mark.parametrize("counter", COUNTERS.values(), ids=COUNTERS.keys())
def test_foremost_examples(counter):
    assert count_foremost(I5, 0, 2, counter) == 1
    assert count_foremost(I1, 0, 2, counter) == 1
    assert count_foremost(I2, 0, 2, counter) == 0


@pytest.mark.parametrize("counter", COUNTERS.values(), ids=COUNTERS.keys())
def test_fastest_examples(counter):
    assert count_fastest(I5, 0, 2, counter) == 1
    assert count_fastest(I4, 0, 1, counter) == 2
    assert count_fastest(I2, 0, 2, counter) == 0


def test_sigma_through_examples():
    assert sigma_through(I1, 0, 2, [1], "foremost", count_fen) == (1, {1: 1})
    assert sigma_through(I5, 0, 2, [1], "fastest", count_fen) == (1, {1: 0})
    lonely = make_graph(4, [(0, 1, 1), (1, 2, 2)])
    assert sigma_through(lonely, 0, 2, [3], "foremost", count_fen) == (1, {3: 0})


def test_betweenness_examples():
    assert betweenness_exact(I1, [1], "foremost", count_fen) == [1]
    assert betweenness_exact(I4, [0], "fastest", count_fen) == [0]
    empty = make_graph(3, [])
    assert betweenness_exact(empty, [1], "foremost", count_fen) == [0]


@pytest.mark.parametrize("counter", [count_fen, count_vimw], ids=["fen", "vimw"])
def test_optimal_counts_match_oracle(rng, counter):
    for _ in range(80):
        g = random_instance(rng, n_hi=9, m_hi=14)
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                assert count_foremost(g, s, z, counter) == count_optimal_bf(g, s, z, "foremost")
                assert count_fastest(g, s, z, counter) == count_optimal_bf(g, s, z, "fastest")


def test_betweenness_matches_oracle(rng):
    for _ in range(25):
        g = random_instance(rng, n_hi=6, m_hi=10)
        for star in ("foremost", "fastest"):
            for v in range(g.n):
                want = betweenness_bf(g, v, star)
                (got,) = betweenness_exact(g, [v], star, count_fen)
                assert got == want and isinstance(got, Fraction)


def test_betweenness_sweep_counts_each_window_once(rng):
    # The counter sees each window of each connected pair once, and one
    # deletion per requested vertex only in windows that hold a path and
    # give that vertex a time-edge: deleting any other vertex drops nothing.
    for _ in range(20):
        g = random_instance(rng, n_lo=3, n_hi=6, m_hi=10)
        vertices = range(g.n)
        for star in ("foremost", "fastest"):
            calls = []

            def recording(h, s, z):
                calls.append((s, z, h.time_edges))
                return count_fen(h, s, z)

            got = betweenness_exact(g, vertices, star, recording)
            expected = []
            for s in vertices:
                for z in vertices:
                    if s == z:
                        continue
                    inner = [v for v in vertices if v not in (s, z)]
                    for lo, hi in optimal_windows(g, s, z, star):
                        window = restrict(g, lo, hi)
                        expected.append((s, z, window.time_edges))
                        if count_fen(window, s, z):
                            expected += [
                                (s, z, restrict(g, lo, hi, {v}).time_edges)
                                for v in inner
                                if any(v in e[:2] for e in window.time_edges)
                            ]
                    sigma, through = sigma_through(g, s, z, inner, star, count_fen)
                    assert sigma == count_optimal_bf(g, s, z, star)
                    assert through == {v: sigma_accessor_bf(g, s, z, v, star) for v in inner}
            assert sorted(calls) == sorted(expected)
            singles = [betweenness_exact(g, [v], star, count_fen)[0] for v in vertices]
            assert got == singles == [betweenness_bf(g, v, star) for v in vertices]


def test_betweenness_sweeps_each_reach_once(monkeypatch):
    # Every (source, min_label) reach sweep is made once per graph, not once
    # per target.
    for star, want in (("foremost", 9), ("fastest", 42)):
        g = random_temporal_graph(9, 20, 20, 1)
        sweeps = []
        sweep = graph.earliest_reach

        def recording(h, s, min_label=1):
            sweeps.append((id(h), s, min_label))
            return sweep(h, s, min_label)

        monkeypatch.setattr(graph, "earliest_reach", recording)
        betweenness_exact(g, range(g.n), star, count_fen)
        monkeypatch.undo()
        assert len(sweeps) == len(set(sweeps)) == want


def test_foremost_window(rng):
    assert optimal_windows(I1, 0, 2, "foremost") == [(1, 2)]
    assert optimal_windows(I2, 0, 2, "foremost") == []  # z is unreachable
    for _ in range(60):
        g = random_instance(rng, n_hi=7, m_hi=12)
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                paths = optimal_paths(g, s, z, "foremost")
                want = [(1, paths[0].arrival_time)] if paths else []
                assert optimal_windows(g, s, z, "foremost") == want
    with pytest.raises(ValueError):
        optimal_windows(I1, 0, 2, "shortest")
    with pytest.raises(ValueError):
        optimal_windows(I1, 0, 0, "foremost")


def test_fastest_windows_start_at_labels_of_s(rng):
    # A path inside [t0, t0 + d] lasts at least d, so it leaves s at t0.
    for _ in range(60):
        g = random_instance(rng, n_hi=7, m_hi=12)
        for s in range(g.n):
            s_labels = {t for _, t in g.incident[s]}
            for z in range(g.n):
                if s == z:
                    continue
                for t0, t1 in optimal_windows(g, s, z, "fastest"):
                    assert t0 in s_labels and t1 <= g.lifetime


def test_fastest_window_disjointness(rng):
    # Every fastest path lives in exactly one window [t0, t0 + d].
    for _ in range(60):
        g = random_instance(rng, n_hi=7, m_hi=12)
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                d = fastest_duration(g, s, z)
                if d is None:
                    continue
                windows = [(t0, t0 + d) for t0 in range(1, g.lifetime - d + 1)]
                for p in iter_paths(g, s, z):
                    if not p.steps:
                        continue
                    if p.arrival_time - p.start_time != d:
                        continue
                    homes = [
                        (lo, hi)
                        for lo, hi in windows
                        if p.start_time >= lo and p.arrival_time <= hi
                        and (p.start_time, p.arrival_time) == (lo, hi)
                    ]
                    assert len(homes) == 1


def test_every_optimal_window_holds_a_path(rng):
    # Each window optimal_windows returns holds a path, the windows together
    # hold every optimal path once, and sigma_through counts through each v.
    # Cuts by label and by vertex leave gaps in the labels of s.
    cases = 0
    for _ in range(120):
        g = random_instance(rng, n_lo=3, n_hi=7, m_hi=12)
        lo = rng.randint(1, g.lifetime)
        cut = {rng.randrange(g.n)}
        for h in (g, restrict(g, lo, g.lifetime), restrict(g, 1, g.lifetime, cut)):
            for s in range(h.n):
                for z in range(h.n):
                    if s == z:
                        continue
                    inner = [v for v in range(h.n) if v not in (s, z)]
                    for star in ("foremost", "fastest"):
                        counts = [
                            count_paths_bf(restrict(h, a, b), s, z)
                            for a, b in optimal_windows(h, s, z, star)
                        ]
                        assert all(counts)
                        sigma, through = sigma_through(h, s, z, inner, star, count_fen)
                        assert sum(counts) == sigma == count_optimal_bf(h, s, z, star)
                        assert through == {v: sigma_accessor_bf(h, s, z, v, star) for v in inner}
                        cases += 1
    assert cases > 5000
