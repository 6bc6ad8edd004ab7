from fractions import Fraction

import pytest

from chronopath.fen import count_fen
from chronopath.oracle import (
    betweenness_bf,
    count_optimal_bf,
    count_paths_bf,
    iter_paths,
)
from chronopath.reductions import (
    _fastest_windows,
    betweenness_exact,
    count_fastest,
    count_foremost,
    sigma_through,
)
from chronopath.graph import fastest_duration
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
    assert sigma_through(I1, 0, 2, 1, "foremost", count_fen) == (1, 1)
    assert sigma_through(I5, 0, 2, 1, "fastest", count_fen) == (1, 0)
    lonely = make_graph(4, [(0, 1, 1), (1, 2, 2)])
    assert sigma_through(lonely, 0, 2, 3, "foremost", count_fen) == (1, 0)


def test_betweenness_examples():
    assert betweenness_exact(I1, 1, "foremost", count_fen) == 1
    assert betweenness_exact(I4, 0, "fastest", count_fen) == 0
    empty = make_graph(3, [])
    assert betweenness_exact(empty, 1, "foremost", count_fen) == 0


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
                got = betweenness_exact(g, v, star, count_fen)
                assert got == want and isinstance(got, Fraction)


def test_fastest_windows_start_at_labels_of_s(rng):
    # A path inside [t0, t0 + d] lasts at least d, so it leaves s at t0.
    for _ in range(60):
        g = random_instance(rng, n_hi=7, m_hi=12)
        for s in range(g.n):
            s_labels = {t for _, t in g.incident[s]}
            for z in range(g.n):
                if s == z:
                    continue
                for t0, t1 in _fastest_windows(g, s, z):
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
