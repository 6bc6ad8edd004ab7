"""Counting optimal paths and exact betweenness on top of a pluggable counter.

Any exact (s,z)-path counter is lifted to *-optimal paths by fixing the
pair's optimum on the whole graph and then counting all paths inside the
time windows that only optimal paths fit (:func:`optimal_windows`, the one
place that tells foremost from fastest).  Through-counts delete the vertex
inside the windows, so the "avoided" paths are still measured against the
optimum of the original graph.  Exact betweenness fixes and counts each
temporally connected pair's windows once for all requested vertices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .graph import (
    TemporalGraph,
    _reach_from,
    connectivity_matrix,
    earliest_arrival,
    fastest_duration,
    restrict,
)

Counter = Callable[[TemporalGraph, int, int], int]


def optimal_windows(g: TemporalGraph, s: int, z: int, star: str) -> list[tuple[int, int]]:
    """Ascending windows [lo, hi], each holding a *-optimal (s,z)-path, that
    hold each *-optimal path once and no other path.

    Foremost: [(1, t*)] for the earliest arrival t*, or [] when z is
    unreachable.  Fastest: (t0, t0 + d) for the fastest duration d and each
    label t0 of s whose sweep first reaches z at t0 + d.  A path inside
    [t0, t0 + d] lasts at least d, so it leaves s at exactly t0: each fastest
    path lies in the one window of its start time, and no window is empty.
    """
    if s == z:
        raise ValueError("optimal windows require s != z")
    if star == "foremost":
        t_star = earliest_arrival(g, s, z)
        return [] if t_star is None else [(1, t_star)]
    if star == "fastest":
        d = fastest_duration(g, s, z)
        if d is None:
            return []
        starts = sorted({t for _, t in g.incident[s]})
        return [(t0, t0 + d) for t0 in starts if _reach_from(g, s, t0)[z] == t0 + d]
    raise ValueError(f"unknown optimality criterion {star!r}")


def count_foremost(g: TemporalGraph, s: int, z: int, counter: Counter) -> int:
    """Number of foremost temporal (s,z)-paths."""
    return sigma_through(g, s, z, (), "foremost", counter)[0]


def count_fastest(g: TemporalGraph, s: int, z: int, counter: Counter) -> int:
    """Number of fastest temporal (s,z)-paths."""
    return sigma_through(g, s, z, (), "fastest", counter)[0]


def sigma_through(
    g: TemporalGraph, s: int, z: int, vertices: Iterable[int], star: str, counter: Counter
) -> tuple[int, dict[int, int]]:
    """(sigma, {v: sigma(v)}): the *-optimal (s,z)-paths, and those visiting each v.

    The windows are fixed on g once and each, holding a path, is counted
    once.  v is deleted inside each window; a window where v has no
    time-edge is its own cut (no recount).
    """
    avoiding = dict.fromkeys(vertices, 0)
    if s in avoiding or z in avoiding:
        raise ValueError("sigma_through requires every v outside {s, z}")
    sigma = 0
    for lo, hi in optimal_windows(g, s, z, star):
        window = restrict(g, lo, hi)
        count = counter(window, s, z)
        sigma += count
        for v in avoiding:
            cut = restrict(window, lo, hi, {v})
            avoiding[v] += count if cut is window else counter(cut, s, z)
    return sigma, {v: sigma - a for v, a in avoiding.items()}


def betweenness_exact(
    g: TemporalGraph, vertices: Sequence[int], star: str, counter: Counter
) -> list[Fraction]:
    """Exact temporal betweenness, based on *-optimal paths, of each of ``vertices``.

    One sweep over the temporally connected ordered pairs makes one
    :func:`sigma_through` call per pair for all requested vertices outside it;
    a connected pair has an optimal path, so its sigma is positive.
    """
    total = dict.fromkeys(vertices, Fraction(0))
    matrix = connectivity_matrix(g)
    for s in range(g.n):
        for z in range(g.n):
            inner = [v for v in total if v not in (s, z)]
            if s != z and inner and matrix[s][z]:
                sigma, through = sigma_through(g, s, z, inner, star, counter)
                for v in inner:
                    total[v] += Fraction(through[v], sigma)
    return [total[v] for v in vertices]
