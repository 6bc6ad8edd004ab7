"""Counting optimal paths and exact betweenness on top of a pluggable counter.

Any exact (s,z)-path counter can be lifted to count foremost or fastest
paths: cap the lifetime at the earliest arrival time (then every surviving
path is foremost), or sweep all windows [t0, t0 + d] of the fastest
duration d (every surviving path is fastest, and each fastest path
survives in exactly the window starting at its own start time, so the
window counts add up without double counting).

Through-counts are obtained by deleting the vertex inside the restricted
instances, so the "avoided" paths are still measured against the optimum
of the original graph.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .graph import (
    TemporalGraph,
    connectivity_matrix,
    earliest_arrival,
    fastest_duration,
    restrict,
)

Counter = Callable[[TemporalGraph, int, int], int]


def count_foremost(g: TemporalGraph, s: int, z: int, counter: Counter) -> int:
    """Number of foremost temporal (s,z)-paths."""
    if s == z:
        raise ValueError("count_foremost requires s != z")
    t_star = earliest_arrival(g, s, z)
    if t_star is None:
        return 0
    return counter(restrict(g, 1, t_star), s, z)


def _fastest_windows(g: TemporalGraph, s: int, z: int) -> list[tuple[int, int]]:
    """The windows [t0, t0 + d] of the fastest duration d that can hold a path.

    A path inside [t0, t0 + d] lasts at least d, so it leaves s at exactly
    t0; every other window counts 0 and is skipped.
    """
    d = fastest_duration(g, s, z)
    if d is None:
        return []
    starts = sorted({t for _, t in g.incident[s] if t + d <= g.lifetime})
    return [(t0, t0 + d) for t0 in starts]


def count_fastest(g: TemporalGraph, s: int, z: int, counter: Counter) -> int:
    """Number of fastest temporal (s,z)-paths."""
    if s == z:
        raise ValueError("count_fastest requires s != z")
    return sum(counter(restrict(g, lo, hi), s, z) for lo, hi in _fastest_windows(g, s, z))


def sigma_through(
    g: TemporalGraph, s: int, z: int, v: int, star: str, counter: Counter
) -> tuple[int, int]:
    """(sigma, sigma(v)) for the pair (s, z): optimal paths, and those visiting v.

    The optimum (arrival cutoff or duration) is fixed on g first; the
    deletion of v happens inside each restricted instance.
    """
    if v in (s, z):
        raise ValueError("sigma_through requires v not in {s, z}")
    if star == "foremost":
        t_star = earliest_arrival(g, s, z)
        if t_star is None:
            return 0, 0
        sigma = counter(restrict(g, 1, t_star), s, z)
        avoiding = counter(restrict(g, 1, t_star, {v}), s, z)
        return sigma, sigma - avoiding
    if star == "fastest":
        sigma = 0
        avoiding = 0
        for lo, hi in _fastest_windows(g, s, z):
            sigma += counter(restrict(g, lo, hi), s, z)
            avoiding += counter(restrict(g, lo, hi, {v}), s, z)
        return sigma, sigma - avoiding
    raise ValueError(f"unknown optimality criterion {star!r}")


def betweenness_exact(g: TemporalGraph, v: int, star: str, counter: Counter) -> Fraction:
    """Exact temporal betweenness of v based on *-optimal paths."""
    matrix = connectivity_matrix(g)
    total = Fraction(0)
    for s in range(g.n):
        for z in range(g.n):
            if s != z and v not in (s, z) and matrix[s][z]:
                sigma, through = sigma_through(g, s, z, v, star, counter)
                if sigma:
                    total += Fraction(through, sigma)
    return total
