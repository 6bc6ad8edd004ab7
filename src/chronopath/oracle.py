"""Brute-force ground truth: enumerate temporal paths straight from the definitions.

Everything here is deliberately naive.  The enumerator does a depth-first
extension over time-edges with non-decreasing labels and unvisited head
vertices; optimal-path counting and betweenness are computed by filtering
the enumeration, not by any reduction.  This module is the reference that
every clever algorithm in the package is tested against, so it must stay
obviously correct.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .errors import EnumerationLimitError
from .graph import TemporalGraph, TemporalPath

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_ENUMERATION_LIMIT = 10**6


def iter_paths(g: TemporalGraph, s: int, z: int) -> Iterator[TemporalPath]:
    """Yield every temporal (s,z)-path, including the trivial path for s == z."""
    if s == z:
        yield TemporalPath(source=s)
        return

    steps: list[tuple[int, int, int]] = []
    visited = {s}
    # Depth-first with an explicit stack of (vertex, its unscanned incident
    # edges, least usable label), so path length is not bound by recursion.
    frames = [(s, iter(g.incident[s]), 1)]
    while frames:
        cur, edges, min_label = frames[-1]
        for w, t in edges:
            if t < min_label or w in visited:
                continue
            steps.append((cur, w, t))
            if w == z:
                yield TemporalPath(source=s, steps=tuple(steps))
                steps.pop()
                continue
            visited.add(w)
            frames.append((w, iter(g.incident[w]), t))
            break
        else:
            frames.pop()
            if steps:
                visited.remove(steps.pop()[1])


def _over_limit(limit: int, s: int, z: int) -> EnumerationLimitError:
    return EnumerationLimitError(
        f"more than {limit} temporal ({s},{z})-paths; instance too large for the oracle"
    )


def enumerate_paths(
    g: TemporalGraph, s: int, z: int, limit: int | None = DEFAULT_ENUMERATION_LIMIT
) -> list[TemporalPath]:
    """Materialize all temporal (s,z)-paths; error out beyond ``limit`` paths."""
    out: list[TemporalPath] = []
    for path in iter_paths(g, s, z):
        out.append(path)
        if limit is not None and len(out) > limit:
            raise _over_limit(limit, s, z)
    return out


def count_paths_bf(g: TemporalGraph, s: int, z: int, limit: int | None = None) -> int:
    """Count temporal (s,z)-paths without materializing them; s == z gives 1.

    Past ``limit`` paths the count stops with EnumerationLimitError.
    """
    total = 0
    for _ in iter_paths(g, s, z):
        total += 1
        if limit is not None and total > limit:
            raise _over_limit(limit, s, z)
    return total


def _optimum(paths: list[TemporalPath], star: str) -> int | None:
    if not paths:
        return None
    if star == "foremost":
        return min(p.arrival_time for p in paths)
    if star == "fastest":
        return min(p.arrival_time - p.start_time for p in paths)
    raise ValueError(f"unknown optimality criterion {star!r}")


def _is_optimal(path: TemporalPath, star: str, optimum: int) -> bool:
    if star == "foremost":
        return path.arrival_time == optimum
    return path.arrival_time - path.start_time == optimum


def optimal_paths(g: TemporalGraph, s: int, z: int, star: str) -> list[TemporalPath]:
    """All *-optimal temporal (s,z)-paths, from full enumeration."""
    paths = list(iter_paths(g, s, z))
    if s == z:
        return paths
    opt = _optimum(paths, star)
    if opt is None:
        return []
    return [p for p in paths if _is_optimal(p, star, opt)]


def count_optimal_bf(g: TemporalGraph, s: int, z: int, star: str) -> int:
    """Number of enumerated paths achieving the optimum; 0 if no path."""
    if s == z:
        raise ValueError("count_optimal_bf requires s != z")
    return len(optimal_paths(g, s, z, star))


def betweenness_bf(g: TemporalGraph, v: int, star: str) -> Fraction:
    """Temporal betweenness of v from the definition, as an exact rational.

    Sums sigma(v)/sigma over ordered pairs (s, z) with s != v != z, s != z,
    that are temporally connected, where sigma counts *-optimal paths and
    sigma(v) those among them visiting v.
    """
    from fractions import Fraction

    total = Fraction(0)
    for s in range(g.n):
        for z in range(g.n):
            if s == z or v in (s, z):
                continue
            opts = optimal_paths(g, s, z, star)
            if not opts:
                continue
            through = sum(1 for p in opts if p.visits(v))
            total += Fraction(through, len(opts))
    return total


def sigma_accessor_bf(g: TemporalGraph, s: int, z: int, v: int, star: str) -> int:
    """sigma*(v) for the pair (s, z), honouring sigma(s) := sigma := sigma(z)."""
    opts = optimal_paths(g, s, z, star)
    if v in (s, z):
        return len(opts)
    return sum(1 for p in opts if p.visits(v))
