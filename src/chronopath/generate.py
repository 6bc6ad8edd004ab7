"""Instance generators: random, random-forest, and diamond chains.

The diamond chain is the standard stress family for path counters: a row
of ell four-cycles sharing corner vertices, each traversable two ways, so
with a constant label the (s,z)-path count is exactly 2^ell.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .graph import TemporalGraph, _columns, _normalize
from .rng import child_rng


def _finalize(n: int, edges: set[tuple[int, int, int]]) -> TemporalGraph:
    # Drawn labels name nothing, so no label_names are kept.
    return _normalize(n, *_columns(edges), None)._replace(label_names=None)


def random_temporal_graph(n: int, m: int, t_max: int, seed: int) -> TemporalGraph:
    """m distinct time-edges over n vertices with labels drawn from 1..t_max."""
    if n < 2 or m < 0 or t_max < 1:
        raise InvalidParameterError("need n >= 2, m >= 0, t_max >= 1")
    if m > (n * (n - 1) // 2) * t_max:
        raise InvalidParameterError("more time-edges requested than exist")
    rng = child_rng(seed, "gen-random", n, m, t_max)
    edges: set[tuple[int, int, int]] = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        t = rng.randrange(1, t_max + 1)
        edges.add((min(u, v), max(u, v), t))
    return _finalize(n, edges)


def random_forest_graph(n: int, m: int, t_max: int, seed: int) -> TemporalGraph:
    """Random tree on n vertices carrying m time-edges with random labels."""
    if n < 2 or m < n - 1 or t_max < 1:
        raise InvalidParameterError("need n >= 2, m >= n - 1, t_max >= 1")
    if m > (n - 1) * t_max:
        raise InvalidParameterError("more time-edges requested than the tree can hold")
    rng = child_rng(seed, "gen-forest", n, m, t_max)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    edges: set[tuple[int, int, int]] = set()
    for u, v in tree:  # every tree edge appears at least once
        edges.add((u, v, rng.randrange(1, t_max + 1)))
    while len(edges) < m:
        u, v = tree[rng.randrange(len(tree))]
        edges.add((u, v, rng.randrange(1, t_max + 1)))
    return _finalize(n, edges)


def diamond_chain(length: int, label: int = 1) -> TemporalGraph:
    """Chain of ``length`` diamonds from vertex 0 to the last corner.

    With every time-edge at the same label, the number of temporal paths
    between the endpoints is exactly 2^length.
    """
    if length < 1 or label < 1:
        raise InvalidParameterError("need length >= 1 and label >= 1")
    edges: set[tuple[int, int, int]] = set()
    corner = 0
    next_id = 1
    for _ in range(length):
        w1, w2, nxt = next_id, next_id + 1, next_id + 2
        next_id += 3
        edges.add((corner, w1, label))
        edges.add((corner, w2, label))
        edges.add((w1, nxt, label))
        edges.add((w2, nxt, label))
        corner = nxt
    return _finalize(next_id, edges)


def width_bounded_chain(length: int, width3: bool = True) -> TemporalGraph:
    """Temporal path 0..length with edge (i, i+1) at label i+1.

    With ``width3`` every label also hangs a fresh pendant leaf off the
    chain, raising the vertex-interval-membership width from 2 to 3 while
    the path count and the per-step DP state stay constant; used for
    scaling measurements.
    """
    if length < 1:
        raise InvalidParameterError("need length >= 1")
    edges: set[tuple[int, int, int]] = set()
    for i in range(length):
        edges.add((i, i + 1, i + 1))
    if width3:
        for i in range(length):
            edges.add((i, length + 1 + i, i + 1))
        n = 2 * length + 1
    else:
        n = length + 1
    return _finalize(n, edges)
