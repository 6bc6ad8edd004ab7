"""Temporal graph data model: parsing, normalization, reachability.

A temporal graph is a fixed vertex set 0..n-1 plus a set of time-edges
(u, v, t): the undirected edge {u, v} exists exactly at the integer time
label t, with 1 <= t <= lifetime.  A temporal path traverses time-edges
with non-decreasing labels and never revisits a vertex.

Fields are immutable after construction; derived structures are cached on
the object when first used, and the reach-sweep cache grows with each new
(source, label) query.  Every construction site sorts ``time_edges``, and
the derived indices are read off that order in linear passes.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import cached_property
from itertools import groupby
from operator import eq, itemgetter
from typing import Collection, Iterable, NamedTuple

from .errors import EdgeListParseError

TimeEdge = tuple[int, int, int]  # (u, v, t) with u < v
_EDGE, _LABEL = itemgetter(0, 1), itemgetter(2)


# A NamedTuple gives value equality and read-only fields; a subclass of it
# also has an instance __dict__, which the cached properties need.
class _TemporalGraphFields(NamedTuple):
    n: int
    time_edges: tuple[TimeEdge, ...]
    lifetime: int
    vertex_names: tuple[int, ...] | None = None
    label_names: tuple[int, ...] | None = None


class TemporalGraph(_TemporalGraphFields):
    """Undirected simple temporal graph on vertices 0..n-1.

    ``time_edges`` is a sorted tuple of (u, v, t) with u < v and no
    duplicates, and the derived indices rely on that order.  For a
    normalized graph every label 1..lifetime occurs on at least one
    time-edge; graphs produced by :func:`restrict` keep their absolute
    labels and may have gaps.

    ``vertex_names`` / ``label_names`` map the dense internal ids back to
    the identifiers and labels that appeared in the input, for reporting.
    """

    @cached_property
    def snapshots(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """Label -> {vertex: sorted neighbours at that label}, labels ascending.

        Sorted by label alone, each label's edges keep their (u, v) order, so
        neighbours come out ascending.  Shared one-neighbour tuples hold 0.44x
        the memory of a list per entry on a 100,000-vertex forest.
        """
        ones: dict[int, tuple[int]] = {}
        snaps = {}
        for t, edges in groupby(sorted(self.time_edges, key=_LABEL), _LABEL):
            adj: dict[int, list[int]] = {}
            for u, v, _ in edges:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            snaps[t] = {
                x: ones.setdefault(nb[0], (nb[0],)) if len(nb) == 1 else tuple(nb)
                for x, nb in adj.items()
            }
        return snaps

    @cached_property
    def incident(self) -> dict[int, list[tuple[int, int]]]:
        """Vertex -> list of (neighbour, label), sorted by (label, neighbour)."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.n)}
        for t, snap in self.snapshots.items():
            for u, nbrs in snap.items():
                adj[u] += [(v, t) for v in nbrs]
        return adj

    @cached_property
    def _underlying(self) -> StaticGraph:
        """The label-forgetting projection, built once; callers must not mutate it."""
        return StaticGraph(self.n, tuple(dict.fromkeys(map(_EDGE, self.time_edges))))

    @cached_property
    def _sweeps(self) -> dict[tuple[int, int], list[int | None]]:
        """(s, min_label) -> earliest_reach(self, s, min_label), filled by _reach_from."""
        return {}

    def edge_labels(self, u: int, v: int) -> tuple[int, ...]:
        """Sorted labels of {u, v}: one run of the time-edges, found by bisection."""
        if u > v:
            u, v = v, u
        edges = self.time_edges
        i = bisect_left(edges, (u, v))
        return tuple(map(_LABEL, edges[i : bisect_left(edges, (u, v + 1), i)]))

    def vertex_name(self, v: int) -> int:
        return self.vertex_names[v] if self.vertex_names is not None else v

    def resolve_vertex(self, name: int) -> int:
        """Map an input-file vertex identifier back to its dense id."""
        if self.vertex_names is None:
            if 0 <= name < self.n:
                return name
            raise KeyError(name)
        try:
            return self.vertex_names.index(name)
        except ValueError:
            raise KeyError(name) from None


class _StaticGraphFields(NamedTuple):
    n: int
    sorted_edges: tuple[tuple[int, int], ...]  # distinct (u, v) with u < v, sorted


class StaticGraph(_StaticGraphFields):
    """Simple undirected graph; the label-forgetting projection."""

    @cached_property
    def adj(self) -> list[list[int]]:
        """Vertex -> neighbours, sorted because the edges are."""
        a: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.sorted_edges:
            a[u].append(v)
            a[v].append(u)
        return a

    @cached_property
    def is_forest(self) -> bool:
        edges = self.sorted_edges
        return not edges or len(edges) < self.n and not closing_edges(self.n, edges)


def closing_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges that close a cycle when ``edges`` join vertices 0..n-1 in order;
    the rest form a spanning forest.  Union-find with path halving."""
    parent = list(range(n))
    closing = []
    for u, v in edges:
        ru, rv = u, v
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            closing.append((u, v))
        else:
            parent[ru] = rv
    return closing


class TemporalPath(NamedTuple):
    """A temporal (source, target)-path as a sequence of traversed steps.

    Each step is (from, to, label).  The empty step sequence represents the
    trivial path that stays at ``source``.
    """

    source: int
    steps: tuple[tuple[int, int, int], ...] = ()

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def target(self) -> int:
        return self.steps[-1][1] if self.steps else self.source

    def vertices(self) -> tuple[int, ...]:
        return (self.source,) + tuple(step[1] for step in self.steps)

    def visits(self, v: int) -> bool:
        return v in self.vertices()

    @property
    def start_time(self) -> int | None:
        return self.steps[0][2] if self.steps else None

    @property
    def arrival_time(self) -> int | None:
        return self.steps[-1][2] if self.steps else None


def validate_path(g: TemporalGraph, path: TemporalPath) -> None:
    """Shared validator: raise ValueError unless ``path`` is a temporal path of ``g``."""
    verts = path.vertices()
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated vertex in {verts}")
    if not all(0 <= v < g.n for v in verts):
        raise ValueError("vertex out of range")
    prev_vertex, prev_label = path.source, None
    for u, v, t in path.steps:
        if u != prev_vertex:
            raise ValueError("steps are not contiguous")
        if t not in g.edge_labels(u, v):
            raise ValueError(f"time-edge ({u},{v},{t}) not in graph")
        if prev_label is not None and t < prev_label:
            raise ValueError("labels decrease along the path")
        prev_vertex, prev_label = v, t


def _normalize(n: int, us, vs, ts, vertex_names: tuple[int, ...] | None) -> TemporalGraph:
    """Time-edges from u, v, t columns (no loops, labels >= 1): labels remapped onto
    1..T, then oriented u < v and sorted in one pass, which makes duplicates neighbours."""
    labels = sorted(set(ts))
    if labels and labels[-1] != len(labels):
        ts = map(dict(zip(labels, range(1, len(labels) + 1))).__getitem__, ts)
    edges = sorted((u, v, t) if u < v else (v, u, t) for u, v, t in zip(us, vs, ts))
    edges = [e for e, _ in groupby(edges)]
    return TemporalGraph(n, tuple(edges), len(labels), vertex_names, tuple(labels) or None)


def _columns(edges: Collection[TimeEdge]) -> tuple[Iterable[int], Iterable[int], list[int]]:
    """The u, v and t columns of some time-edges, without copying the first two."""
    return map(itemgetter(0), edges), map(itemgetter(1), edges), list(map(_LABEL, edges))


def _first_bad_line(lines: list[str]) -> EdgeListParseError:
    """The error for the first line of an edge-list document that breaks the format."""
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            return EdgeListParseError(f"line {line_no}: expected 'u v t', got {line.strip()!r}")
        try:
            u_name, v_name, t = (int(p) for p in parts)
        except ValueError:
            return EdgeListParseError(f"line {line_no}: non-integer field in {line.strip()!r}")
        if u_name < 0 or v_name < 0:
            return EdgeListParseError(f"line {line_no}: negative vertex identifier")
        if t < 1:
            return EdgeListParseError(f"line {line_no}: time label must be >= 1")
        if u_name == v_name:
            return EdgeListParseError(f"line {line_no}: loop edge at vertex {u_name}")
    raise AssertionError("no bad line in a document that failed a check")


def parse(text: str) -> TemporalGraph:
    """Parse an edge-list document: one "u v t" per line, '#' comments.

    Vertex identifiers are non-negative integers and are remapped, in order
    of first appearance, onto dense ids 0..n-1; labels are remapped onto
    1..T with the originals kept in ``label_names``.  The checks run over
    whole columns; only a document that fails one is walked line by line,
    to name its first bad line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
        text = "\n".join(lines)
    try:
        if not set(map(len, map(str.split, lines))) <= {0, 3}:
            raise ValueError
        fields = list(map(int, text.split()))
        labels = fields[2::3]
        del fields[2::3]  # now u0 v0 u1 v1 ...
        if fields and (
            min(fields) < 0 or min(labels) < 1 or any(map(eq, fields[::2], fields[1::2]))
        ):
            raise ValueError
    except ValueError:
        raise _first_bad_line(lines) from None
    names = tuple(dict.fromkeys(fields))
    ids = dict(zip(names, range(len(names))))
    dense = list(map(ids.__getitem__, fields))
    return _normalize(len(names), dense[::2], dense[1::2], labels, names or None)


def to_text(g: TemporalGraph) -> str:
    """Canonical edge-list serialization using dense ids and normalized labels."""
    lines = [f"{u} {v} {t}" for u, v, t in g.time_edges]
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(g: TemporalGraph) -> str:
    return json.dumps({"n": g.n, "T": g.lifetime, "edges": [list(e) for e in g.time_edges]})


def from_json(text: str) -> TemporalGraph:
    doc = json.loads(text)
    try:
        n = doc["n"]
        edges = [(u, v, t) for u, v, t in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise EdgeListParseError(f"bad JSON graph document: {exc}") from None
    # type(x) is int, unlike isinstance, also rejects true and false.
    if type(n) is not int or n < 0 or any(type(x) is not int for e in edges for x in e):
        raise EdgeListParseError(
            'bad JSON graph document: "n" and every edge field must be integers, "n" >= 0'
        )
    if any(not (0 <= u < n and 0 <= v < n) for u, v, _ in edges):
        raise EdgeListParseError("vertex id out of range in JSON document")
    if "T" in doc:
        # T = 0 is the lifetime to_json writes for a graph with no edges.
        lifetime = doc["T"]
        top = max((t for _, _, t in edges), default=0)
        if type(lifetime) is not int or lifetime < max(top, 0):
            raise EdgeListParseError(
                f'bad JSON graph document: "T" must be an integer >= every time label, '
                f"got {lifetime!r}"
            )
    for u, v, t in edges:
        if u == v:
            raise EdgeListParseError(f"loop edge at vertex {u}")
        if t < 1:
            raise EdgeListParseError(f"time label {t} < 1")
    return _normalize(n, *_columns(edges), None)


def underlying_graph(g: TemporalGraph) -> StaticGraph:
    """Forget labels: edge {u,v} exists iff some time-edge carries it.

    The result is cached on ``g`` and shared by every caller.
    """
    return g._underlying


def _keep_edges(g: TemporalGraph, edges: list[TimeEdge]) -> TemporalGraph:
    """``g`` with only ``edges`` (a sorted subset of its time-edges) left.

    Vertices and their names stay; labels keep their absolute values, so the
    lifetime becomes the largest remaining label and ``label_names`` is dropped.
    A cut that keeps every time-edge is ``g`` itself, with its cached indices.
    """
    if len(edges) == len(g.time_edges):
        return g
    return TemporalGraph(
        n=g.n,
        time_edges=tuple(edges),
        lifetime=max((t for _, _, t in edges), default=0),
        vertex_names=g.vertex_names,
        label_names=None,
    )


def restrict(
    g: TemporalGraph,
    t_lo: int,
    t_hi: int,
    forbidden: Iterable[int] = (),
) -> TemporalGraph:
    """Keep time-edges with label in [t_lo, t_hi] avoiding ``forbidden`` vertices.

    Labels are deliberately NOT renormalized: callers rely on absolute times.
    """
    if not 1 <= t_lo <= t_hi:
        raise ValueError(f"bad window [{t_lo}, {t_hi}]")
    bad = frozenset(forbidden)
    return _keep_edges(
        g,
        [e for e in g.time_edges if t_lo <= e[2] <= t_hi and e[0] not in bad and e[1] not in bad],
    )


def without_static_edge(g: TemporalGraph, u: int, v: int) -> TemporalGraph:
    """Drop every appearance of the static edge {u, v}."""
    if u > v:
        u, v = v, u
    return _keep_edges(g, [e for e in g.time_edges if (e[0], e[1]) != (u, v)])


def earliest_reach(g: TemporalGraph, s: int, min_label: int = 1) -> list[int | None]:
    """Earliest arrival time at every vertex for paths starting at s.

    A single chronological sweep over the labels; within one label the
    snapshot is flooded to a fixpoint because labels may repeat along a
    path (non-strict model).  reach[s] is 0, meaning "present from the
    start"; unreachable vertices stay None.
    """
    reach: list[int | None] = [None] * g.n
    reach[s] = 0
    for t, adj in g.snapshots.items():
        if t < min_label:
            continue
        queue = [u for u in adj if reach[u] is not None and reach[u] <= t]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                r = reach[w]
                if r is None or r > t:
                    reach[w] = t
                    queue.append(w)
    return reach


def _reach_from(g: TemporalGraph, s: int, min_label: int = 1) -> list[int | None]:
    """earliest_reach(g, s, min_label), swept once per graph; callers only read it."""
    key = (s, min_label)
    reach = g._sweeps.get(key)
    if reach is None:
        reach = g._sweeps[key] = earliest_reach(g, s, min_label)
    return reach


def earliest_arrival(g: TemporalGraph, s: int, z: int) -> int | None:
    """Minimum arrival time of a temporal (s,z)-path, or None.

    For s == z the trivial path arrives at time 1 by convention.
    """
    if s == z:
        return 1
    return _reach_from(g, s)[z]


def fastest_duration(g: TemporalGraph, s: int, z: int) -> int | None:
    """Minimum (arrival - start) over temporal (s,z)-paths, or None; 0 for s == z."""
    if s == z:
        return 0
    best: int | None = None
    for t0 in dict.fromkeys(t for _, t in g.incident[s]):
        arrival = _reach_from(g, s, t0)[z]
        if arrival is None:
            continue
        d = arrival - t0
        if best is None or d < best:
            best = d
            if best == 0:
                break
    return best


def connectivity_matrix(g: TemporalGraph) -> list[list[bool]]:
    """a[v][w] true iff a temporal (v,w)-path exists; diagonal true."""
    matrix: list[list[bool]] = []
    for s in range(g.n):
        reach = _reach_from(g, s)
        matrix.append([reach[w] is not None for w in range(g.n)])
    return matrix



def region_mask(nbr: list[int], start: int, allowed: int) -> int:
    """Vertices in ``allowed`` that ``start`` reaches through it; ``nbr`` holds bit masks."""
    seen, todo = 0, nbr[start] & allowed
    while todo:
        low = todo & -todo
        seen |= low
        todo = (todo | nbr[low.bit_length() - 1] & allowed) & ~seen
    return seen


def sum_walk_states(root, expand, memo: dict) -> int:
    """Worth of ``root``: ``expand(state)`` gives ``(children, base)``, a state is worth
    ``base`` plus its children's, and ``memo`` keeps each state's worth (no recursion)."""
    if root in memo:
        return memo[root]
    stack = [(root, *expand(root))]
    while stack:
        state, children, base = stack[-1]
        for child in children:
            if child not in memo:
                stack.append((child, *expand(child)))
                break
        else:
            memo[state] = base + sum(memo[c] for c in children)
            stack.pop()
    return memo[root]
