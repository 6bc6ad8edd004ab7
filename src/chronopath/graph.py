"""Temporal graph data model: parsing, normalization, reachability.

A temporal graph is a fixed vertex set 0..n-1 plus a set of time-edges
(u, v, t): the undirected edge {u, v} exists exactly at the integer time
label t, with 1 <= t <= lifetime.  A temporal path traverses time-edges
with non-decreasing labels and never revisits a vertex.

All types here are immutable after construction; derived structures are
cached lazily and the objects are safe to share across workers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import EdgeListParseError

TimeEdge = tuple[int, int, int]  # (u, v, t) with u < v


@dataclass(frozen=True)
class TemporalGraph:
    """Undirected simple temporal graph on vertices 0..n-1.

    ``time_edges`` is a sorted tuple of (u, v, t) with u < v and no
    duplicates.  For a normalized graph every label 1..lifetime occurs on
    at least one time-edge; graphs produced by :func:`restrict` keep their
    absolute labels and may have gaps.

    ``vertex_names`` / ``label_names`` map the dense internal ids back to
    the identifiers and labels that appeared in the input, for reporting.
    """

    n: int
    time_edges: tuple[TimeEdge, ...]
    lifetime: int
    vertex_names: tuple[int, ...] | None = None
    label_names: tuple[int, ...] | None = None

    @cached_property
    def edges_at(self) -> dict[int, list[tuple[int, int]]]:
        """Label -> list of static edges active at that label."""
        snap: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for u, v, t in self.time_edges:
            snap[t].append((u, v))
        return dict(snap)

    @cached_property
    def incident(self) -> dict[int, list[tuple[int, int]]]:
        """Vertex -> list of (neighbour, label), sorted by (label, neighbour)."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.n)}
        for u, v, t in self.time_edges:
            adj[u].append((v, t))
            adj[v].append((u, t))
        for v in adj:
            adj[v].sort(key=lambda wt: (wt[1], wt[0]))
        return adj

    @cached_property
    def labels_by_edge(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Static edge (u < v) -> sorted labels at which it is active."""
        lab: dict[tuple[int, int], list[int]] = defaultdict(list)
        for u, v, t in self.time_edges:
            lab[(u, v)].append(t)
        return {e: tuple(sorted(ts)) for e, ts in lab.items()}

    def edge_labels(self, u: int, v: int) -> tuple[int, ...]:
        if u > v:
            u, v = v, u
        return self.labels_by_edge.get((u, v), ())

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


@dataclass(frozen=True)
class StaticGraph:
    """Simple undirected graph; the label-forgetting projection."""

    n: int
    edges: frozenset[tuple[int, int]]  # (u, v) with u < v

    @cached_property
    def adj(self) -> dict[int, list[int]]:
        a: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            a[u].append(v)
            a[v].append(u)
        for v in a:
            a[v].sort()
        return a

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def is_forest(self) -> bool:
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


@dataclass(frozen=True)
class TemporalPath:
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


def _normalize(
    n: int,
    raw_edges: Iterable[tuple[int, int, int]],
    vertex_names: tuple[int, ...] | None,
) -> TemporalGraph:
    """Deduplicate, orient u < v, and remap labels to contiguous 1..T."""
    dedup = set()
    for u, v, t in raw_edges:
        if u == v:
            raise EdgeListParseError(f"loop edge at vertex {u}")
        if t < 1:
            raise EdgeListParseError(f"time label {t} < 1")
        dedup.add((min(u, v), max(u, v), t))
    used_labels = sorted({t for _, _, t in dedup})
    remap = {t: i + 1 for i, t in enumerate(used_labels)}
    edges = tuple(sorted((u, v, remap[t]) for u, v, t in dedup))
    return TemporalGraph(
        n=n,
        time_edges=edges,
        lifetime=len(used_labels),
        vertex_names=vertex_names,
        label_names=tuple(used_labels) if used_labels else None,
    )


def parse(text: str) -> TemporalGraph:
    """Parse an edge-list document: one "u v t" per line, '#' comments.

    Vertex identifiers are non-negative integers and are remapped, in order
    of first appearance, onto dense ids 0..n-1; labels are remapped onto
    1..T with the originals kept in ``label_names``.
    """
    ids: dict[int, int] = {}
    raw: list[tuple[int, int, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise EdgeListParseError(f"line {line_no}: expected 'u v t', got {body!r}")
        try:
            u_name, v_name, t = (int(p) for p in parts)
        except ValueError:
            raise EdgeListParseError(f"line {line_no}: non-integer field in {body!r}") from None
        if u_name < 0 or v_name < 0:
            raise EdgeListParseError(f"line {line_no}: negative vertex identifier")
        if t < 1:
            raise EdgeListParseError(f"line {line_no}: time label must be >= 1")
        if u_name == v_name:
            raise EdgeListParseError(f"line {line_no}: loop edge at vertex {u_name}")
        for name in (u_name, v_name):
            if name not in ids:
                ids[name] = len(ids)
        raw.append((ids[u_name], ids[v_name], t))
    names = tuple(ids)
    return _normalize(len(names), raw, names if names else None)


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
    return _normalize(n, edges, None)


def underlying_graph(g: TemporalGraph) -> StaticGraph:
    """Forget labels: edge {u,v} exists iff some time-edge carries it."""
    return StaticGraph(n=g.n, edges=frozenset((u, v) for u, v, _ in g.time_edges))


def _keep_edges(g: TemporalGraph, edges: list[TimeEdge]) -> TemporalGraph:
    """``g`` with only ``edges`` (a sorted subset of its time-edges) left.

    Vertices and their names stay; labels keep their absolute values, so the
    lifetime becomes the largest remaining label and ``label_names`` is dropped.
    """
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
    for t in sorted(g.edges_at):
        if t < min_label:
            continue
        snap = g.edges_at[t]
        adj: dict[int, list[int]] = defaultdict(list)
        for u, v in snap:
            adj[u].append(v)
            adj[v].append(u)
        queue = [u for u in adj if reach[u] is not None and reach[u] <= t]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                r = reach[w]
                if r is None or r > t:
                    reach[w] = t
                    queue.append(w)
    return reach


def earliest_arrival(g: TemporalGraph, s: int, z: int) -> int | None:
    """Minimum arrival time of a temporal (s,z)-path, or None.

    For s == z the trivial path arrives at time 1 by convention.
    """
    if s == z:
        return 1
    r = earliest_reach(g, s)[z]
    return r


def fastest_duration(g: TemporalGraph, s: int, z: int) -> int | None:
    """Minimum (arrival - start) over temporal (s,z)-paths, or None; 0 for s == z."""
    if s == z:
        return 0
    best: int | None = None
    start_labels = sorted({t for _, t in g.incident[s]})
    for t0 in start_labels:
        arrival = earliest_reach(g, s, min_label=t0)[z]
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
        reach = earliest_reach(g, s)
        matrix.append([reach[w] is not None for w in range(g.n)])
    return matrix
