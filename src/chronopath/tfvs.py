"""Exact counting parameterised by the timed feedback vertex number.

A timed feedback vertex set X is a set of vertex appearances whose
incident time-edges, once removed, leave a temporal graph whose underlying
graph is a forest.  Every temporal (s,z)-path is then determined by

  * which appearances of X it uses as incoming / outgoing / both / not at
    all, and in which order the used ones are visited, and
  * one residual-forest path segment per consecutive pair of used
    appearances, together with a choice of time labels on that segment.

For a fixed classification and order, segments for different consecutive
pairs must be vertex-disjoint; since segments are paths in a forest, their
intersection graph is chordal, and counting the valid combinations is a
weighted multicoloured independent set count with one colour per
consecutive pair.  Segment weights are window-restricted forest-path
counts in the residual graph.

The terminal preprocessing guarantees s has a unique incident time-edge at
label 1 and z a unique one at label T, so the artificial bracket
appearances (s,1) and (z,T) can head and tail every ordering.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Iterable

from .chordal import ChordalInstance, count_weighted_mc_is
from .errors import BudgetExceededError, EnumerationLimitError, NotAForestError
from .forest import count_path_labels
from .graph import TemporalGraph, TimeEdge, _keep_edges, underlying_graph

Appearance = tuple[int, int]  # (vertex, time)


def delete_appearances(g: TemporalGraph, x: frozenset[Appearance]) -> TemporalGraph:
    """Remove every time-edge with an endpoint appearance in x."""
    return _keep_edges(
        g, [e for e in g.time_edges if (e[0], e[2]) not in x and (e[1], e[2]) not in x]
    )


def is_timed_fvs(g: TemporalGraph, x: frozenset[Appearance]) -> bool:
    return underlying_graph(delete_appearances(g, x)).is_forest


def _two_core(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Adjacency of the 2-core: vertices of degree <= 1 peeled until none is left.

    This is the k = 2 case of Batagelj and Zaversnik's O(m) core
    decomposition.  The 2-core is an induced subgraph and holds every
    cycle; it is empty iff the graph is a forest.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    stack = [v for v, nb in adj.items() if len(nb) <= 1]
    while stack:
        v = stack.pop()
        for w in adj.pop(v):
            nb = adj[w]
            nb.discard(v)
            if len(nb) == 1:
                stack.append(w)
    return adj


def _shortest_cycle_edges(core: dict[int, set[int]]) -> list[tuple[int, int]] | None:
    """Edges of a shortest cycle of a graph, given its 2-core; None if a forest.

    The first strictly shortest cycle found scanning edges in sorted order,
    each closed by a BFS that avoids the edge itself.  Edges off the 2-core
    lie on no cycle, so only the 2-core is scanned.  A BFS stops once its
    next level cannot close a strictly shorter cycle, and the scan stops at
    the first triangle.
    """
    adj = {v: sorted(nb) for v, nb in core.items()}
    best: list[tuple[int, int]] | None = None
    for u0, v0 in sorted((u, v) for u, nb in adj.items() for v in nb if u < v):
        parent = {u0: u0}
        frontier = [u0]
        # A v0 reached from this frontier closes a cycle of `closing` edges.
        closing = 2
        found = False
        while frontier and not found:
            if best is not None and closing >= len(best):
                break
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b in parent or (a == u0 and b == v0):
                        continue
                    parent[b] = a
                    if b == v0:
                        found = True
                        break
                    nxt.append(b)
                if found:
                    break
            frontier = nxt
            closing += 1
        if not found:
            continue
        path = [v0]
        while path[-1] != u0:
            path.append(parent[path[-1]])
        best = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
        best.append((u0, v0))
        if len(best) == 3:
            break
    return best


def compute_timed_fvs(
    g: TemporalGraph, budget: int | None = None
) -> frozenset[Appearance]:
    """A minimum-cardinality timed feedback vertex set.

    Iterative-deepening branching: while the residual underlying graph has
    a cycle, some appearance that deletes one of that cycle's time-edges
    must enter the set, so we branch over exactly those appearances, in
    sorted order, on the shortest cycle that :func:`_shortest_cycle_edges`
    returns.  The result is the first minimum set in that branching order.
    Raises BudgetExceededError if no set of size <= budget exists.

    Four rules keep the search cheap; none changes which set is returned
    or when the budget is exceeded:

    (a) The cycle scan runs on the 2-core only, and each BFS in it stops
        as soon as it cannot beat the best cycle so far.
    (b) Each node's residual is its parent's, less the time-edges of the
        one appearance added, cut down to its 2-core (a node's 2-core only
        shrinks further down); no graph objects are built per node.
    (c) A node with no depth left only checks that its residual is a
        forest; it needs no shortest cycle.
    (d) One memo per search, keyed by the set and kept for inner nodes
        only, holds the sorted candidates and the largest remaining depth
        known to fail.  The orderings of one set and the repeated
        shallower levels of iterative deepening then compute candidates
        once.  Failure at depth r implies failure at every depth <= r, so
        pruning on it skips only subtrees that find nothing.  The memo
        holds no residuals, which keeps memory flat.
    """
    removes: dict[Appearance, set[TimeEdge]] = {}
    for e in g.time_edges:
        removes.setdefault((e[0], e[2]), set()).add(e)
        removes.setdefault((e[1], e[2]), set()).add(e)
    memo: dict[frozenset[Appearance], list] = {}

    def search(
        x: frozenset[Appearance], edges: set[TimeEdge], remaining: int
    ) -> frozenset[Appearance] | None:
        if remaining == 0:
            return None if _two_core({(u, v) for u, v, _ in edges}) else x
        entry = memo.get(x)
        if entry is None:
            core = _two_core({(u, v) for u, v, _ in edges})
            if not core:
                return x
            edges = {e for e in edges if e[0] in core and e[1] in core}
            cycle = set(_shortest_cycle_edges(core))
            candidates = tuple(sorted(
                {(w, t) for u, v, t in edges if (u, v) in cycle for w in (u, v)}
            ))
            entry = memo[x] = [candidates, -1]
        elif entry[1] >= remaining:
            return None
        for a in entry[0]:
            result = search(x | {a}, edges - removes[a], remaining - 1)
            if result is not None:
                return result
        entry[1] = remaining
        return None

    edges = set(g.time_edges)
    depth = 0
    while True:
        if budget is not None and depth > budget:
            raise BudgetExceededError(
                f"no timed feedback vertex set of size <= {budget}"
            )
        result = search(frozenset(), edges, depth)
        if result is not None:
            return result
        depth += 1


def preprocess_terminals(
    g: TemporalGraph, s: int, z: int
) -> tuple[TemporalGraph, int, int]:
    """Give the start a unique time-edge at label 1 and the end one at label T.

    Non-conforming terminals get a fresh pendant neighbour which takes over
    the terminal role; the (s,z)-path count is preserved bijectively.
    """
    edges = list(g.time_edges)
    lifetime = max(g.lifetime, 1)
    n = g.n

    s_inc = g.incident[s] if g.n else []
    if len(s_inc) == 1 and s_inc[0][1] == 1:
        s2 = s
    else:
        s2 = n
        n += 1
        edges.append((s, s2, 1))

    z_inc = g.incident[z]
    if z != s2 and len(z_inc) == 1 and z_inc[0][1] == lifetime:
        z2 = z
    else:
        z2 = n
        n += 1
        edges.append((z, z2, lifetime))

    out = TemporalGraph(
        n=n,
        time_edges=tuple(sorted(edges)),
        lifetime=lifetime,
        vertex_names=None,
        label_names=None,
    )
    return out, s2, z2


def _sanitize_tfvs(
    g: TemporalGraph, x: frozenset[Appearance], brackets: tuple[Appearance, Appearance]
) -> frozenset[Appearance]:
    """Drop no-op appearances and the two bracket appearances.

    Appearances incident to no time-edge delete nothing; the brackets sit
    on pendant bridge edges which lie on no cycle.  Either removal keeps
    the set a valid timed feedback vertex set.
    """
    active: set[Appearance] = set()
    for u, v, t in g.time_edges:
        active.add((u, t))
        active.add((v, t))
    return frozenset(a for a in x if a in active and a not in brackets)


def count_tfvs(
    g: TemporalGraph,
    s: int,
    z: int,
    tfvs: frozenset[Appearance] | None = None,
    budget: int | None = None,
) -> int:
    """Number of temporal (s,z)-paths, FPT in the timed feedback vertex number.

    A caller-supplied ``tfvs`` (validated) decouples counting from the
    optimality of the set; any valid set gives the correct count.
    """
    if s == z:
        return 1
    if not g.time_edges:
        return 0
    g2, s2, z2 = preprocess_terminals(g, s, z)
    lifetime = g2.lifetime
    brackets = ((s2, 1), (z2, lifetime))

    if tfvs is None:
        x = compute_timed_fvs(g2, budget=budget)
    else:
        x = frozenset(tfvs)
        if not is_timed_fvs(g2, x):
            raise ValueError("supplied set is not a timed feedback vertex set")
    x = _sanitize_tfvs(g2, x, brackets)

    residual = delete_appearances(g2, x)
    forest = underlying_graph(residual)
    if not forest.is_forest:
        raise NotAForestError("residual graph of the timed feedback vertex set has a cycle")

    # Forest structure for unique-path queries.
    parent = list(range(g2.n))
    depth = [0] * g2.n
    comp = [-1] * g2.n
    for root in range(g2.n):
        if comp[root] != -1:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            a = stack.pop()
            for b in forest.adj[a]:
                if comp[b] == -1:
                    comp[b] = root
                    parent[b] = a
                    depth[b] = depth[a] + 1
                    stack.append(b)

    path_cache: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def forest_path(u: int, v: int) -> tuple[int, ...] | None:
        key = (u, v) if u <= v else (v, u)
        if key in path_cache:
            cached = path_cache[key]
        else:
            if comp[u] != comp[v]:
                cached = None
            else:
                left, right = [u], [v]
                a, b = u, v
                while a != b:
                    if depth[a] >= depth[b]:
                        a = parent[a]
                        left.append(a)
                    else:
                        b = parent[b]
                        right.append(b)
                cached = tuple(left[:-1] + right[::-1])
            path_cache[key] = cached
        if cached is None or not cached:
            return cached
        return cached if cached[0] == u else tuple(reversed(cached))

    residual_labels = residual.labels_by_edge
    window_cache: dict[tuple[int, int, int, int], int] = {}

    def window_count(u: int, v: int, t_lo: int, t_hi: int) -> int:
        """Temporal (u,v)-paths in the residual graph within [t_lo, t_hi]."""
        if t_lo > t_hi:
            return 0
        if u == v:
            return 1
        key = (u, v, t_lo, t_hi)
        if key not in window_cache:
            path = forest_path(u, v)
            if path is None:
                window_cache[key] = 0
            else:
                labels = []
                for a, b in zip(path, path[1:]):
                    labels.append(residual_labels.get((a, b) if a < b else (b, a), ()))
                window_cache[key] = count_path_labels(labels, t_min=t_lo, t_max=t_hi)
        return window_cache[key]

    neighbours_at: dict[Appearance, list[int]] = {}
    for u, v, t in g2.time_edges:
        neighbours_at.setdefault((u, t), []).append(v)
        neighbours_at.setdefault((v, t), []).append(u)
    for key in neighbours_at:
        neighbours_at[key].sort()

    g2_labels = g2.labels_by_edge

    def original_labels(a: int, b: int) -> tuple[int, ...]:
        return g2_labels.get((a, b) if a < b else (b, a), ())

    x_elems = sorted(x)
    max_patterns = 4 ** (len(x_elems) + 2) * factorial(len(x_elems) + 2)
    patterns_seen = 0
    total = 0

    for assignment in product("IOBU", repeat=len(x_elems)):
        middle = [
            (v, t, cls)
            for (v, t), cls in zip(x_elems, assignment)
            if cls != "U"
        ]
        for perm in permutations(middle):
            order = [(s2, 1, "I"), *perm, (z2, lifetime, "O")]
            patterns_seen += 1
            if patterns_seen > max_patterns:
                raise EnumerationLimitError("pattern enumeration exceeded its proven bound")
            if not _order_admissible(order, s2, z2):
                continue
            total += _pattern_weight(
                order,
                x,
                neighbours_at,
                forest_path,
                window_count,
                original_labels,
            )
    return total


def _order_admissible(order: list[tuple[int, int, str]], s2: int, z2: int) -> bool:
    for (v1, t1, _), (v2, t2, _) in zip(order, order[1:]):
        if t1 > t2:
            return False
    by_vertex: dict[int, list[int]] = {}
    for i, (v, _, _) in enumerate(order):
        by_vertex.setdefault(v, []).append(i)
    for v, positions in by_vertex.items():
        if len(positions) == 1:
            continue
        if len(positions) > 2 or v in (s2, z2):
            return False
        i, j = positions
        if j != i + 1:
            return False
        if order[i][2] != "I" or order[j][2] != "O":
            return False
    return True


def _pattern_weight(
    order,
    x: frozenset[Appearance],
    neighbours_at,
    forest_path,
    window_count,
    original_labels,
) -> int:
    """Chordal multicoloured-IS count for one classification and order."""
    in_order = {v for v, _, _ in order}
    k = len(order) - 1
    vertex_sets: list[frozenset[int]] = []
    colours: list[int] = []
    weights: list[int] = []

    for i in range(k):
        a, ta, ca = order[i]
        b, tb, cb = order[i + 1]
        left_out = ca in ("O", "B")
        right_in = cb in ("I", "B")
        found_any = False

        def add(vset: frozenset[int], weight: int) -> None:
            nonlocal found_any
            vertex_sets.append(vset)
            colours.append(i + 1)
            weights.append(weight)
            found_any = True

        if left_out and right_in:
            for w1 in neighbours_at.get((a, ta), ()):
                if (w1, ta) in x:
                    continue
                for w2 in neighbours_at.get((b, tb), ()):
                    if (w2, tb) in x:
                        continue
                    path = forest_path(w1, w2)
                    if path is None or in_order.intersection(path):
                        continue
                    wt = window_count(w1, w2, ta, tb)
                    if wt:
                        add(frozenset(path), wt)
            if ta == tb and ta in original_labels(a, b):
                add(frozenset(), 1)
        elif left_out:
            for w1 in neighbours_at.get((a, ta), ()):
                if (w1, ta) in x or w1 == b:
                    continue
                path = forest_path(w1, b)
                if path is None or (in_order - {b}).intersection(path):
                    continue
                wt = window_count(w1, b, ta, tb)
                if wt:
                    add(frozenset(path), wt)
            if ta in original_labels(a, b) and (b, ta) not in x:
                add(frozenset(), 1)
        elif right_in:
            for w2 in neighbours_at.get((b, tb), ()):
                if (w2, tb) in x or w2 == a:
                    continue
                path = forest_path(a, w2)
                if path is None or (in_order - {a}).intersection(path):
                    continue
                wt = window_count(a, w2, ta, tb)
                if wt:
                    add(frozenset(path), wt)
            if tb in original_labels(a, b) and (a, tb) not in x:
                add(frozenset(), 1)
        else:
            if a == b:
                add(frozenset(), 1)
            else:
                path = forest_path(a, b)
                if (
                    path is not None
                    and len(path) >= 3
                    and not (in_order - {a, b}).intersection(path)
                ):
                    wt = window_count(a, b, ta, tb)
                    if wt:
                        add(frozenset(path), wt)
                direct = sum(
                    1
                    for t in original_labels(a, b)
                    if ta <= t <= tb and (a, t) not in x and (b, t) not in x
                )
                if direct:
                    add(frozenset(), direct)

        if not found_any:
            return 0

    m = len(vertex_sets)
    edges = []
    for p in range(m):
        if not vertex_sets[p]:
            continue
        for q in range(p + 1, m):
            if vertex_sets[p].intersection(vertex_sets[q]):
                edges.append((p, q))
    instance = ChordalInstance(
        n=m, edges=tuple(edges), colour=tuple(colours), weight=tuple(weights)
    )
    return count_weighted_mc_is(instance, k)
