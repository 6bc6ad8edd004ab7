"""Exact counting parameterised by the timed feedback vertex number.

A timed feedback vertex set X is a set of vertex appearances whose
incident time-edges, once removed, leave a temporal graph whose underlying
graph is a forest.  Every temporal (s,z)-path is then determined by

  * which appearances of X it uses as incoming / outgoing / both / not at
    all, and in which order the used ones are visited, and
  * one residual-forest path segment per consecutive pair of used
    appearances, together with a choice of time labels on that segment.

One rule gives the segment options between consecutive used appearances
(a, ta) and (b, tb).  The heads are the neighbours w of (a, ta) with (w, ta)
not in X if the path leaves a over an edge at ta (class O or B), else a
itself; the tails are the neighbours w of (b, tb) with (w, tb) not in X if
it enters b over an edge at tb (class I or B), else b itself.  Each head p
and tail q whose residual-forest path avoids every used vertex, except an a
or b that is itself the head or tail, gives one option: the temporal
(p,q)-paths of the residual within [ta, tb], on the forest path less the
used vertices.  When the path both leaves a and enters b over edges, ta ==
tb and the edge {a, b} is active at ta, that edge is one more option of
weight 1 and no vertices.

For a fixed classification and order, segments for different consecutive
pairs must be vertex-disjoint; since segments are paths in a forest, their
intersection graph is chordal, and counting the valid combinations is a
weighted multicoloured independent set count with one colour per
consecutive pair.

Every ordering opens with the bracket (s, 1, I) and closes with (z, T, O),
and one admissibility rule covers every vertex, s and z included: a vertex
shows up at most twice, entered then left in adjacent positions.  A path
that leaves s over an appearance (s, t) in X has that appearance directly
after s's bracket, joined to it by the trivial segment [s] of weight 1; a
path that enters z over (z, t) in X likewise has it directly before z's.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, groupby, permutations, product

from .chordal import ChordalInstance, count_weighted_mc_is
from .errors import BudgetExceededError, NotAForestError
from .forest import count_path_labels, static_tree_path, two_core
from .graph import TemporalGraph, TimeEdge, _keep_edges, underlying_graph

Appearance = tuple[int, int]  # (vertex, time)


def delete_appearances(g: TemporalGraph, x: frozenset[Appearance]) -> TemporalGraph:
    """Remove every time-edge with an endpoint appearance in x."""
    return _keep_edges(
        g, [e for e in g.time_edges if (e[0], e[2]) not in x and (e[1], e[2]) not in x]
    )


def is_timed_fvs(g: TemporalGraph, x: frozenset[Appearance]) -> bool:
    return underlying_graph(delete_appearances(g, x)).is_forest


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
            return None if two_core({(u, v) for u, v, _ in edges}) else x
        entry = memo.get(x)
        if entry is None:
            core = two_core({(u, v) for u, v, _ in edges})
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


def _sanitize_tfvs(g: TemporalGraph, x: frozenset[Appearance]) -> frozenset[Appearance]:
    """A minimal timed FVS inside x: in sorted order, drop each appearance not needed.

    An appearance goes when the set without it still leaves a forest, one
    2-core test each.  No-op appearances always go.  An invalid x stays as
    it is, since no subset of it is valid.
    """
    kept = set(x)
    for a in sorted(x):
        kept.discard(a)
        if two_core(
            (u, v) for u, v, t in g.time_edges if (u, t) not in kept and (v, t) not in kept
        ):
            kept.add(a)
    return frozenset(kept)


def count_tfvs(
    g: TemporalGraph,
    s: int,
    z: int,
    tfvs: frozenset[Appearance] | None = None,
) -> int:
    """Number of temporal (s,z)-paths, FPT in the timed feedback vertex number.

    A caller-supplied ``tfvs`` (validated) decouples counting from the
    optimality of the set; any valid set gives the correct count.
    """
    if s == z:
        return 1
    if not g.time_edges:
        return 0
    # Shrinking keeps a set valid or invalid, so one residual both checks a
    # supplied set and is counted on.
    x = _sanitize_tfvs(g, compute_timed_fvs(g) if tfvs is None else tfvs)
    residual = delete_appearances(g, x)
    forest = underlying_graph(residual)
    if not forest.is_forest:
        if tfvs is not None:
            raise ValueError("supplied set is not a timed feedback vertex set")
        raise NotAForestError("residual graph of the timed feedback vertex set has a cycle")

    @cache
    def tree_path(p: int, q: int) -> list[int] | None:
        return static_tree_path(forest, p, q)

    @cache
    def window_count(p: int, q: int, t_lo: int, t_hi: int) -> int:
        """Temporal (p,q)-paths along the residual forest path within [t_lo, t_hi]."""
        path = tree_path(p, q)
        labels = [residual.edge_labels(u, v) for u, v in zip(path, path[1:])]
        return count_path_labels(labels, t_min=t_lo, t_max=t_hi)

    # Appearance (v, t) -> neighbours w over a time-edge at t with (w, t) not in x.
    near: dict[Appearance, list[int]] = {}
    for u, v, t in g.time_edges:
        if (v, t) not in x:
            near.setdefault((u, t), []).append(v)
        if (u, t) not in x:
            near.setdefault((v, t), []).append(u)

    def pattern_weight(order: list[tuple[int, int, str]]) -> int:
        """Chordal multicoloured-IS count for one classification and order."""
        in_order = {v for v, _, _ in order}
        vertex_sets: list[frozenset[int]] = []
        colours: list[int] = []
        weights: list[int] = []
        for colour, ((a, ta, ca), (b, tb, cb)) in enumerate(zip(order, order[1:]), 1):
            uses_a, uses_b = ca in ("O", "B"), cb in ("I", "B")
            heads = near.get((a, ta), ()) if uses_a else (a,)
            tails = near.get((b, tb), ()) if uses_b else (b,)
            blocked = in_order - {v for v, used in ((a, uses_a), (b, uses_b)) if not used}
            before = len(weights)
            for p in heads:
                for q in tails:
                    path = tree_path(p, q)
                    if path is None or not blocked.isdisjoint(path):
                        continue
                    weight = window_count(p, q, ta, tb)
                    if weight:
                        vertex_sets.append(frozenset(path) - in_order)
                        weights.append(weight)
            if uses_a and uses_b and ta == tb and ta in g.edge_labels(a, b):
                vertex_sets.append(frozenset())
                weights.append(1)
            if len(weights) == before:
                return 0
            colours += [colour] * (len(weights) - before)

        m = len(vertex_sets)
        edges = tuple(
            (i, j)
            for i in range(m)
            if vertex_sets[i]
            for j in range(i + 1, m)
            if not vertex_sets[i].isdisjoint(vertex_sets[j])
        )
        instance = ChordalInstance(
            n=m, edges=edges, colour=tuple(colours), weight=tuple(weights)
        )
        return count_weighted_mc_is(instance, len(order) - 1)

    # In time order: an admissible order has non-decreasing times, so only
    # appearances with equal times are permuted among themselves.
    x_elems = sorted(x, key=lambda a: (a[1], a[0]))
    total = 0
    for assignment in product("IOBU", repeat=len(x_elems)):
        middle = [
            (v, t, cls)
            for (v, t), cls in zip(x_elems, assignment)
            if cls != "U"
        ]
        ties = [permutations(tie) for _, tie in groupby(middle, key=lambda a: a[1])]
        for perms in product(*ties):
            order = [(s, 1, "I"), *chain.from_iterable(perms), (z, g.lifetime, "O")]
            if _order_admissible(order):
                total += pattern_weight(order)
    return total


def _order_admissible(order: list[tuple[int, int, str]]) -> bool:
    """Whether a time-sorted order visits each vertex once, or enters and leaves it in turn."""
    by_vertex: dict[int, list[int]] = {}
    for i, (v, _, _) in enumerate(order):
        by_vertex.setdefault(v, []).append(i)
    for positions in by_vertex.values():
        if len(positions) > 2:
            return False
        if len(positions) == 2:
            i, j = positions
            if j != i + 1 or order[i][2] != "I" or order[j][2] != "O":
                return False
    return True
