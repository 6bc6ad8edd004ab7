"""Colour-coding machinery: exact multicoloured counts and the FPTRAS.

``count_multicoloured`` counts temporal (s,z)-paths that use exactly one
vertex from each colour class.  For a fixed ordering pi of the classes the
path shape is s, v_1, ..., v_l, z with v_i in class pi(i), and the count
follows from a right-to-left "completions" table:

    completions_l(u, t)  = number of labels t' >= t with {u,z} active at t'
    completions_i(w, t') = sum over r >= t', u in class pi(i+1), {w,u} in E_r
                           of completions_{i+1}(u, r)
    paths(pi)            = sum over t, v in class pi(1) with {s,v} in E_t
                           of completions_1(v, t)

and the answer is the sum of paths(pi) over all orderings.  The orderings
are explored as a suffix tree so tables shared by many orderings are built
once, and any all-zero table prunes every ordering below it; both are pure
evaluation-order changes.

``estimate_short`` runs the standard colour-coding scheme on top: colour
the non-terminal vertices uniformly with k-1 colours, count colourful
paths exactly, and rescale by the probability (k-1)!/(k-1)^(k-1) that a
fixed set of k-1 internal vertices becomes colourful.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, exp, factorial, log

from .errors import InvalidParameterError, InvariantError
from .graph import TemporalGraph
from .rng import child_rng

DEFAULT_TRIAL_CONSTANT = 3.0


def count_multicoloured(
    g: TemporalGraph, s: int, z: int, colours: dict[int, int], num_colours: int
) -> int:
    """Temporal (s,z)-paths containing exactly one vertex of each colour class.

    ``colours`` maps every vertex of V \\ {s, z} to a class in 1..num_colours;
    classes may be empty (then the count is trivially zero).
    """
    if s == z:
        return 1 if num_colours == 0 else 0
    classes: dict[int, list[int]] = {c: [] for c in range(1, num_colours + 1)}
    for v, c in colours.items():
        if v in (s, z):
            raise ValueError("terminals must stay uncoloured")
        if not 1 <= c <= num_colours:
            raise ValueError(f"colour {c} out of range")
        classes[c].append(v)
    if num_colours == 0:
        return len(g.edge_labels(s, z))
    if any(not members for members in classes.values()):
        return 0

    lifetime = g.lifetime
    incident = g.incident

    def base_table(members: list[int]) -> dict[int, list[int]]:
        """completions for the last class: suffix counts of edges to z."""
        table: dict[int, list[int]] = {}
        for u in members:
            row = [0] * (lifetime + 2)
            for t in g.edge_labels(u, z):
                row[t] += 1
            for t in range(lifetime, 0, -1):
                row[t] += row[t + 1]
            table[u] = row
        return table

    def lift_table(members: list[int], nxt: dict[int, list[int]]) -> dict[int, list[int]]:
        """completions one class earlier, given the next class's table."""
        table: dict[int, list[int]] = {}
        for w in members:
            row = [0] * (lifetime + 2)
            for u, r in incident[w]:
                cell = nxt.get(u)
                if cell is not None:
                    row[r] += cell[r]
            for t in range(lifetime, 0, -1):
                row[t] += row[t + 1]
            table[w] = row
        return table

    total = 0

    def explore(remaining: frozenset[int], nxt: dict[int, list[int]] | None) -> None:
        nonlocal total
        if not remaining:
            # nxt is the completions table of the full suffix = class pi(1).
            if nxt is None:
                raise InvariantError("no completions table at the end of an ordering")
            for v, t in incident[s]:
                cell = nxt.get(v)
                if cell is not None:
                    total += cell[t]
            return
        for c in sorted(remaining):
            members = classes[c]
            table = base_table(members) if nxt is None else lift_table(members, nxt)
            if any(row[1] for row in table.values()):
                explore(remaining - {c}, table)

    explore(frozenset(range(1, num_colours + 1)), None)
    return total


def trial_count(k: int, epsilon: float, delta: float, constant: float) -> int:
    return max(1, ceil(constant * exp(k - 1) * log(1.0 / delta) / (epsilon * epsilon)))


def _check_params(epsilon: float, delta: float) -> None:
    if not epsilon > 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must lie in (0, 1), got {delta}")


def estimate_short(
    g: TemporalGraph,
    s: int,
    z: int,
    k: int,
    epsilon: float,
    delta: float,
    seed: int,
    trial_constant: float = DEFAULT_TRIAL_CONSTANT,
) -> Fraction:
    """Randomized estimate of the number of temporal (s,z)-paths with k edges.

    With probability at least 1 - delta the result is within a factor
    (1 +/- epsilon) of the truth.  k = 1 needs no internal vertices and is
    answered exactly.
    """
    _check_params(epsilon, delta)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if s == z:
        return Fraction(0)
    if k == 1:
        return Fraction(len(g.edge_labels(s, z)))

    internal = [v for v in range(g.n) if v not in (s, z)]
    ell = k - 1
    if len(internal) < ell:
        return Fraction(0)
    trials = trial_count(k, epsilon, delta, trial_constant)
    running = 0
    for trial in range(trials):
        rng = child_rng(seed, "short", k, trial)
        colouring = {v: rng.randrange(1, ell + 1) for v in internal}
        running += count_multicoloured(g, s, z, colouring, ell)
    # A fixed set of ell internal vertices is colourful with probability
    # ell!/ell^ell, so each colourful count underestimates by that factor.
    return Fraction(running * ell**ell, trials * factorial(ell))


def estimate_total(
    g: TemporalGraph,
    s: int,
    z: int,
    epsilon: float,
    delta: float,
    seed: int,
    k_max: int | None = None,
    trial_constant: float = DEFAULT_TRIAL_CONSTANT,
) -> Fraction:
    """Estimate of the total (s,z)-path count by summing per-length estimates.

    Efficient whenever path lengths are bounded, e.g. for small vertex
    cover or treedepth of the underlying graph; the error budget is split
    as (epsilon, delta/K) across the K length classes.
    """
    _check_params(epsilon, delta)
    if k_max is not None and k_max < 1:
        raise InvalidParameterError(f"k_max must be >= 1, got {k_max}")
    if s == z:
        return Fraction(1)
    cap = k_max if k_max is not None else max(g.n - 1, 1)
    per_delta = delta / cap
    total = Fraction(0)
    for k in range(1, cap + 1):
        total += estimate_short(
            g, s, z, k, epsilon, per_delta, seed, trial_constant=trial_constant
        )
    return total
