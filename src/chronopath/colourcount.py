"""Colour-coding machinery: exact multicoloured counts and the FPTRAS.

``count_multicoloured`` counts temporal (s,z)-paths that use exactly one
vertex from each colour class, with the colour-subset DP of Alon, Yuster
and Zwick ("Color-coding", JACM 1995).  For a set M of colours and a vertex
w whose colour is not in M, let C_M(w, t) be the number of temporal
(w,z)-paths that leave w at a label >= t and whose internal vertices are
one vertex of each colour in M:

    C_0(w, t) = number of labels t' >= t with {w,z} active at t'
    C_M(w, t) = sum over r >= t, u with colour c(u) in M, {w,u} in E_r
                of C_{M - c(u)}(u, r)
    answer    = sum over t, v with {s,v} in E_t of C_{all - c(v)}(v, t)

Tables are built for the masks M in increasing order, 2^(k-1) - 1 of them
for k-1 colours, and each holds rows (suffix sums over t) only for the
vertices with at least one completion.

``estimate_short`` runs the standard colour-coding scheme on top: colour
the non-terminal vertices uniformly with k-1 colours, count colourful
paths exactly, and rescale by the probability (k-1)!/(k-1)^(k-1) that a
fixed set of k-1 internal vertices becomes colourful.  Trials inducing
one partition of the pair's cut (``forest.pair_cut``) share a DP.  An
estimate whose tables times time-edges are predicted above WORK_BUDGET
raises BudgetExceededError before its first trial.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, exp, factorial, log
from random import Random

from .errors import BudgetExceededError, InvalidParameterError
from .forest import pair_cut
from .graph import TemporalGraph
from .rng import derive_seed

DEFAULT_TRIAL_CONSTANT = 3.0
# Most colour-subset tables times time-edges one estimate may predict: 0.1-0.3
# us each on random graphs of 8-24 vertices, so 10-30 s (2-core VM, Python 3.11.7).
# Predicted per trial on the whole graph, it can only over-predict the DPs on the cut.
WORK_BUDGET = 10**8


def count_multicoloured(
    g: TemporalGraph, s: int, z: int, colours: dict[int, int], num_colours: int
) -> int:
    """Temporal (s,z)-paths containing exactly one vertex of each colour class.

    ``colours`` maps vertices other than s and z to classes 1..num_colours; an
    uncoloured vertex is never internal.  Empty classes make the count zero.
    """
    if s == z:
        return 1 if num_colours == 0 else 0
    bit = [0] * g.n
    for v, c in colours.items():
        if v in (s, z):
            raise ValueError("terminals must stay uncoloured")
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if not 1 <= c <= num_colours:
            raise ValueError(f"colour {c} out of range")
        bit[v] = 1 << (c - 1)
    if num_colours == 0:
        return len(g.edge_labels(s, z))
    if len(set(colours.values())) < num_colours:
        return 0

    lifetime = g.lifetime
    incident = g.incident
    full = (1 << num_colours) - 1
    # tables[mask][w] is the row C_mask(w, .) of the module docstring, kept
    # only for the w with a completion; a mask is read after its subsets.
    tables: list[dict[int, list[int]]] = []
    for mask in range(full):
        table: dict[int, list[int]] = {}
        for w in colours:
            if bit[w] & mask:
                continue
            row = None
            for u, r in incident[w]:
                if mask:
                    cell = tables[mask ^ bit[u]].get(u) if bit[u] & mask else None
                    gain = cell[r] if cell is not None else 0
                else:
                    gain = 1 if u == z else 0
                if gain:
                    if row is None:
                        row = [0] * (lifetime + 2)
                    row[r] += gain
            if row is not None:
                for t in range(lifetime, 0, -1):
                    row[t] += row[t + 1]
                table[w] = row
        tables.append(table)

    total = 0
    for v, t in incident[s]:
        if bit[v]:
            cell = tables[full ^ bit[v]].get(v)
            if cell is not None:
                total += cell[t]
    return total


def trial_count(k: int, epsilon: float, delta: float, constant: float) -> int:
    return max(1, ceil(constant * exp(k - 1) * log(1.0 / delta) / (epsilon * epsilon)))


def _check_params(epsilon: float, delta: float) -> None:
    if not epsilon > 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must lie in (0, 1), got {delta}")


def _check_work(g: TemporalGraph, ks: range, epsilon: float, delta: float) -> None:
    """Refuse, before any trial, an estimate over lengths ``ks`` above WORK_BUDGET.

    Lengths that draw no colouring (k = 1, or more internal vertices than
    the graph has besides s and z) cost nothing.
    """
    tables = sum(
        trial_count(k, epsilon, delta, DEFAULT_TRIAL_CONSTANT) << (k - 1)
        for k in ks
        if 2 <= k <= g.n - 1
    )
    work = tables * len(g.time_edges)
    if work > WORK_BUDGET:
        raise BudgetExceededError(
            f"the estimate needs {tables:,} colour-subset tables (trials x 2^(k-1) summed "
            f"over path lengths k) x {len(g.time_edges):,} time-edges = {work:,}, over the "
            f"budget of {WORK_BUDGET:,}; estimate shorter paths (--k, --k-max)"
        )


def estimate_short(
    g: TemporalGraph,
    s: int,
    z: int,
    k: int,
    epsilon: float,
    delta: float,
    seed: int,
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
    _check_work(g, range(k, k + 1), epsilon, delta)
    trials = trial_count(k, epsilon, delta, DEFAULT_TRIAL_CONSTANT)
    cut, reach = pair_cut(g, s, z)
    running = 0
    if len(reach) >= ell:
        # Trial t colours internal[i] by its stream's i-th randrange(1, ell + 1), inlined;
        # draws stop at the cut's last vertex, and equal partitions of the cut share a DP.
        in_cut = [v in reach for v in internal[: internal.index(reach[-1]) + 1]]
        rng, bits = Random(), ell.bit_length()
        counts: dict[tuple[int, ...], int] = {}
        for trial in range(trials):
            rng.seed(derive_seed(seed, "short", k, trial))
            names: dict[int, int] = {}
            part = []
            for wanted in in_cut:
                while (r := rng.getrandbits(bits)) >= ell:
                    pass
                if wanted:
                    part.append(names.setdefault(r, len(names) + 1))
            key = tuple(part)
            if len(names) == ell and key not in counts:
                counts[key] = count_multicoloured(cut, s, z, dict(zip(reach, key)), ell)
            running += counts.get(key, 0)
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
    _check_work(g, range(1, cap + 1), epsilon, per_delta)
    total = Fraction(0)
    for k in range(1, cap + 1):
        total += estimate_short(g, s, z, k, epsilon, per_delta, seed)
    return total
