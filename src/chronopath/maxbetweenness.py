"""Randomized estimation of the maximum temporal betweenness centrality.

The estimator samples *-optimal paths for every temporally connected
ordered pair, tallies internal-vertex visits per vertex, and reports the
best tally divided by the per-pair sample count.  Instances on which every
optimal path is a direct edge are detected exactly up front (the answer is
then zero); on the remaining instances some vertex has betweenness at
least 1/(n(T+1)), which is what makes the sample size sufficient.

The worst-case sample count from the analysis, 300000 * eps^-3 * (T+1) *
n^3 * ln n, is far beyond desk scale; ``ell_cap`` bounds it for practical
runs and the acceptance suite measures the empirical success rate instead
of trusting the constant.  An estimate whose predicted draws exceed
``DRAW_BUDGET`` raises ``BudgetExceededError`` before it samples.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, log, log10
from typing import NamedTuple

from .errors import BudgetExceededError, InvalidParameterError
from .graph import (
    TemporalGraph,
    connectivity_matrix,
    earliest_arrival,
    fastest_duration,
    without_static_edge,
)
from .reductions import Counter
from .rng import child_rng
from .sampling import OptimalPathSampler

# Amplification runs: ceil(8 * log10(1/delta)), i.e. 8 runs at delta = 0.1.
AMPLIFICATION_CONSTANT = 8.0

# Most path draws one estimate may make (ell x pairs x runs); above it the
# estimate is refused before sampling.  At a few microseconds a draw this is
# about a minute of sampling.
DRAW_BUDGET = 10**7


class BetweennessEstimate(NamedTuple):
    """Estimated max betweenness with the argmax vertex and effort spent."""

    value: Fraction
    argmax_vertex: int | None
    ell: int
    trials: int


def zero_check(g: TemporalGraph, star: str) -> bool:
    """True iff no *-optimal path of any ordered pair has an internal vertex.

    Per pair: solve once, then delete all appearances of the direct edge
    {s,z} and solve again; an equally good path in the pruned instance must
    have at least one internal vertex.
    """
    solve = earliest_arrival if star == "foremost" else fastest_duration
    if star not in ("foremost", "fastest"):
        raise ValueError(f"unknown optimality criterion {star!r}")
    for s in range(g.n):
        for z in range(g.n):
            if s == z:
                continue
            best = solve(g, s, z)
            if best is None:
                continue
            pruned = without_static_edge(g, s, z)
            if solve(pruned, s, z) == best:
                return False
    return True


def formula_ell(g: TemporalGraph, epsilon: float) -> int:
    n = max(g.n, 2)
    return ceil(300_000 * epsilon**-3 * (g.lifetime + 1) * n**3 * log(n))


def amplification_runs(delta: float) -> int:
    return max(1, ceil(AMPLIFICATION_CONSTANT * log10(1.0 / delta)))


def estimate_max_betweenness(
    g: TemporalGraph,
    star: str,
    epsilon: float,
    delta: float,
    counter: Counter,
    seed: int = 0,
    ell_cap: int | None = None,
    amplify: bool = True,
) -> BetweennessEstimate:
    """Estimate max_v of the *-temporal betweenness, with argmax vertex.

    Runs the sampling procedure ceil(8 * log10(1/delta)) times and returns
    the run with the median value (lower median); ``amplify=False`` gives
    the single-run estimator whose success probability is at least 2/3.
    """
    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must lie in (0, 1), got {delta}")
    if ell_cap is not None and ell_cap < 1:
        raise InvalidParameterError(f"ell_cap must be at least 1, got {ell_cap}")

    ell = formula_ell(g, epsilon)
    if ell_cap is not None:
        ell = min(ell, ell_cap)

    if zero_check(g, star):
        return BetweennessEstimate(
            value=Fraction(0), argmax_vertex=None, ell=ell, trials=0
        )

    matrix = connectivity_matrix(g)
    pairs = [(s, z) for s in range(g.n) for z in range(g.n) if s != z and matrix[s][z]]
    runs = amplification_runs(delta) if amplify else 1
    draws = ell * len(pairs) * runs
    if draws > DRAW_BUDGET:
        raise BudgetExceededError(
            f"the estimate needs {draws:,} path draws ({ell:,} per pair, {len(pairs)} pairs, "
            f"{runs} runs), over the budget of {DRAW_BUDGET:,}; cap ell lower (--ell-cap)"
        )
    samplers = [OptimalPathSampler(g, s, z, star, counter) for s, z in pairs]

    outcomes: list[tuple[Fraction, int]] = []
    for run in range(runs):
        rng = child_rng(seed, "betweenness", star, run)
        tally = [0] * g.n
        for sampler in samplers:
            for _ in range(ell):
                # The targets of all but the last step are the internal vertices.
                for _, v, _ in sampler.walk(rng)[:-1]:
                    tally[v] += 1
        best_vertex = max(range(g.n), key=lambda v: (tally[v], -v))
        outcomes.append((Fraction(tally[best_vertex], ell), best_vertex))

    outcomes.sort(key=lambda pair: pair[0])
    value, argmax = outcomes[(len(outcomes) - 1) // 2]
    return BetweennessEstimate(value=value, argmax_vertex=argmax, ell=ell, trials=runs)
