"""(Almost-)uniform sampling of temporal paths via a pluggable counter.

Temporal path counting is downward self-reducible: the paths from s
partition by their first time-edge ({s,v}, t), and the block for that edge
is in bijection with the (v,z)-paths of the residual instance obtained by
deleting s and every time-edge earlier than t.  Sampling therefore walks
forward, choosing each next time-edge with probability proportional to the
counter's value on its residual instance.  With an exact counter the
output distribution is exactly uniform (all arithmetic is integer; no
float bias); with an eps'-approximate counter per-step errors compound to
the usual almost-uniform guarantee.

Foremost and fastest paths are sampled inside the pair's optimal windows
(:func:`reductions.optimal_windows`): pick a window proportionally to its
path count and sample inside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import CounterFailureError, NoPathError
# earliest_arrival is unused, but perfbench/tracing.py patches it here.
from .graph import TemporalGraph, TemporalPath, earliest_arrival, restrict  # noqa: F401
from .reductions import Counter, optimal_windows
from .rng import child_rng, weighted_index


@dataclass
class SamplerConfig:
    """The counter that drives the self-reduction, and the master seed."""

    counter: Counter
    seed: int = 0


def _as_integer_weights(weights: list) -> list[int]:
    if all(isinstance(w, int) for w in weights):
        return weights
    fracs = [Fraction(w) for w in weights]
    scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * scale) for f in fracs]


class PathSampler:
    """Reusable sampler for one (graph, s, z) triple.

    Residual counter values are cached across samples: the residual
    instance is determined by (next vertex, label cutoff, visited set), and
    repeated draws hit the same residuals constantly.  Each walk state
    (current vertex, label cutoff, visited set) likewise keeps its options
    and their integer weights, so a repeated step costs one draw.
    """

    def __init__(self, g: TemporalGraph, s: int, z: int, counter: Counter):
        self.g = g
        self.s = s
        self.z = z
        self.counter = counter
        self._cache: dict[tuple[int, int, frozenset[int]], int | Fraction] = {}
        self._steps: dict[tuple[int, int, frozenset[int]], tuple[list, list[int]]] = {}

    def _completions(self, v: int, min_label: int, visited: frozenset[int]):
        key = (v, min_label, visited)
        value = self._cache.get(key)
        if value is None:
            if min_label > self.g.lifetime:
                value = 1 if v == self.z else 0
            else:
                residual = restrict(self.g, min_label, self.g.lifetime, visited)
                value = self.counter(residual, v, self.z)
            self._cache[key] = value
        return value

    def _options(self, cur: int, min_label: int, visited: frozenset[int]):
        """The next time-edges (w, t) out of a walk state, and their integer weights."""
        key = (cur, min_label, visited)
        step = self._steps.get(key)
        if step is None:
            options: list[tuple[int, int]] = []
            weights: list = []
            for w, t in self.g.incident[cur]:
                if t < min_label or w in visited:
                    continue
                weight = self._completions(w, t, visited)
                if weight > 0:
                    options.append((w, t))
                    weights.append(weight)
            step = self._steps[key] = (options, _as_integer_weights(weights))
        return step

    def total_count(self):
        return self._completions(self.s, 1, frozenset())

    def sample(self, rng: random.Random) -> TemporalPath:
        if self.s == self.z:
            return TemporalPath(source=self.s)
        cur, min_label, visited = self.s, 1, frozenset((self.s,))
        steps: list[tuple[int, int, int]] = []
        while cur != self.z:
            options, weights = self._options(cur, min_label, visited)
            if not options:
                if not steps:
                    raise NoPathError(f"no temporal ({self.s},{self.z})-path")
                raise CounterFailureError(
                    "counter reported completions where none exist"
                )
            w, t = options[weighted_index(rng, weights)]
            steps.append((cur, w, t))
            cur, min_label, visited = w, t, visited | {w}
        return TemporalPath(source=self.s, steps=tuple(steps))


def sample_path(g: TemporalGraph, s: int, z: int, config: SamplerConfig) -> TemporalPath:
    """One (almost-)uniform temporal (s,z)-path; NoPathError if none exists."""
    sampler = PathSampler(g, s, z, config.counter)
    if sampler.total_count() <= 0:
        raise NoPathError(f"no temporal ({s},{z})-path")
    return sampler.sample(child_rng(config.seed, "path", s, z))


class OptimalPathSampler:
    """Reusable sampler for *-optimal (s,z)-paths (foremost or fastest)."""

    def __init__(self, g: TemporalGraph, s: int, z: int, star: str, counter: Counter):
        self.s = s
        self.trivial = s == z
        self.window_samplers: list[PathSampler] = []
        self.window_weights: list[int] = []
        for lo, hi in [] if self.trivial else optimal_windows(g, s, z, star):
            sampler = PathSampler(restrict(g, lo, hi), s, z, counter)
            count = sampler.total_count()
            if count > 0:
                self.window_samplers.append(sampler)
                self.window_weights.append(count)

    def sample(self, rng: random.Random) -> TemporalPath:
        if self.trivial:
            return TemporalPath(source=self.s)
        if not self.window_samplers:
            raise NoPathError("no optimal path to sample")
        weights = _as_integer_weights(self.window_weights)
        index = weighted_index(rng, weights) if len(weights) > 1 else 0
        return self.window_samplers[index].sample(rng)


def sample_optimal(
    g: TemporalGraph, s: int, z: int, star: str, config: SamplerConfig
) -> TemporalPath:
    """One (almost-)uniform *-optimal temporal (s,z)-path."""
    sampler = OptimalPathSampler(g, s, z, star, config.counter)
    return sampler.sample(child_rng(config.seed, "optimal", star, s, z))
