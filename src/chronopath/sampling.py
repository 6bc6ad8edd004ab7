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

Foremost and fastest paths are sampled by first applying the optimal-count
restrictions: cap the lifetime at the earliest arrival, or pick a fastest
window proportionally to its path count and sample inside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import CounterFailureError, NoPathError
from .graph import TemporalGraph, TemporalPath, earliest_arrival, restrict
from .reductions import Counter, _fastest_windows
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
    repeated draws hit the same residuals constantly.
    """

    def __init__(self, g: TemporalGraph, s: int, z: int, counter: Counter):
        self.g = g
        self.s = s
        self.z = z
        self.counter = counter
        self._cache: dict[tuple[int, int, frozenset[int]], int | Fraction] = {}

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

    def total_count(self):
        return self._completions(self.s, 1, frozenset())

    def sample(self, rng: random.Random) -> TemporalPath:
        if self.s == self.z:
            return TemporalPath(source=self.s)
        cur = self.s
        min_label = 1
        visited: set[int] = set()
        steps: list[tuple[int, int, int]] = []
        while cur != self.z:
            visited_key = frozenset(visited | {cur})
            options: list[tuple[int, int]] = []
            weights: list = []
            for w, t in self.g.incident[cur]:
                if t < min_label or w in visited or w == cur:
                    continue
                weight = self._completions(w, t, visited_key)
                if weight > 0:
                    options.append((w, t))
                    weights.append(weight)
            if not options:
                if not steps:
                    raise NoPathError(f"no temporal ({self.s},{self.z})-path")
                raise CounterFailureError(
                    "counter reported completions where none exist"
                )
            choice = weighted_index(rng, _as_integer_weights(weights))
            w, t = options[choice]
            steps.append((cur, w, t))
            visited.add(cur)
            cur = w
            min_label = t
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
        if star not in ("foremost", "fastest"):
            raise ValueError(f"unknown optimality criterion {star!r}")
        self.star = star
        self.s = s
        self.window_samplers: list[PathSampler] = []
        self.window_weights: list[int] = []
        if star == "foremost":
            t_star = earliest_arrival(g, s, z) if s != z else 1
            if s != z and t_star is not None:
                restricted = restrict(g, 1, t_star)
                sampler = PathSampler(restricted, s, z, counter)
                count = sampler.total_count()
                if count > 0:
                    self.window_samplers.append(sampler)
                    self.window_weights.append(count)
        else:
            for lo, hi in _fastest_windows(g, s, z):
                restricted = restrict(g, lo, hi)
                sampler = PathSampler(restricted, s, z, counter)
                count = sampler.total_count()
                if count > 0:
                    self.window_samplers.append(sampler)
                    self.window_weights.append(count)
        self.trivial = s == z

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
