"""Uniform sampling of temporal paths via a pluggable counter.

Temporal path counting is downward self-reducible: the paths from s
partition by their first time-edge ({s,v}, t), and the block for that edge
is in bijection with the (v,z)-paths of the residual instance obtained by
deleting s and every time-edge earlier than t.  Sampling therefore walks
forward, choosing each next time-edge with probability proportional to the
counter's value on its residual instance.  The package's counters are
exact, so the output distribution is exactly uniform (all arithmetic is
integer; no float bias).

Foremost and fastest paths are sampled inside the pair's optimal windows
(:func:`reductions.optimal_windows`): pick a window proportionally to its
path count and sample inside it.  Every such window holds a path, so every
window's count is a positive weight.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .errors import CounterFailureError, NoPathError
# earliest_arrival is unused, but perfbench/tracing.py patches it here.
from .graph import TemporalGraph, TemporalPath, earliest_arrival, restrict  # noqa: F401
from .reductions import Counter, optimal_windows


class _WalkState(NamedTuple):
    """A walk state's visited set, next steps, their running weights and next states."""

    visited: frozenset[int]
    options: list[tuple[int, int, int]]
    cum: list[int]
    children: list[_WalkState | None]


class PathSampler:
    """Reusable sampler for one (graph, s, z) triple.

    Residual counter values are cached across samples: the residual
    instance is determined by (next vertex, label cutoff, visited set), and
    repeated draws hit the same residuals constantly.  Each walk state
    (current vertex, label cutoff, visited set) is one node, built when the
    walk first reaches it, so a repeated state costs one bit draw (two or
    more only when the draw is rejected) and one bisect.
    """

    def __init__(self, g: TemporalGraph, s: int, z: int, counter: Counter):
        self.g = g
        self.s = s
        self.z = z
        self.counter = counter
        self._cache: dict[tuple[int, int, frozenset[int]], int] = {}
        self._states: dict[tuple[int, int, frozenset[int]], _WalkState] = {}
        self._root: _WalkState | None = None

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

    def _state(self, cur: int, min_label: int, visited: frozenset[int]) -> _WalkState:
        """The node of a walk state, built on first use; ``visited`` includes ``cur``."""
        key = (cur, min_label, visited)
        state = self._states.get(key)
        if state is None:
            options: list[tuple[int, int, int]] = []
            weights: list[int] = []
            for w, t in self.g.incident[cur]:
                if t < min_label or w in visited:
                    continue
                weight = self._completions(w, t, visited)
                if weight > 0:
                    options.append((cur, w, t))
                    weights.append(weight)
            state = self._states[key] = _WalkState(
                visited, options, list(accumulate(weights)), [None] * len(options)
            )
        return state

    def total_count(self):
        return self._completions(self.s, 1, frozenset())

    def walk(self, rng: random.Random) -> list[tuple[int, int, int]]:
        """The steps of one drawn path."""
        steps: list[tuple[int, int, int]] = []
        if self.s == self.z:
            return steps
        z, getrandbits = self.z, rng.getrandbits
        state = self._root
        if state is None:
            state = self._root = self._state(self.s, 1, frozenset((self.s,)))
        while True:
            visited, options, cum, children = state
            if not cum:
                if not steps:
                    raise NoPathError(f"no temporal ({self.s},{self.z})-path")
                raise CounterFailureError(
                    "counter reported completions where none exist"
                )
            # rng.randrange(total), drawn as CPython draws it; the first option
            # whose running total exceeds r is then exactly proportional.
            total = cum[-1]
            k = total.bit_length()
            r = getrandbits(k)
            while r >= total:
                r = getrandbits(k)
            i = bisect_right(cum, r)
            step = options[i]
            steps.append(step)
            _, w, t = step
            if w == z:
                return steps
            state = children[i]
            if state is None:
                state = children[i] = self._state(w, t, visited | {w})

    def sample(self, rng: random.Random) -> TemporalPath:
        return TemporalPath(source=self.s, steps=tuple(self.walk(rng)))


class OptimalPathSampler:
    """Reusable sampler for *-optimal (s,z)-paths (foremost or fastest)."""

    def __init__(self, g: TemporalGraph, s: int, z: int, star: str, counter: Counter):
        self.s = s
        self.window_samplers = [
            PathSampler(restrict(g, lo, hi), s, z, counter)
            for lo, hi in optimal_windows(g, s, z, star)
        ]
        self.window_cum = list(accumulate(w.total_count() for w in self.window_samplers))

    def walk(self, rng: random.Random) -> list[tuple[int, int, int]]:
        """The steps of one drawn path."""
        if not self.window_samplers:
            raise NoPathError("no optimal path to sample")
        cum = self.window_cum
        index = bisect_right(cum, rng.randrange(cum[-1])) if len(cum) > 1 else 0
        return self.window_samplers[index].walk(rng)

    def sample(self, rng: random.Random) -> TemporalPath:
        return TemporalPath(source=self.s, steps=tuple(self.walk(rng)))

