from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest

from chronopath.dispatch import dispatch_count
from chronopath.errors import NoPathError
from chronopath.fen import count_fen
from chronopath.graph import (
    connectivity_matrix,
    earliest_arrival,
    fastest_duration,
    restrict,
    validate_path,
)
from chronopath.maxbetweenness import estimate_max_betweenness, zero_check
from chronopath.oracle import count_paths_bf, enumerate_paths, optimal_paths
from chronopath.reductions import optimal_windows
from chronopath.rng import child_rng
from chronopath.sampling import OptimalPathSampler, PathSampler
from chronopath.generate import diamond_chain

from conftest import I1, I2, I4, I5, make_graph, random_instance


def empirical(sampler, rng, draws):
    seen = Counter()
    for _ in range(draws):
        seen[sampler.sample(rng).steps] += 1
    return seen


def test_unique_path_always():
    for _ in range(5):
        p = PathSampler(I1, 0, 2, count_paths_bf).sample(child_rng(5, "path", 0, 2))
        assert p.steps == ((0, 1, 1), (1, 2, 2))


def test_no_path_raises():
    sampler = PathSampler(I2, 0, 2, count_paths_bf)
    assert sampler.total_count() == 0
    with pytest.raises(NoPathError):
        sampler.sample(child_rng(5, "path", 0, 2))
    optimal = OptimalPathSampler(I2, 0, 2, "foremost", count_paths_bf)
    with pytest.raises(NoPathError):
        optimal.sample(child_rng(5, "optimal", "foremost", 0, 2))


def test_two_path_symmetry():
    d = diamond_chain(1)
    sampler = PathSampler(d, 0, 3, count_paths_bf)
    rng = child_rng(99, "sym")
    seen = empirical(sampler, rng, 4000)
    assert set(seen) == {p.steps for p in enumerate_paths(d, 0, 3)}
    for count in seen.values():
        assert abs(count - 2000) < 200


def test_samples_are_valid_paths(rng):
    for _ in range(30):
        g = random_instance(rng, n_hi=7, m_hi=12)
        s, z = rng.sample(range(g.n), 2)
        sampler = PathSampler(g, s, z, count_fen)
        if sampler.total_count() == 0:
            continue
        r = child_rng(1, "valid")
        for _ in range(20):
            p = sampler.sample(r)
            validate_path(g, p)
            assert p.source == s and p.target == z


def test_optimal_samples_achieve_optimum(rng):
    for _ in range(30):
        g = random_instance(rng, n_hi=7, m_hi=12)
        s, z = rng.sample(range(g.n), 2)
        if earliest_arrival(g, s, z) is None:
            continue
        r = child_rng(2, "opt")
        foremost = OptimalPathSampler(g, s, z, "foremost", count_fen)
        fastest = OptimalPathSampler(g, s, z, "fastest", count_fen)
        for _ in range(10):
            p = foremost.sample(r)
            validate_path(g, p)
            assert p.arrival_time == earliest_arrival(g, s, z)
            q = fastest.sample(r)
            validate_path(g, q)
            assert q.arrival_time - q.start_time == fastest_duration(g, s, z)


def test_sample_optimal_examples():
    for _ in range(5):
        for star, want in (("foremost", ((0, 1, 1), (1, 2, 2))), ("fastest", ((0, 2, 3),))):
            sampler = OptimalPathSampler(I5, 0, 2, star, count_paths_bf)
            assert sampler.sample(child_rng(11, "optimal", star, 0, 2)).steps == want
    fast = OptimalPathSampler(I4, 0, 1, "fastest", count_paths_bf)
    seen = empirical(fast, child_rng(0, "i4"), 2000)
    assert set(seen) == {((0, 1, 1),), ((0, 1, 2),)}
    for count in seen.values():
        assert abs(count - 1000) < 150


def test_optimal_distribution_uniform(rng):
    for _ in range(10):
        g = random_instance(rng, n_hi=6, m_hi=10)
        s, z = rng.sample(range(g.n), 2)
        opts = optimal_paths(g, s, z, "fastest")
        if not 2 <= len(opts) <= 8:
            continue
        sampler = OptimalPathSampler(g, s, z, "fastest", count_paths_bf)
        draws = 3000
        seen = empirical(sampler, child_rng(3, "dist"), draws)
        assert set(seen) == {p.steps for p in opts}
        expected = draws / len(opts)
        for count in seen.values():
            assert abs(count - expected) < 6 * expected**0.5 + 10


def test_path_length_bounded(rng):
    for _ in range(20):
        g = random_instance(rng)
        s, z = rng.sample(range(g.n), 2)
        sampler = PathSampler(g, s, z, count_paths_bf)
        if sampler.total_count() == 0:
            continue
        p = sampler.sample(child_rng(4, "len"))
        assert p.length <= g.n - 1


def test_determinism_same_seed():
    def draw():
        return PathSampler(I5, 0, 2, count_paths_bf).sample(child_rng(777, "path", 0, 2)).steps

    a = [draw() for _ in range(3)]
    b = [draw() for _ in range(3)]
    assert a == b


def _reference_weighted_index(rng, weights):
    """The linear scan the walk used before the walk-state graph."""
    r = rng.randrange(sum(weights))
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i


class _ReferenceSampler(PathSampler):
    """The walk before the walk-state graph: a cache of each state's options
    and weights, a new visited set per step and a linear scan.  The counters
    used here return ints, so no weights need scaling."""

    def __init__(self, g, s, z, counter):
        super().__init__(g, s, z, counter)
        self._steps = {}

    def _options(self, cur, min_label, visited):
        key = (cur, min_label, visited)
        if key not in self._steps:
            options, weights = [], []
            for w, t in self.g.incident[cur]:
                if t < min_label or w in visited:
                    continue
                weight = self._completions(w, t, visited)
                if weight > 0:
                    options.append((w, t))
                    weights.append(weight)
            self._steps[key] = (options, weights)
        return self._steps[key]

    def sample(self, rng):
        cur, min_label, visited = self.s, 1, frozenset((self.s,))
        steps = []
        while cur != self.z:
            options, weights = self._options(cur, min_label, visited)
            w, t = options[_reference_weighted_index(rng, weights)]
            steps.append((cur, w, t))
            cur, min_label, visited = w, t, visited | {w}
        return tuple(steps)


class _ReferenceOptimalSampler:
    def __init__(self, g, s, z, star, counter):
        self.samplers, self.weights = [], []
        for lo, hi in optimal_windows(g, s, z, star):
            sampler = _ReferenceSampler(restrict(g, lo, hi), s, z, counter)
            if sampler.total_count() > 0:
                self.samplers.append(sampler)
                self.weights.append(sampler.total_count())

    def sample(self, rng):
        weights = self.weights
        index = _reference_weighted_index(rng, weights) if len(weights) > 1 else 0
        return self.samplers[index].sample(rng)


def _reference_estimate(g, star, ell, seed, runs, counter):
    """(value, argmax) of estimate_max_betweenness on a non-zero instance,
    with reference walks and a tally over ``vertices()``."""
    matrix = connectivity_matrix(g)
    pairs = [(s, z) for s in range(g.n) for z in range(g.n) if s != z and matrix[s][z]]
    samplers = {(s, z): _ReferenceOptimalSampler(g, s, z, star, counter) for s, z in pairs}
    outcomes = []
    for run in range(runs):
        rng = child_rng(seed, "betweenness", star, run)
        tally = [0] * g.n
        for s, z in pairs:
            for _ in range(ell):
                steps = samplers[(s, z)].sample(rng)
                for v in (s,) + tuple(step[1] for step in steps):
                    if v not in (s, z):
                        tally[v] += 1
        best = max(range(g.n), key=lambda v: (tally[v], -v))
        outcomes.append((Fraction(tally[best], ell), best))
    outcomes.sort(key=lambda pair: pair[0])
    return outcomes[(len(outcomes) - 1) // 2]


def _same_stream(new, reference, seed, draws):
    r_new, r_ref = child_rng(seed, "stream"), child_rng(seed, "stream")
    got = [new.sample(r_new).steps for _ in range(draws)]
    want = [reference.sample(r_ref) for _ in range(draws)]
    assert got == want
    assert r_new.getstate() == r_ref.getstate()


def test_seeded_stream_matches_reference(rng):
    instances = [(diamond_chain(6), 0, 18)]
    while len(instances) < 41:
        g = random_instance(rng, n_hi=7, m_hi=12)
        s, z = rng.sample(range(g.n), 2)
        if earliest_arrival(g, s, z) is not None:
            instances.append((g, s, z))
    for seed, (g, s, z) in enumerate(instances):
        _same_stream(PathSampler(g, s, z, count_fen), _ReferenceSampler(g, s, z, count_fen), seed, 40)
        for star in ("foremost", "fastest"):
            _same_stream(
                OptimalPathSampler(g, s, z, star, count_fen),
                _ReferenceOptimalSampler(g, s, z, star, count_fen),
                seed,
                40,
            )

    estimated = 0
    for seed, (g, _, _) in enumerate([(diamond_chain(3), 0, 9)] + instances[1:]):
        for star in ("foremost", "fastest"):
            if zero_check(g, star):
                continue
            got = estimate_max_betweenness(g, star, 0.5, 0.1, count_fen, seed=seed, ell_cap=4)
            want = _reference_estimate(g, star, 4, seed, got.trials, count_fen)
            assert (got.value, got.argmax_vertex) == want
            estimated += 1
    assert estimated >= 30


def test_walk_draws_the_steps_that_sample_wraps():
    # s == z has the trivial path, but no optimal window to sample from.
    for sampler in (
        PathSampler(I5, 0, 2, count_fen),
        PathSampler(I5, 1, 1, count_fen),
        OptimalPathSampler(I5, 0, 2, "fastest", count_fen),
    ):
        r_walk, r_sample = child_rng(5, "walk"), child_rng(5, "walk")
        for _ in range(20):
            path = sampler.sample(r_sample)
            assert (path.source, tuple(sampler.walk(r_walk))) == (sampler.s, path.steps)
        assert r_walk.getstate() == r_sample.getstate()


def _randrange_walk(sampler, rng):
    """The walk over the sampler's own states, each step drawn with rng.randrange."""
    steps = []
    cur, min_label, visited = sampler.s, 1, frozenset((sampler.s,))
    while cur != sampler.z:
        state = sampler._state(cur, min_label, visited)
        step = state.options[bisect_right(state.cum, rng.randrange(state.cum[-1]))]
        steps.append(step)
        _, cur, min_label = step
        visited = visited | {cur}
    return steps


def test_walk_draws_as_randrange_does(rng):
    # Labels 1..300 on each edge of a 5-edge path: C(304, 5) paths, so the
    # first draw takes getrandbits over more than one 32-bit word.
    path = make_graph(6, [(u, u + 1, t) for u in range(5) for t in range(1, 301)])
    instances = [(path, 0, 5, 200), (I1, 0, 2, 20), (diamond_chain(3), 0, 9, 100)]
    while len(instances) < 23:
        g = random_instance(rng, n_hi=7, m_hi=12)
        s, z = rng.sample(range(g.n), 2)
        if earliest_arrival(g, s, z) is not None:
            instances.append((g, s, z, 40))
    totals = set()
    for seed, (g, s, z, walks) in enumerate(instances):
        sampler = PathSampler(g, s, z, lambda h, a, b: dispatch_count(h, a, b))
        r_walk, r_ref = child_rng(seed, "randrange"), child_rng(seed, "randrange")
        for _ in range(walks):
            assert sampler.walk(r_walk) == _randrange_walk(sampler, r_ref)
            assert r_walk.getstate() == r_ref.getstate()
        totals |= {state.cum[-1] for state in sampler._states.values() if state.cum}
    assert 20_932_912_560 in totals
    # I1's one path weighs 1; the 3-diamond chain's first step weighs 2^3.
    assert {1, 8} <= totals
