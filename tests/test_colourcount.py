import math
from fractions import Fraction

import pytest

from chronopath import colourcount
from chronopath.colourcount import (
    count_multicoloured,
    estimate_short,
    estimate_total,
    trial_count,
)
from chronopath.errors import InvalidParameterError
from chronopath.forest import count_forest, pair_cut
from chronopath.generate import diamond_chain, random_forest_graph, random_temporal_graph
from chronopath.oracle import count_paths_bf, iter_paths
from chronopath.rng import child_rng

from conftest import I1, I5, make_graph, random_instance


def bruteforce_colourful(g, s, z, colours, nc):
    total = 0
    for p in iter_paths(g, s, z):
        internals = p.vertices()[1:-1]
        if sorted(colours[v] for v in internals) == list(range(1, nc + 1)):
            total += 1
    return total


def bruteforce_k_paths(g, s, z, k):
    return sum(1 for p in iter_paths(g, s, z) if p.length == k)


def _reference_count_multicoloured(g, s, z, colours, num_colours):
    """The ordering DP: sum, over every ordering pi of the colour classes, of
    the paths s, v_1, ..., v_l, z with v_i in class pi(i), each ordering's
    count built right to left as a table of suffix sums over labels.  The
    orderings share tables as a suffix tree, and an all-zero table prunes
    every ordering below it."""
    if s == z:
        return 1 if num_colours == 0 else 0
    classes = {c: [] for c in range(1, num_colours + 1)}
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

    def table_for(members, nxt):
        table = {}
        for w in members:
            row = [0] * (lifetime + 2)
            if nxt is None:
                for t in g.edge_labels(w, z):
                    row[t] += 1
            else:
                for u, r in g.incident[w]:
                    if u in nxt:
                        row[r] += nxt[u][r]
            for t in range(lifetime, 0, -1):
                row[t] += row[t + 1]
            table[w] = row
        return table

    def explore(remaining, nxt):
        if not remaining:
            return sum(nxt[v][t] for v, t in g.incident[s] if v in nxt)
        total = 0
        for c in sorted(remaining):
            table = table_for(classes[c], nxt)
            if any(row[1] for row in table.values()):
                total += explore(remaining - {c}, table)
        return total

    return explore(frozenset(classes), None)


def test_examples():
    assert count_multicoloured(I1, 0, 2, {1: 1}, 1) == 1
    d = diamond_chain(1)
    assert count_multicoloured(d, 0, 3, {1: 1, 2: 1}, 1) == 2
    # a colour class with no neighbour of s kills every path
    g = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert count_multicoloured(g, 0, 2, {1: 1, 3: 2}, 2) == 0


def test_colouring_validation():
    # A terminal, a colour past num_colours, or a vertex outside the graph.
    for bad in ({0: 1}, {1: 2}, {-1: 1}, {3: 1}):
        with pytest.raises(ValueError):
            count_multicoloured(I1, 0, 2, bad, 1)


def test_against_bruteforce(rng):
    for _ in range(150):
        g = random_instance(rng, n_hi=9, m_hi=14)
        s, z = rng.sample(range(g.n), 2)
        others = [v for v in range(g.n) if v not in (s, z)]
        nc = rng.randint(1, max(len(others), 1))
        colours = {v: rng.randint(1, nc) for v in others}
        assert count_multicoloured(g, s, z, colours, nc) == bruteforce_colourful(
            g, s, z, colours, nc
        )


def test_count_depends_only_on_the_partition_of_the_cut(rng):
    # Renaming the colours, or dropping the colours of the vertices outside
    # the pair's cut, leaves the count unchanged.
    seen = 0
    for _ in range(150):
        g = random_instance(rng, n_lo=4, n_hi=9, m_hi=18)
        s, z = rng.sample(range(g.n), 2)
        others = [v for v in range(g.n) if v not in (s, z)]
        nc = rng.randint(1, len(others))
        colours = {v: rng.randint(1, nc) for v in others}
        want = bruteforce_colourful(g, s, z, colours, nc)
        rename = dict(zip(range(1, nc + 1), rng.sample(range(1, nc + 1), nc)))
        renamed = {v: rename[c] for v, c in colours.items()}
        assert count_multicoloured(g, s, z, renamed, nc) == want
        cut, reach = pair_cut(g, s, z)
        kept = {v: colours[v] for v in reach}
        assert count_multicoloured(g, s, z, kept, nc) == want
        assert count_multicoloured(cut, s, z, kept, nc) == want
        seen += want > 0 and len(reach) < len(others)
    assert seen >= 10


def test_subset_dp_matches_ordering_dp(rng):
    seen = {"empty class": 0, "zero": 0, "positive": 0}
    high = 0
    for _ in range(400):
        g = random_instance(rng, n_lo=3, n_hi=11, t_hi=5, m_hi=40)
        s, z = rng.sample(range(g.n), 2)
        others = [v for v in range(g.n) if v not in (s, z)]
        paths = list(iter_paths(g, s, z)) if rng.random() < 0.5 else []
        inner = rng.choice(paths).vertices()[1:-1] if paths else []
        # Half the colourings give one random path's internal vertices
        # distinct colours, so that colourful paths with up to 7 colours
        # occur; the rest are uniform and often leave a class empty.
        nc = len(inner) if 0 < len(inner) <= 7 else rng.randint(0, 7)
        colours = {v: rng.randint(1, nc) for v in others} if nc else {}
        if len(inner) == nc:
            colours.update(zip(inner, rng.sample(range(1, nc + 1), nc)))
        got = count_multicoloured(g, s, z, colours, nc)
        assert got == _reference_count_multicoloured(g, s, z, colours, nc)
        if len(set(colours.values())) < nc:
            seen["empty class"] += 1
        else:
            seen["zero" if got == 0 else "positive"] += 1
            high += got > 0 and nc >= 4
    assert min(seen.values()) >= 30 and high >= 30, (seen, high)


def test_seeded_estimates_match_ordering_dp(monkeypatch):
    cases = [
        (diamond_chain(2), 0, 6, 4),
        (random_forest_graph(n=7, m=10, t_max=4, seed=5), 0, 6, 3),
        (
            make_graph(6, [(0, 1, 1), (1, 2, 2), (2, 5, 3), (0, 3, 1), (3, 4, 2), (4, 5, 2), (1, 4, 1)]),
            0, 5, 3,
        ),
    ]
    got = [estimate_short(g, s, z, k, 0.5, 0.2, seed=7) for g, s, z, k in cases]
    got += [estimate_total(g, s, z, 0.5, 0.2, seed=8) for g, s, z, _ in cases]
    monkeypatch.setattr(colourcount, "count_multicoloured", _reference_count_multicoloured)
    want = [estimate_short(g, s, z, k, 0.5, 0.2, seed=7) for g, s, z, k in cases]
    want += [estimate_total(g, s, z, 0.5, 0.2, seed=8) for g, s, z, _ in cases]
    assert got == want
    assert any(got)


def test_length_decomposition_matches_total(rng):
    # Exact per-length counts (brute force) add up to the total count.
    for _ in range(40):
        g = random_instance(rng, n_hi=7)
        s, z = rng.sample(range(g.n), 2)
        total = sum(bruteforce_k_paths(g, s, z, k) for k in range(1, g.n))
        assert total == count_paths_bf(g, s, z)


def test_estimate_short_exact_cases():
    assert estimate_short(I5, 0, 2, 1, 0.5, 0.1, seed=1) == 1
    assert estimate_short(I1, 0, 2, 5, 0.5, 0.1, seed=1) == 0


def test_estimate_short_param_validation():
    with pytest.raises(InvalidParameterError):
        estimate_short(I1, 0, 2, 2, -1.0, 0.1, seed=0)
    with pytest.raises(InvalidParameterError):
        estimate_short(I1, 0, 2, 2, 0.5, 1.5, seed=0)
    with pytest.raises(InvalidParameterError):
        estimate_short(I1, 0, 2, 0, 0.5, 0.1, seed=0)


def test_trial_count_grows():
    assert trial_count(2, 0.25, 0.1, 3.0) < trial_count(4, 0.25, 0.1, 3.0)


def test_unbiasedness_three_standard_errors():
    # Mean of rescaled single-colouring counts converges to the true count.
    g = diamond_chain(2)
    s, z = 0, g.n - 1
    k = 4
    truth = bruteforce_k_paths(g, s, z, k)
    assert truth == 4
    ell = k - 1
    scale = Fraction(ell**ell, math.factorial(ell))
    internal = [v for v in range(g.n) if v not in (s, z)]
    samples = []
    for trial in range(4000):
        rng = child_rng(123456, "unbias", trial)
        colouring = {v: rng.randrange(1, ell + 1) for v in internal}
        samples.append(float(scale * count_multicoloured(g, s, z, colouring, ell)))
    mean = sum(samples) / len(samples)
    var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    se = (var / len(samples)) ** 0.5
    assert abs(mean - truth) <= 3 * se + 1e-9


def test_estimate_total_near_truth():
    est = estimate_total(I5, 0, 2, 0.25, 0.1, seed=9)
    assert abs(float(est) - 2) <= 0.25 * 2
    none = make_graph(3, [(0, 1, 2), (1, 2, 1)])
    assert estimate_total(none, 0, 2, 0.25, 0.1, seed=9) == 0


def test_estimate_total_matches_forest_dp():
    g = random_forest_graph(n=6, m=9, t_max=4, seed=77)
    truth = count_forest(g, 0, 5)
    est = estimate_total(g, 0, 5, 0.25, 0.05, seed=4)
    assert abs(float(est) - truth) <= 0.25 * truth + 1e-9


def test_determinism():
    a = estimate_total(I5, 0, 2, 0.3, 0.2, seed=321)
    b = estimate_total(I5, 0, 2, 0.3, 0.2, seed=321)
    assert a == b


def test_estimate_short_runs_one_dp_per_distinct_colouring(monkeypatch):
    chain5 = make_graph(6, [(i, i + 1, i + 1) for i in range(5)])
    for g, s, z, k in ((diamond_chain(2), 0, 6, 4), (chain5, 0, 5, 5)):
        ell = k - 1
        internal = [v for v in range(g.n) if v not in (s, z)]
        trials = trial_count(k, 0.25, 0.1, colourcount.DEFAULT_TRIAL_CONSTANT)
        running = 0
        for trial in range(trials):
            rng = child_rng(3, "short", k, trial)
            colouring = {v: rng.randrange(1, ell + 1) for v in internal}
            running += count_multicoloured(g, s, z, colouring, ell)
        want = Fraction(running * ell**ell, trials * math.factorial(ell))
        seen = []

        def counting(g, s, z, colours, num_colours):
            seen.append(tuple(colours.values()))
            return count_multicoloured(g, s, z, colours, num_colours)

        monkeypatch.setattr(colourcount, "count_multicoloured", counting)
        assert estimate_short(g, s, z, k, 0.25, 0.1, seed=3) == want > 0
        monkeypatch.undo()
        assert len(seen) == len(set(seen)) < trials


def test_estimate_short_runs_one_dp_per_partition_of_the_cut(monkeypatch):
    # Each trial's colouring drawn in full with rng.randrange; the estimate
    # runs one DP on the cut per partition of the cut's vertices into ell
    # classes, and equals the mean of the whole-graph counts.
    g, s, z, k = random_temporal_graph(10, 30, 10, 3), 1, 0, 5
    ell, cut, reach = k - 1, *pair_cut(g, s, z)
    internal = [v for v in range(g.n) if v not in (s, z)]
    assert len(reach) < len(internal)

    def partition(colours):
        classes = {}
        for v in reach:
            classes.setdefault(colours[v], []).append(v)
        return frozenset(map(tuple, classes.values()))

    trials = trial_count(k, 0.5, 0.2, colourcount.DEFAULT_TRIAL_CONSTANT)
    running, parts, memo = 0, set(), {}
    for trial in range(trials):
        rng = child_rng(9, "short", k, trial)
        colouring = {v: rng.randrange(1, ell + 1) for v in internal}
        key = tuple(colouring.values())
        if key not in memo:
            memo[key] = count_multicoloured(g, s, z, colouring, ell)
        running += memo[key]
        if len(partition(colouring)) == ell:
            parts.add(partition(colouring))
    seen = []

    def counting(h, s, z, colours, num_colours):
        assert h == cut and sorted(colours) == reach
        seen.append(partition(colours))
        return count_multicoloured(h, s, z, colours, num_colours)

    monkeypatch.setattr(colourcount, "count_multicoloured", counting)
    got = estimate_short(g, s, z, k, 0.5, 0.2, seed=9)
    assert got == Fraction(running * ell**ell, trials * math.factorial(ell)) > 0
    assert len(seen) == len(set(seen)) and set(seen) == parts
    assert len(parts) < len(memo) // 2


# Seeded estimates (epsilon 0.5, delta 0.2, seed 5) of k = 2..6 and of
# k_max = 3, 4, as computed by drawing a full colouring per trial with
# rng.randrange and running one DP per distinct colouring on the whole graph.
# The cut sizes (internal vertices, time-edges) show what each instance
# covers: a cut that drops a vertex and time-edges, two that keep the whole
# graph, one that keeps half the vertices, and an empty one.
PINNED = [
    (random_temporal_graph(10, 30, 10, 3), 1, 0, (7, 21),
     ["5", "424/143", "747/97", "58816/3165", "100625/8601"], ["1941/241", "989187/64106"]),
    (diamond_chain(2), 0, 6, (5, 8), ["0", "0", "387/97", "0", "0"], ["0", "1977/482"]),
    (random_temporal_graph(9, 18, 4, 2), 2, 6, (7, 18),
     ["1", "408/143", "801/776", "2208/1055", "75625/34404"], ["951/241", "325435/64106"]),
    (random_temporal_graph(16, 48, 12, 7), 0, 4, (7, 14),
     ["0", "38/13", "99/97", "0", "0"], ["704/241", "127514/32053"]),
    (random_temporal_graph(16, 48, 12, 7), 0, 13, (0, 0), ["0"] * 5, ["0", "0"]),
]


@pytest.mark.parametrize("g, s, z, size, short, total", PINNED)
def test_seeded_estimates_are_pinned(g, s, z, size, short, total):
    cut, reach = pair_cut(g, s, z)
    assert (len(reach), len(cut.time_edges)) == size
    got = [estimate_short(g, s, z, k, 0.5, 0.2, seed=5) for k in range(2, 7)]
    assert got == [Fraction(x) for x in short]
    got = [estimate_total(g, s, z, 0.5, 0.2, seed=5, k_max=k_max) for k_max in (3, 4)]
    assert got == [Fraction(x) for x in total]
