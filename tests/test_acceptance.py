"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The shared corpus is 300 seeded random temporal graphs (n <= 10, at most
25 time-edges, lifetime <= 8) plus 50 structured instances (forests,
theta graphs, diamond chains).  Random instances are drawn with mixed
density and kept only if a minimum timed feedback vertex set of size <= 3
exists, which keeps the pattern enumeration of the timed-FVS counter at
desk scale while still covering set sizes 0..3.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import gc
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from chronopath.chordal import (
    ChordalInstance,
    count_mc_is_bruteforce,
    count_weighted_mc_is,
)
from chronopath.errors import BudgetExceededError
from chronopath.fen import count_fen
from chronopath.forest import count_forest
from chronopath.generate import diamond_chain, random_forest_graph, width_bounded_chain
from chronopath.graph import TemporalGraph, underlying_graph
from chronopath.maxbetweenness import estimate_max_betweenness, zero_check
from chronopath.oracle import (
    count_optimal_bf,
    count_paths_bf,
    enumerate_paths,
    iter_paths,
    optimal_paths,
)
from chronopath.colourcount import estimate_short
from chronopath.reductions import betweenness_exact, count_fastest, count_foremost
from chronopath.rng import child_rng, derive_seed
from chronopath.sampling import PathSampler
from chronopath.tfvs import compute_timed_fvs, count_tfvs
from chronopath.vimw import count_vimw

from conftest import make_graph, theta_graph

CORPUS_SEED = 0x5EED


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _random_corpus() -> list[tuple[TemporalGraph, int, int]]:
    rng = random.Random(CORPUS_SEED)
    instances = []
    while len(instances) < 300:
        n = rng.randint(4, 10)
        m = rng.randint(n - 1, 25)
        t_max = rng.randint(1, 8)
        edges = set()
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v), rng.randint(1, t_max)))
        g = make_graph(n, edges)
        try:
            compute_timed_fvs(g, budget=3)
        except BudgetExceededError:
            continue
        s, z = rng.sample(range(n), 2)
        instances.append((g, s, z))
    return instances


def _structured_corpus() -> list[tuple[TemporalGraph, int, int]]:
    rng = random.Random(CORPUS_SEED + 1)
    out = []
    for i in range(20):
        n = rng.randint(4, 10)
        t_max = rng.randint(1, 8)
        m = rng.randint(n - 1, min(25, (n - 1) * min(3, t_max)))
        g = random_forest_graph(n, m, t_max, seed=derive_seed(CORPUS_SEED, "forest", i))
        s, z = rng.sample(range(n), 2)
        out.append((g, s, z))
    for i in range(10):
        lengths = [rng.randint(1, 3) for _ in range(3)]
        labels = [[rng.randint(1, 4) for _ in range(4)] for _ in range(3)]
        g = theta_graph(lengths, lambda a, b: labels[a][b % 4])
        out.append((g, 0, 1))
    for length in range(1, 7):
        g = diamond_chain(length)
        out.append((g, 0, g.n - 1))
    for i in range(14):
        length = rng.randint(1, 3)
        g = diamond_chain(length, label=rng.randint(1, 3))
        out.append((g, 0, g.n - 1))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _random_corpus() + _structured_corpus()


@pytest.fixture(scope="module")
def small_corpus(corpus):
    """Corpus instances with n <= 8, used by the exact-betweenness criteria."""
    return [(i, g, s, z) for i, (g, s, z) in enumerate(corpus) if g.n <= 8]


_exact_cache: dict = {}


def exact_betweenness_all(g: TemporalGraph, idx: int, star: str) -> list[Fraction]:
    key = (idx, star)
    if key not in _exact_cache:
        _exact_cache[key] = betweenness_exact(g, range(g.n), star, count_fen)
    return _exact_cache[key]


def test_criterion_1_oracle_equivalence(corpus):
    start = time.perf_counter()
    checked_forest = 0
    sizes = Counter()
    for g, s, z in corpus:
        want = count_paths_bf(g, s, z)
        assert count_vimw(g, s, z) == want, (g.time_edges, s, z)
        assert count_fen(g, s, z) == want, (g.time_edges, s, z)
        assert count_tfvs(g, s, z) == want, (g.time_edges, s, z)
        sizes[len(compute_timed_fvs(g, budget=3))] += 1
        if underlying_graph(g).is_forest:
            checked_forest += 1
            assert count_forest(g, s, z) == want
    elapsed = time.perf_counter() - start
    assert checked_forest >= 20
    assert {1, 2, 3} <= set(sizes)
    _report(
        1,
        elapsed < 300.0,
        f"vimw/fen/tfvs (+forest on {checked_forest}) match the oracle on "
        f"{len(corpus)} instances in {elapsed:.1f}s (< 300s); "
        f"timed-FVS sizes seen: {dict(sorted(sizes.items()))}",
    )


def test_criterion_2_diamond_growth():
    ok = True
    for length in range(1, 21):
        g = diamond_chain(length)
        s, z = 0, g.n - 1
        want = 2**length
        ok = ok and count_vimw(g, s, z) == want and count_fen(g, s, z) == want
        if length <= 12:
            ok = ok and count_paths_bf(g, s, z) == want
    _report(2, ok, "diamond chains give exactly 2^l for l=1..20 (oracle to l=12)")


def test_criterion_3_optimal_counts(corpus):
    for g, s, z in corpus:
        assert count_foremost(g, s, z, count_fen) == count_optimal_bf(g, s, z, "foremost")
        assert count_fastest(g, s, z, count_fen) == count_optimal_bf(g, s, z, "fastest")
    _report(3, True, f"foremost/fastest counts match the oracle on {len(corpus)} instances")


def test_criterion_4_exact_betweenness(small_corpus):
    from chronopath.oracle import betweenness_bf

    for idx, g, _s, _z in small_corpus:
        for star in ("foremost", "fastest"):
            exact = exact_betweenness_all(g, idx, star)
            for v in range(g.n):
                want = betweenness_bf(g, v, star)
                assert exact[v] == want, (g.time_edges, v, star)
    _report(
        4,
        True,
        f"betweenness_exact == betweenness_bf as exact rationals on "
        f"{len(small_corpus)} instances with n <= 8 (both criteria)",
    )


def _random_chordal_instance(rng: random.Random) -> tuple[ChordalInstance, int]:
    n = rng.randint(2, 14)
    k = rng.randint(1, 4)
    spans = []
    for _ in range(n):
        a = rng.randint(0, 30)
        spans.append((a, a + rng.randint(0, 8)))
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    )
    instance = ChordalInstance(
        n=n,
        edges=edges,
        colour=tuple(rng.randint(1, k) for _ in range(n)),
        weight=tuple(rng.randint(0, 9) for _ in range(n)),
    )
    return instance, k


def test_criterion_5_chordal_counter():
    rng = random.Random(CORPUS_SEED + 5)
    for _ in range(200):
        instance, k = _random_chordal_instance(rng)
        stats: dict = {}
        got = count_weighted_mc_is(instance, k, stats=stats)
        assert got == count_mc_is_bruteforce(instance, k)
        assert stats["entries"] <= stats["bags"] * 2**k * (stats["max_bag"] + 1)
    _report(
        5,
        True,
        "chordal multicoloured-IS counts match subset enumeration on 200 "
        "instances (<= 14 vertices, k <= 4) within the table-size bound",
    )


def _short_count(g: TemporalGraph, s: int, z: int, k: int) -> int:
    return sum(1 for p in iter_paths(g, s, z) if p.length == k)


def _criterion6_instances() -> list[tuple[TemporalGraph, int, int, int]]:
    rng = random.Random(CORPUS_SEED + 6)
    chosen: list[tuple[TemporalGraph, int, int, int]] = []
    d1, d2 = diamond_chain(1), diamond_chain(2)
    chain5 = make_graph(6, [(i, i + 1, i + 1) for i in range(5)])
    path7 = make_graph(
        7, [(i, i + 1, 1) for i in range(6)] + [(0, 2, 1), (3, 5, 2)]
    )
    chosen.append((d1, 0, 3, 2))
    chosen.append((d2, 0, 6, 4))
    chosen.append((chain5, 0, 5, 5))
    chosen.append((path7, 0, 6, 6))
    chosen.append((chain5, 0, 5, 3))  # zero count
    chosen.append((d1, 0, 3, 5))  # zero count
    while len(chosen) < 20:
        n = rng.randint(4, 8)
        m = rng.randint(n, 14)
        edges = set()
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v), rng.randint(1, 5)))
        g = make_graph(n, edges)
        s, z = rng.sample(range(n), 2)
        k = rng.randint(2, 4)
        if _short_count(g, s, z, k) > 0:
            chosen.append((g, s, z, k))
    return chosen


def test_criterion_6_fptras_statistics():
    eps, delta = 0.25, 0.1
    worst = 50
    for i, (g, s, z, k) in enumerate(_criterion6_instances()):
        truth = _short_count(g, s, z, k)
        hits = 0
        for rep in range(50):
            est = estimate_short(
                g, s, z, k, eps, delta, seed=derive_seed(CORPUS_SEED, "c6", i, rep)
            )
            if abs(est - truth) <= Fraction(1, 4) * truth:
                hits += 1
        assert hits >= 45, (i, k, truth, hits)
        worst = min(worst, hits)
    _report(
        6,
        True,
        f"estimate_short(eps=0.25, delta=0.1) within eps of truth in >= 45/50 "
        f"runs on 20 instances with k <= 6 (worst instance: {worst}/50)",
    )


def _criterion7_instances() -> list[tuple[TemporalGraph, int, int]]:
    rng = random.Random(CORPUS_SEED + 7)
    out = [
        (diamond_chain(1), 0, 3),
        (diamond_chain(2), 0, 6),
        (diamond_chain(4), 0, 12),
        (make_graph(2, [(0, 1, 1), (0, 1, 2)]), 0, 1),
    ]
    while len(out) < 10:
        n = rng.randint(4, 7)
        m = rng.randint(n, 13)
        edges = set()
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v), rng.randint(1, 4)))
        g = make_graph(n, edges)
        s, z = rng.sample(range(n), 2)
        if 2 <= count_paths_bf(g, s, z) <= 50:
            out.append((g, s, z))
    return out


def test_criterion_7_sampler_uniformity():
    draws = 100_000
    worst = 0.0
    for i, (g, s, z) in enumerate(_criterion7_instances()):
        support = {p.steps for p in enumerate_paths(g, s, z)}
        n_paths = len(support)
        sampler = PathSampler(g, s, z, count_paths_bf)
        rng = child_rng(CORPUS_SEED, "c7", i)
        seen: Counter = Counter()
        for _ in range(draws):
            seen[sampler.sample(rng).steps] += 1
        assert set(seen) <= support
        tv = 0.5 * sum(
            abs(seen.get(key, 0) / draws - 1 / n_paths) for key in support
        )
        assert tv <= 0.05, (i, n_paths, tv)
        worst = max(worst, tv)
    _report(
        7,
        True,
        f"empirical TV distance from uniform <= 0.05 over {draws} samples on "
        f"10 instances (worst: {worst:.4f})",
    )


def test_criterion_8_max_betweenness(corpus, small_corpus):
    # (a) zero_check agrees with the exhaustive definition on 100 instances.
    zero_corpus = small_corpus[:100]
    assert len(zero_corpus) == 100
    for _idx, g, _s, _z in zero_corpus:
        for star in ("foremost", "fastest"):
            definitional = not any(
                p.length >= 2
                for s in range(g.n)
                for z in range(g.n)
                if s != z
                for p in optimal_paths(g, s, z, star)
            )
            assert zero_check(g, star) == definitional

    # (c) the pigeonhole precondition holds on every non-zero instance.
    nonzero = 0
    for idx, g, _s, _z in zero_corpus:
        for star in ("foremost", "fastest"):
            if zero_check(g, star):
                continue
            nonzero += 1
            best = max(exact_betweenness_all(g, idx, star))
            assert best >= Fraction(1, g.n * (g.lifetime + 1))

    # (b) a single run with reduced ell returns an eps-approximation in
    # >= 40 of 60 trials, consistent with the 2/3-success analysis.
    eps = 0.5
    blocks = []
    for star in ("foremost", "fastest"):
        for idx, g, _s, _z in zero_corpus:
            if g.n > 7 or zero_check(g, star):
                continue
            from chronopath.graph import connectivity_matrix

            matrix = connectivity_matrix(g)
            pairs = sum(
                1 for a in range(g.n) for b in range(g.n) if a != b and matrix[a][b]
            )
            if pairs > 16:
                continue
            best = max(exact_betweenness_all(g, idx, star))
            if best > 0:
                blocks.append((idx, g, star, best))
                break
    assert len(blocks) == 2
    hit_counts = []
    for idx, g, star, best in blocks:
        exact = exact_betweenness_all(g, idx, star)
        hits = 0
        for trial in range(60):
            est = estimate_max_betweenness(
                g,
                star,
                eps,
                0.1,
                count_fen,
                seed=derive_seed(CORPUS_SEED, "c8", idx, trial),
                ell_cap=2000,
                amplify=False,
            )
            if (1 - eps) * best <= est.value <= (1 + eps) * best:
                hits += 1
                # on successful runs the reported argmax is a near-best vertex
                assert exact[est.argmax_vertex] >= (1 - eps) * best
        assert hits >= 40, (idx, star, best, hits)
        hit_counts.append(hits)
    _report(
        8,
        True,
        "zero_check exact on 100 instances; precondition max >= 1/(n(T+1)) "
        f"held on {nonzero} non-zero cases; single-run estimator hit "
        f"{hit_counts} of 60 at eps=0.5 with ell=2000 (>= 40 required)",
    )


def test_criterion_9_performance_shape():
    # Forest DP: temporal path with n = 10^5 vertices, lifetime 10^3.
    n = 100_000
    edges = [(i, i + 1, (i // 100) + 1) for i in range(n - 1)]
    g = TemporalGraph(n=n, time_edges=tuple(edges), lifetime=(n - 2) // 100 + 1)
    start = time.perf_counter()
    assert count_forest(g, 0, n - 1) == 1
    forest_elapsed = time.perf_counter() - start
    assert forest_elapsed < 10.0

    # VIMW DP at width 3: lifetime 10^5 under 30s, roughly linear in T.
    start = time.perf_counter()
    big = width_bounded_chain(100_000)
    count_vimw(big, 0, 100_000)
    vimw_elapsed = time.perf_counter() - start
    assert vimw_elapsed < 30.0

    timings = {}
    gc.disable()
    try:
        for t in (10_000, 20_000, 40_000):
            chain = width_bounded_chain(t)
            best = float("inf")
            for _ in range(3):
                tick = time.perf_counter()
                count_vimw(chain, 0, t)
                best = min(best, time.perf_counter() - tick)
            timings[t] = best
    finally:
        gc.enable()
    slack = 0.05
    linear = (
        timings[20_000] <= 2 * 1.2 * timings[10_000] + slack
        and timings[40_000] <= 2 * 1.2 * timings[20_000] + slack
    )
    _report(
        9,
        linear,
        f"forest n=1e5 in {forest_elapsed:.2f}s (<10s); vimw T=1e5 in "
        f"{vimw_elapsed:.2f}s (<30s); scaling "
        f"{[round(timings[t], 3) for t in (10_000, 20_000, 40_000)]} within linear+20%",
    )


def _run_cli(args: list[str], stdin: str = "") -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "chronopath.cli", *args],
        input=stdin.encode(),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_determinism():
    i5 = "0 1 1\n1 2 2\n0 2 3\n"
    invocations = [
        (["gen", "--kind", "random", "--n", "9", "--m", "18", "--t-max", "6", "--seed", "3"], ""),
        (["gen", "--kind", "forest", "--n", "9", "--m", "12", "--t-max", "5", "--seed", "3"], ""),
        (["sample", "-s", "0", "-z", "2", "--count", "12", "--seed", "8"], i5),
        (
            ["sample", "-s", "0", "-z", "2", "--count", "8", "--optimal", "fastest", "--seed", "8"],
            i5,
        ),
        (
            [
                "betweenness-approx", "--star", "foremost", "--epsilon", "0.5",
                "--delta", "0.25", "--ell-cap", "150", "--seed", "21",
            ],
            i5,
        ),
        (
            ["count", "-s", "0", "-z", "2", "--algo", "estimate", "--seed", "13"],
            i5,
        ),
    ]
    for args, stdin in invocations:
        assert _run_cli(args, stdin) == _run_cli(args, stdin), args
    _report(10, True, "every randomized subcommand is byte-identical across reruns")
