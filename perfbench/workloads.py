"""Seeded inputs, job lists and answer checks for the three workloads.

Each workload is a list of ``chronopath`` command lines over input files
that set-up writes from the workload seed.  The program only ever sees
those files.  Every job carries a check that turns its stdout into a
failure reason, or None when the answer is right.  Checks never use the
program's parser: they work on the graph the benchmark generated and map
vertex names back through the renaming the benchmark chose.

How the seed shapes the inputs.  Exact counting cost on small random
graphs varies about 20x between generator seeds (fastest betweenness over
all vertices of ``random_temporal_graph(9, 20, 20, s)`` takes 1.2 s for
s=1 and 23.9 s for s=2), so a graph drawn afresh per run would make run to
run spread far wider than any regression bound.  The small-graph workloads
therefore use a fixed panel of generator seeds.  The cost also depends on
the order in which the program numbers the vertices: the timed-FVS search
branches in vertex order, and a random renumbering moved single foremost
jobs by up to 60%.  So the seed picks the vertex names and an
order-preserving relabelling of the time labels, and the edge lines keep
the generator's order, which fixes the program's dense ids.  The seed also
draws the forest of ``count-large`` and its query pair, and the seeds
passed to every randomized subcommand.
"""

from __future__ import annotations

import json
import random
from collections import Counter as Tally
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from chronopath import oracle
from chronopath.generate import (
    diamond_chain,
    random_forest_graph,
    random_temporal_graph,
    width_bounded_chain,
)
from chronopath.graph import (
    TemporalGraph,
    TemporalPath,
    earliest_reach,
    validate_path,
)
from chronopath.maxbetweenness import amplification_runs, formula_ell

Check = Callable[[str], "str | None"]


@dataclass
class Instance:
    """A generated graph (dense ids, labels 1..T) and the file it was written to."""

    graph: TemporalGraph
    names: list[int]
    path: Path

    def name(self, v: int) -> str:
        return str(self.names[v])

    def vertex(self, name: str) -> int:
        return self.names.index(int(name))


@dataclass
class Job:
    kind: str  # the subcommand family the job's time is summed under
    label: str
    args: list[str]
    check: Check


def write_instance(g: TemporalGraph, rng: random.Random, path: Path) -> Instance:
    """Write g with vertex names and time labels chosen by rng; see the module docstring."""
    names = rng.sample(range(10 * g.n), g.n)
    labels = [0]
    for _ in range(g.lifetime):
        labels.append(labels[-1] + rng.randint(1, 3))
    text = "".join(f"{names[u]} {names[v]} {labels[t]}\n" for u, v, t in g.time_edges)
    path.write_text(text, encoding="utf-8")
    return Instance(g, names, path)


def labelled_diamond_chain(length: int) -> TemporalGraph:
    """Diamond chain whose i-th diamond is active at label i: 2^length paths."""
    edges = []
    corner = 0
    for i in range(1, length + 1):
        w1, w2, nxt = corner + 1, corner + 2, corner + 3
        edges += [(corner, w1, i), (corner, w2, i), (w1, nxt, i), (w2, nxt, i)]
        corner = nxt
    return TemporalGraph(n=corner + 1, time_edges=tuple(sorted(edges)), lifetime=length)


# ---------------------------------------------------------------- checks


def _expect_int(expected: int) -> Check:
    def check(out: str) -> str | None:
        got = out.strip()
        return None if got == str(expected) else f"expected {expected}, got {got[:80]!r}"

    return check


def _expect_betweenness(inst: Instance, star: str, vertices: list[int]) -> Check:
    def check(out: str) -> str | None:
        want = {inst.name(v): oracle.betweenness_bf(inst.graph, v, star) for v in vertices}
        got = {}
        for line in out.splitlines():
            name, value = line.split("\t")
            got[name] = Fraction(value)
        if got != want:
            bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
            return f"betweenness differs from the oracle at vertices {bad[:5]}"
        return None

    return check


def _expect_optimal(inst: Instance, s: int, z: int, star: str) -> Check:
    def check(out: str) -> str | None:
        return _expect_int(oracle.count_optimal_bf(inst.graph, s, z, star))(out)

    return check


def _expect_forest_count(inst: Instance, s: int, z: int) -> Check:
    """Independent count on a forest: label sequences along the unique tree path."""

    def check(out: str) -> str | None:
        g = inst.graph
        adj: dict[int, set[int]] = {}
        for u, v, _ in g.time_edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        parent = {s: s}
        queue = [s]
        for a in queue:
            for b in adj[a]:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
        path = [z]
        while path[-1] != s:
            path.append(parent[path[-1]])
        path.reverse()
        ways = {0: 1}  # last label used -> number of label sequences so far
        for a, b in zip(path, path[1:]):
            ways = {t: sum(w for last, w in ways.items() if last <= t)
                    for t in g.edge_labels(a, b)}
        return _expect_int(sum(ways.values()))(out)

    return check


def _expect_params(expected: dict) -> Check:
    def check(out: str) -> str | None:
        got = json.loads(out)
        bad = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
        return f"params differ: {bad}" if bad else None

    return check


def _expect_samples(inst: Instance, s: int, z: int, count: int, optimal: str) -> Check:
    """Every sample is a valid temporal path and one of the oracle's (optimal) paths."""

    def check(out: str) -> str | None:
        g = inst.graph
        if optimal == "none":
            allowed = oracle.enumerate_paths(g, s, z, limit=None)
        else:
            allowed = oracle.optimal_paths(g, s, z, optimal)
        allowed_steps = {p.steps for p in allowed}
        lines = out.splitlines()
        if len(lines) != count:
            return f"expected {count} samples, got {len(lines)}"
        for line in lines:
            first, *hops = line.split()
            cur = inst.vertex(first)
            steps = []
            for hop in hops:
                name, label = hop.split("@")
                nxt = inst.vertex(name)
                steps.append((cur, nxt, int(label)))
                cur = nxt
            path = TemporalPath(source=inst.vertex(first), steps=tuple(steps))
            try:
                validate_path(g, path)
            except ValueError as exc:
                return f"invalid sample {line!r}: {exc}"
            if path.source != s or path.steps not in allowed_steps:
                kind = "an" if optimal == "none" else f"a {optimal}"
                return f"sample {line!r} is not {kind} ({s},{z})-path"
        return None

    return check


def _expect_max_betweenness(inst: Instance, star: str, epsilon: float, delta: float,
                            ell_cap: int) -> Check:
    def check(out: str) -> str | None:
        g = inst.graph
        got = json.loads(out)
        exact = max(oracle.betweenness_bf(g, v, star) for v in range(g.n))
        value = Fraction(got["value"])
        if got["ell"] != min(formula_ell(g, epsilon), ell_cap):
            return f"unexpected ell {got['ell']}"
        if got["trials"] != amplification_runs(delta):
            return f"unexpected trials {got['trials']}"
        if abs(value - exact) > epsilon * exact:
            return f"estimate {float(value):.4f} not within {epsilon} of {float(exact):.4f}"
        return None

    return check


def _expect_estimate(inst: Instance, s: int, z: int, k: int, epsilon: float) -> Check:
    def check(out: str) -> str | None:
        lengths = Tally(p.length for p in oracle.enumerate_paths(inst.graph, s, z, limit=None))
        exact = lengths[k]
        value = Fraction(out.strip())
        if abs(value - exact) > epsilon * exact:
            return f"estimate {float(value):.4f} not within {epsilon} of exact {exact}"
        return None

    return check


# -------------------------------------------------------------- workloads


def _betweenness_small(rng_for, work: Path) -> list[Job]:
    jobs = []
    # Generator seeds of the random(9, 20, 20, .) panel; seed 1 is the
    # ROADMAP baseline graph (fastest betweenness over all vertices ~1.2 s).
    panel = {seed: write_instance(random_temporal_graph(9, 20, 20, seed), rng_for(f"r{seed}"),
                                  work / f"random-{seed}.txt") for seed in (1, 5, 10)}
    for seed, inst in panel.items():
        # An isolated vertex is not in the edge list, so the program never sees it.
        vertices = sorted({w for u, v, _ in inst.graph.time_edges for w in (u, v)})
        jobs.append(Job("betweenness", f"betweenness fastest all random-{seed}",
                        ["betweenness", "--star", "fastest", "--input", str(inst.path)],
                        _expect_betweenness(inst, "fastest", vertices)))
    for seed, v in ((10, 1), (10, 4), (5, 7)):
        inst = panel[seed]
        jobs.append(Job("betweenness", f"betweenness foremost v{v} random-{seed}",
                        ["betweenness", "--star", "foremost", "--vertex", inst.name(v),
                         "--input", str(inst.path)],
                        _expect_betweenness(inst, "foremost", [v])))
    for seed, s, z in ((10, 0, 4), (10, 1, 0), (10, 1, 2), (1, 0, 8)):
        inst = panel[seed]
        for star in ("foremost", "fastest"):
            jobs.append(Job("count_optimal", f"count-optimal {star} {s}->{z} random-{seed}",
                            ["count-optimal", "--star", star, "-s", inst.name(s),
                             "-z", inst.name(z), "--input", str(inst.path)],
                            _expect_optimal(inst, s, z, star)))
    return jobs


def _count_large(rng_for, work: Path) -> list[Job]:
    jobs = []
    forest_rng = rng_for("forest")
    forest = random_forest_graph(100_000, 120_000, 50, forest_rng.randrange(2**32))
    s = forest_rng.randrange(forest.n)
    reach = earliest_reach(forest, s)
    # The reachable vertex reached last, so the pair is temporally connected
    # and the count is a real DP rather than an early exit.
    z = max((r, -w, w) for w, r in enumerate(reach) if r is not None and w != s)[2]
    inst = write_instance(forest, forest_rng, work / "forest.txt")
    jobs.append(Job("count", "count auto forest-1e5",
                    ["count", "-s", inst.name(s), "-z", inst.name(z), "--input", str(inst.path)],
                    _expect_forest_count(inst, s, z)))

    length = 30_000
    inst = write_instance(width_bounded_chain(length), rng_for("chain"), work / "chain.txt")
    jobs.append(Job("count", f"count vimw chain-{length}",
                    ["count", "--algo", "vimw", "-s", inst.name(0), "-z", inst.name(length),
                     "--input", str(inst.path)], _expect_int(1)))

    # vimw and fen at 16 and 18 are the ROADMAP baseline; auto falls back to
    # the capped oracle, which is timed at 14 to keep a pass short.
    for length, algos in ((14, ("auto",)), (16, ("vimw", "fen")), (18, ("vimw", "fen"))):
        inst = write_instance(diamond_chain(length), rng_for(f"diamond{length}"),
                              work / f"diamond-{length}.txt")
        for algo in algos:
            jobs.append(Job("count", f"count {algo} diamond-{length}",
                            ["count", "--algo", algo, "-s", inst.name(0),
                             "-z", inst.name(inst.graph.n - 1), "--input", str(inst.path)],
                            _expect_int(2**length)))

    length = 30
    inst = write_instance(labelled_diamond_chain(length), rng_for("labelled"),
                          work / "labelled-diamond.txt")
    jobs.append(Job("count", f"count auto labelled-diamond-{length}",
                    ["count", "-s", inst.name(0), "-z", inst.name(inst.graph.n - 1),
                     "--input", str(inst.path)], _expect_int(2**length)))

    # The timed-FVS search in params is quadratic in the edges of a forest, so
    # it, not vim_sequence, sets the size: 1.4 s at T=600, 25 s at T=2,500.
    lifetime = 400
    inst = write_instance(width_bounded_chain(lifetime), rng_for("params"), work / "params.txt")
    expected = {"n": 2 * lifetime + 1, "time_edges": 2 * lifetime, "lifetime": lifetime,
                "is_forest": True, "vimw": 3, "vimw_bag_histogram": {"3": lifetime},
                "feedback_edge_number": 0, "condensed_links": 0, "timed_fvs_size": 0}
    jobs.append(Job("params", f"params chain-T{lifetime}",
                    ["params", "--format", "json", "--input", str(inst.path)],
                    _expect_params(expected)))
    return jobs


def _randomized(rng_for, work: Path) -> list[Job]:
    jobs = []
    count = 10_000
    inst = write_instance(random_temporal_graph(9, 20, 20, 1), rng_for("r1"), work / "random-1.txt")
    s, z = 0, 8
    for optimal in ("none", "fastest", "foremost"):
        seed = str(rng_for(f"sample-{optimal}").randrange(2**31))
        jobs.append(Job("sample", f"sample {optimal} random-1",
                        ["sample", "--count", str(count), "--optimal", optimal, "--seed", seed,
                         "-s", inst.name(s), "-z", inst.name(z), "--input", str(inst.path)],
                        _expect_samples(inst, s, z, count, optimal)))
    inst = write_instance(diamond_chain(8), rng_for("diamond8"), work / "diamond-8.txt")
    seed = str(rng_for("sample-diamond").randrange(2**31))
    jobs.append(Job("sample", "sample none diamond-8",
                    ["sample", "--count", str(count), "--seed", seed, "-s", inst.name(0),
                     "-z", inst.name(inst.graph.n - 1), "--input", str(inst.path)],
                    _expect_samples(inst, 0, inst.graph.n - 1, count, "none")))

    inst = write_instance(random_temporal_graph(9, 20, 20, 10), rng_for("r10"),
                          work / "random-10.txt")
    epsilon, delta, ell_cap = 0.5, 0.1, 200
    seed = str(rng_for("approx").randrange(2**31))
    jobs.append(Job("approx", "betweenness-approx foremost random-10",
                    ["betweenness-approx", "--star", "foremost", "--epsilon", str(epsilon),
                     "--delta", str(delta), "--ell-cap", str(ell_cap), "--seed", seed,
                     "--input", str(inst.path)],
                    _expect_max_betweenness(inst, "foremost", epsilon, delta, ell_cap)))

    # (1, 0) has 19 five-edge and 11 six-edge paths on this graph.
    inst = write_instance(random_temporal_graph(10, 30, 10, 3), rng_for("r10-30"),
                          work / "random-10-30.txt")
    s, z, epsilon = 1, 0, 0.5
    for k in (5, 6):
        seed = str(rng_for(f"estimate-{k}").randrange(2**31))
        jobs.append(Job("estimate", f"count estimate k={k} random-10-30",
                        ["count", "--algo", "estimate", "--k", str(k), "--epsilon", str(epsilon),
                         "--seed", seed, "-s", inst.name(s), "-z", inst.name(z),
                         "--input", str(inst.path)],
                        _expect_estimate(inst, s, z, k, epsilon)))
    return jobs


WORKLOADS = {
    "betweenness-small": _betweenness_small,
    "count-large": _count_large,
    "randomized": _randomized,
}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """Generate the workload's inputs from the seed, write them, return its jobs."""
    def rng_for(part: str) -> random.Random:
        return random.Random(f"{workload}/{seed}/{part}")

    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](rng_for, work)
