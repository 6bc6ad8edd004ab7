"""Cross-validation between independent exact engines beyond oracle reach.

The three FPT counters share no code path beyond the graph model, so their
agreement on instances too large to enumerate is strong differential
evidence.  Counts here run into the millions.
"""

import random

import pytest

from chronopath import dispatch
from chronopath.cli import _counter_for
from chronopath.dispatch import DispatchCaps, dispatch_count
from chronopath.fen import count_fen
from chronopath.generate import diamond_chain, random_temporal_graph
from chronopath.reductions import betweenness_exact, sigma_through
from chronopath.tfvs import compute_timed_fvs, count_tfvs
from chronopath.vimw import count_vimw
from chronopath.errors import BudgetExceededError

from conftest import make_graph


def test_vimw_fen_agree_on_medium_instances():
    from chronopath.vimw import vimw_width

    rng = random.Random(0xD1FF)
    compared = 0
    while compared < 20:
        n = rng.randint(10, 15)
        m = rng.randint(n + 1, n + 7)
        t_max = rng.randint(4, 8)
        edges = set()
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v), rng.randint(1, t_max)))
        g = make_graph(n, edges)
        if vimw_width(g) > 8:
            continue
        s, z = rng.sample(range(n), 2)
        a = count_vimw(g, s, z)
        b = count_fen(g, s, z)
        assert a == b, (g.time_edges, s, z, a, b)
        try:
            x = compute_timed_fvs(g, budget=2)
        except BudgetExceededError:
            x = None
        if x is not None:
            assert count_tfvs(g, s, z, tfvs=x) == a
        compared += 1


def test_all_engines_on_wide_diamond():
    g = diamond_chain(14)
    s, z = 0, g.n - 1
    want = 2**14
    assert count_vimw(g, s, z) == want
    assert count_fen(g, s, z) == want
    # The timed-FVS engine needs a set per two diamonds; keep it at a
    # desk-scale set size on a shorter chain.
    small = diamond_chain(6)
    assert count_tfvs(small, 0, small.n - 1) == 2**6


# (random_temporal_graph arguments, caps, engine chosen for the whole graph):
# one row per engine.  Width 9 is over the vimw cap and f = 8 is not, so
# fen runs; the tfvs and oracle rows tighten the caps that would come first.
BOUND_PANEL = [
    ((8, 10, 10, 12), DispatchCaps(), "forest"),
    ((9, 20, 20, 3), DispatchCaps(), "vimw"),
    ((9, 20, 20, 1), DispatchCaps(), "fen"),
    ((10, 16, 12, 2), DispatchCaps(vimw_cap=7, fen_cap=5), "tfvs"),
    # Only the oracle is left for the whole graph, and some foremost windows
    # hold more than 5 paths: the bound counter routes those on their own.
    ((8, 14, 10, 7), DispatchCaps(vimw_cap=6, tfvs_cap=0, fen_cap=0, oracle_limit=5), "oracle"),
]


@pytest.mark.parametrize("args, caps, engine", BOUND_PANEL)
def test_bound_counter_matches_per_instance_routing(args, caps, engine, monkeypatch):
    """One engine chosen on g counts every cut of g as routing each cut would."""
    g = random_temporal_graph(*args)
    chosen, bound = _counter_for(g, "auto", caps)
    assert chosen == engine

    def routed(h, s, z):
        return dispatch_count(h, s, z, "auto", caps)

    rerouted = []
    select = dispatch.select_algorithm

    def counting_select(*a, **kw):
        rerouted.append(a[0])
        return select(*a, **kw)

    vertices = list(range(g.n))
    pairs = [(s, z) for s in vertices for z in vertices if s != z]
    for star in ("foremost", "fastest"):
        want = betweenness_exact(g, vertices, star, routed)
        sigmas = [sigma_through(g, s, z, set(vertices) - {s, z}, star, routed) for s, z in pairs]
        with monkeypatch.context() as m:
            m.setattr(dispatch, "select_algorithm", counting_select)
            assert betweenness_exact(g, vertices, star, bound) == want, star
            for (s, z), sigma in zip(pairs, sigmas):
                assert sigma_through(g, s, z, set(vertices) - {s, z}, star, bound) == sigma
    # Only a cut too large for the oracle is routed again, and never g.
    assert bool(rerouted) == (engine == "oracle")
    assert all(h is not g for h in rerouted)
