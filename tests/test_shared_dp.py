"""Cross-engine checks of the shared step-function label DP, at sizes the
brute-force oracle cannot enumerate.

The forest DP, the feedback-edge engine and the timed-FVS window counts all
run ``forest.advance``; vimw does not, so agreement with vimw is an
independent check.
"""

import random

import pytest

from chronopath.dispatch import DispatchCaps
from chronopath.fen import count_fen, feedback_edge_set
from chronopath.generate import diamond_chain
from chronopath.graph import underlying_graph
from chronopath.tfvs import compute_timed_fvs, count_tfvs
from chronopath.vimw import count_vimw, vimw_width

from conftest import make_graph


def staircase_diamonds(length: int):
    """Diamond chain whose i-th diamond is active at label i (1-based)."""
    edges = []
    for i in range(length):
        c = 3 * i
        for u, v in ((c, c + 1), (c, c + 2), (c + 1, c + 3), (c + 2, c + 3)):
            edges.append((u, v, i + 1))
    return make_graph(3 * length + 1, edges)


def block_chain(rng: random.Random, blocks: int):
    """Random tree blocks glued at cut vertices, block i on labels 3i+1..3i+3.

    Tree edges carry one to three labels; four blocks get one extra
    single-label edge, so the feedback edge number and a timed FVS stay <= 4.
    Returns the graph and the last cut vertex.
    """
    edges = []
    cut, nxt = 0, 1
    cyclic = set(rng.sample(range(blocks), 4))
    for i in range(blocks):
        verts = [cut] + list(range(nxt, nxt + rng.randint(2, 4)))
        nxt = verts[-1] + 1
        for j in range(1, len(verts)):
            parent = verts[rng.randrange(j)]
            for t in rng.sample(range(1, 4), rng.randint(1, 3)):
                edges.append((parent, verts[j], 3 * i + t))
        if i in cyclic:
            u, v = rng.sample(verts, 2)
            edges.append((u, v, 3 * i + rng.randint(1, 3)))
        cut = verts[-1]
    return make_graph(nxt, edges), cut


@pytest.mark.parametrize("length", [14, 16])
@pytest.mark.parametrize("build", [diamond_chain, staircase_diamonds], ids=["flat", "staircase"])
def test_diamond_chains(build, length):
    g = build(length)
    z = g.n - 1
    assert count_fen(g, 0, z) == count_vimw(g, 0, z) == 2**length


def test_fen_tfvs_vimw_agree_under_default_caps():
    caps = DispatchCaps()
    rng = random.Random(20240601)
    largest = 0
    for _ in range(30):
        g, last = block_chain(rng, rng.randint(4, 8))
        assert vimw_width(g) <= caps.vimw_cap
        assert len(feedback_edge_set(underlying_graph(g))) <= min(4, caps.fen_cap)
        x = compute_timed_fvs(g, budget=caps.tfvs_cap)
        for z in range(1, g.n):
            want = count_vimw(g, 0, z)
            assert count_fen(g, 0, z) == want
            assert count_tfvs(g, 0, z, tfvs=x) == want
        largest = max(largest, count_vimw(g, 0, last))
    assert largest > 10**4  # out of the oracle's comfortable reach
