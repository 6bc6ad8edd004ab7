"""Cross-engine checks of the shared step-function label DP, at sizes the
brute-force oracle cannot enumerate.

The forest DP, the feedback-edge engine and the timed-FVS window counts all
run ``forest.advance``; vimw does not, so agreement with vimw is an
independent check.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronopath.dispatch import DispatchCaps
from chronopath.errors import EnumerationLimitError
from chronopath.fen import count_fen, feedback_edge_set
from chronopath.generate import diamond_chain
from chronopath.graph import underlying_graph
from chronopath.oracle import count_paths_bf
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


def flat_block_chain(rng: random.Random, blocks: int):
    """Random blocks glued at cut vertices, every time-edge at label 1.

    The whole graph is vimw's last snapshot, so its count is read off the
    completion memo.  Each block is a random tree on three to five vertices
    plus one or two chords, so it is cyclic and the count multiplies at each
    cut vertex.  Returns the graph and the last cut vertex.
    """
    edges = []
    cut, nxt = 0, 1
    for _ in range(blocks):
        verts = [cut] + list(range(nxt, nxt + rng.randint(2, 4)))
        nxt = verts[-1] + 1
        tree = set()
        for j in range(1, len(verts)):
            tree.add((verts[rng.randrange(j)], verts[j]))
        chords = [
            (u, v)
            for i, u in enumerate(verts)
            for v in verts[i + 1 :]
            if (u, v) not in tree and (v, u) not in tree
        ]
        for u, v in [*tree, *rng.sample(chords, min(len(chords), rng.randint(1, 2)))]:
            edges.append((u, v, 1))
        cut = verts[-1]
    return make_graph(nxt, edges), cut


def test_flat_block_chains_split_at_cut_vertices():
    rng = random.Random(20261019)
    checked = largest = 0
    for _ in range(20):
        g, last = flat_block_chain(rng, rng.randint(6, 9))
        assert g.lifetime == 1
        assert len(feedback_edge_set(underlying_graph(g))) >= 6
        for z in range(1, g.n):
            want = count_vimw(g, 0, z)
            assert count_fen(g, 0, z) == want
            try:
                assert count_paths_bf(g, 0, z, limit=20_000) == want
                checked += 1
            except EnumerationLimitError:
                assert want > 20_000
        largest = max(largest, count_vimw(g, 0, last))
    assert checked > 100 and largest > 10**3


@st.composite
def late_snapshot_graphs(draw):
    """Random edges at labels 1..3, then a connected snapshot of 6+ vertices at 4."""
    n = draw(st.integers(6, 8))
    early = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            min_size=1,
            max_size=12,
        )
    )
    spine = draw(st.permutations(range(n)))[: draw(st.integers(6, n))]
    extra = draw(st.sets(st.tuples(st.sampled_from(spine), st.sampled_from(spine)), max_size=6))
    edges = {(u, v, t) for u, v, t in early if u != v}
    edges |= {(u, v, 4) for u, v in zip(spine, spine[1:])}
    edges |= {(u, v, 4) for u, v in extra if u != v}
    return make_graph(n, edges), spine


@settings(max_examples=80, deadline=None)
@given(late_snapshot_graphs(), st.integers(0, 35), st.integers(0, 35))
def test_vimw_last_snapshot_memo_against_oracle(gs, s_pick, z_pick):
    g, spine = gs
    s, z = s_pick % g.n, spine[z_pick % len(spine)]
    assert count_vimw(g, s, z) == count_paths_bf(g, s, z)
