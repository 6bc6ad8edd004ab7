import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronopath.errors import EdgeListParseError
from chronopath.graph import (
    TemporalGraph,
    TemporalPath,
    connectivity_matrix,
    earliest_arrival,
    fastest_duration,
    from_json,
    parse,
    restrict,
    to_json,
    to_text,
    underlying_graph,
    validate_path,
    without_static_edge,
)
from chronopath.generate import random_temporal_graph
from chronopath.oracle import iter_paths

from conftest import I1, I2, I5, make_graph, random_instance


def test_parse_basic():
    g = parse("0 1 1\n1 2 2")
    assert g.n == 3
    assert g.lifetime == 2
    assert g.time_edges == ((0, 1, 1), (1, 2, 2))


def test_parse_remaps_sparse_labels():
    g = parse("0 1 5\n1 2 9")
    assert g.lifetime == 2
    assert {t for _, _, t in g.time_edges} == {1, 2}
    assert g.label_names == (5, 9)


def test_parse_rejects_loops_and_bad_labels():
    with pytest.raises(EdgeListParseError):
        parse("0 0 1")
    with pytest.raises(EdgeListParseError):
        parse("0 1 0")
    with pytest.raises(EdgeListParseError):
        parse("0 1")
    with pytest.raises(EdgeListParseError):
        parse("0 1 x")


def test_parse_symbol_table():
    g = parse("7 5 1\n5 9 2")
    assert g.n == 3
    assert g.vertex_names == (7, 5, 9)
    assert g.resolve_vertex(9) == 2
    with pytest.raises(KeyError):
        g.resolve_vertex(4)


def test_parse_comments_and_duplicates():
    g = parse("# header\n0 1 1  # inline\n1 0 1\n\n")
    assert g.time_edges == ((0, 1, 1),)


def test_serialize_roundtrip_text_and_json():
    g = parse("0 1 1\n1 2 2\n0 2 3")
    assert parse(to_text(g)).time_edges == g.time_edges
    h = from_json(to_json(g))
    assert (h.n, h.lifetime, h.time_edges) == (g.n, g.lifetime, g.time_edges)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_random(data):
    n = data.draw(st.integers(2, 7))
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9)),
            max_size=12,
        )
    )
    edges = {(u, v, t) for u, v, t in edges if u != v}
    g = make_graph(n, edges)
    h = from_json(to_json(g))
    assert (h.n, h.lifetime, h.time_edges) == (g.n, g.lifetime, g.time_edges)


def test_underlying_graph():
    assert underlying_graph(make_graph(2, [(0, 1, 1), (0, 1, 2)])).sorted_edges == ((0, 1),)
    assert underlying_graph(I1).sorted_edges == ((0, 1), (1, 2))
    assert underlying_graph(make_graph(3, [])).sorted_edges == ()


def test_earliest_arrival_examples():
    assert earliest_arrival(I1, 0, 2) == 2
    assert earliest_arrival(I2, 0, 2) is None
    assert earliest_arrival(I1, 0, 0) == 1


def test_fastest_duration_examples():
    assert fastest_duration(I1, 0, 2) == 1
    assert fastest_duration(I5, 0, 2) == 0
    assert fastest_duration(I2, 0, 2) is None
    assert fastest_duration(I1, 1, 1) == 0


def test_connectivity_matrix_examples():
    a = connectivity_matrix(I1)
    assert a[0][2] and not a[2][0]
    assert all(a[v][v] for v in range(3))
    assert not connectivity_matrix(I2)[0][2]
    assert connectivity_matrix(make_graph(1, [])) == [[True]]


def test_restrict_examples():
    r = restrict(I5, 1, 2)
    assert r.time_edges == ((0, 1, 1), (1, 2, 2))
    assert restrict(I1, 1, 2, {1}).time_edges == ()
    assert restrict(I1, 1, 2).time_edges == I1.time_edges
    with pytest.raises(ValueError):
        restrict(I1, 3, 2)


def _reference_indices(g: TemporalGraph):
    """incident and the per-label adjacency, built the way they were before the
    snapshot index: edges grouped by label, then walked label by label."""
    edges_at = defaultdict(list)
    for u, v, t in g.time_edges:
        edges_at[t].append((u, v))
    incident = {v: [] for v in range(g.n)}
    snapshots = []
    for t in sorted(edges_at):
        adj = defaultdict(list)
        for u, v in edges_at[t]:
            incident[u].append((v, t))
            incident[v].append((u, t))
            adj[u].append(v)
            adj[v].append(u)
        snapshots.append((t, [(x, tuple(nbrs)) for x, nbrs in adj.items()]))
    return incident, snapshots


def test_snapshot_index_matches_reference_order(rng):
    # Sampler seeds depend on the order of incident, so the order is pinned
    # too, on whole graphs and on cuts with label gaps and deleted vertices.
    graphs = [
        random_temporal_graph(rng.randint(6, 12), 20, rng.randint(2, 15), seed)
        for seed in range(40)
    ]
    graphs += [random_instance(rng, n_hi=10, t_hi=8, m_hi=30) for _ in range(80)]
    for g in graphs:
        lo = rng.randint(1, g.lifetime)
        cuts = (g, restrict(g, lo, rng.randint(lo, g.lifetime), {rng.randrange(g.n)}))
        for h in cuts:
            incident, snapshots = _reference_indices(h)
            assert h.incident == incident
            assert [(t, list(adj.items())) for t, adj in h.snapshots.items()] == snapshots


def test_cut_that_drops_nothing_is_its_graph():
    g = parse("0 1 5\n1 2 9\n2 3 9\n")
    assert restrict(g, 1, g.lifetime) is g
    assert restrict(g, 1, g.lifetime, {4}) is g
    assert without_static_edge(g, 0, 2) is g
    for cut in (restrict(g, 2, 2), restrict(g, 1, 2, {0}), without_static_edge(g, 1, 0)):
        assert cut is not g and len(cut.time_edges) == len(g.time_edges) - 1
        assert cut.label_names is None and g.label_names == (5, 9)


def test_reachability_against_bruteforce(rng):
    for _ in range(120):
        g = random_instance(rng, n_hi=7)
        for s in range(g.n):
            for z in range(g.n):
                paths = list(iter_paths(g, s, z))
                arrivals = [p.arrival_time for p in paths if p.steps]
                want_ea = min(arrivals) if arrivals else (1 if s == z else None)
                if s == z:
                    want_ea = 1
                assert earliest_arrival(g, s, z) == want_ea
                durations = [
                    p.arrival_time - p.start_time for p in paths if p.steps
                ]
                want_fd = min(durations) if durations else (0 if s == z else None)
                if s == z:
                    want_fd = 0
                assert fastest_duration(g, s, z) == want_fd
                assert connectivity_matrix(g)[s][z] == bool(paths)


def test_earliest_arrival_iff_connected(rng):
    for _ in range(40):
        g = random_instance(rng)
        a = connectivity_matrix(g)
        for s in range(g.n):
            for z in range(g.n):
                if s == z:
                    continue
                assert (earliest_arrival(g, s, z) is None) == (not a[s][z])


def test_validate_path():
    validate_path(I1, TemporalPath(source=0, steps=((0, 1, 1), (1, 2, 2))))
    validate_path(I1, TemporalPath(source=0))
    with pytest.raises(ValueError):
        validate_path(I1, TemporalPath(source=0, steps=((0, 1, 2), (1, 2, 1))))
    with pytest.raises(ValueError):
        validate_path(I1, TemporalPath(source=0, steps=((0, 2, 1),)))
    with pytest.raises(ValueError):
        validate_path(
            I1, TemporalPath(source=0, steps=((0, 1, 1), (1, 0, 1)))
        )


def _reference_parse(text: str) -> TemporalGraph:
    """The edge-list parser as a plain line loop: check, name and normalise line by line."""
    ids: dict[int, int] = {}
    raw: list[tuple[int, int, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise EdgeListParseError(f"line {line_no}: expected 'u v t', got {body!r}")
        try:
            u_name, v_name, t = (int(p) for p in parts)
        except ValueError:
            raise EdgeListParseError(f"line {line_no}: non-integer field in {body!r}") from None
        if u_name < 0 or v_name < 0:
            raise EdgeListParseError(f"line {line_no}: negative vertex identifier")
        if t < 1:
            raise EdgeListParseError(f"line {line_no}: time label must be >= 1")
        if u_name == v_name:
            raise EdgeListParseError(f"line {line_no}: loop edge at vertex {u_name}")
        for name in (u_name, v_name):
            if name not in ids:
                ids[name] = len(ids)
        raw.append((ids[u_name], ids[v_name], t))
    dedup = {(min(u, v), max(u, v), t) for u, v, t in raw}
    used_labels = sorted({t for _, _, t in dedup})
    remap = {t: i + 1 for i, t in enumerate(used_labels)}
    return TemporalGraph(
        n=len(ids),
        time_edges=tuple(sorted((u, v, remap[t]) for u, v, t in dedup)),
        lifetime=len(used_labels),
        vertex_names=tuple(ids) or None,
        label_names=tuple(used_labels) or None,
    )


# int() reads every spelling, str.split() splits at every gap, and
# str.splitlines() also ends a line at "\x0b", "\x1c" and "\u2028".
_SPELLINGS = (str, lambda x: f"+{x}", lambda x: f"0{x}", lambda x: "_".join(str(x)))
_GAPS = (" ", "  ", "\t", " \t ", "\x1f", "\xa0")
_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028")

# One malformed line per error kind, in the order the checks run.
_BAD_LINES = {
    "count": ("0 1", "0 1 2 3", "5"),
    "integer": ("0 x 1", "0 1 1.5", "1e3 2 3"),
    "negative": ("-1 2 3", "4 -0_1 1", "-2 -2 0"),
    "label": ("0 1 0", "3 4 -7", "6 6 0"),
    "loop": ("4 4 1", "07 7 2", "+3 3 9"),
}


def _edge_line(rng: random.Random, pool: list[int]) -> str:
    u, v = rng.sample(pool, 2)
    fields = [rng.choice(_SPELLINGS)(x) for x in (u, v, rng.randint(1, 40))]
    line = rng.choice(("", " ", "\t")) + rng.choice(_GAPS).join(fields) + rng.choice(("", " "))
    return line + (" # note 1 2" if rng.random() < 0.2 else "")


def _document(rng: random.Random, bad: list[str] = ()) -> str:
    pool = rng.sample(range(60), rng.randint(2, 9))
    lines = []
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(("", "   ", "\t", "# a comment", "  # 1 2 3")))
        elif kind < 0.3 and lines:
            lines.append(rng.choice(lines))  # a repeated edge or blank line
        else:
            lines.append(_edge_line(rng, pool))
    for line in bad:
        lines.insert(rng.randint(0, len(lines)), line)
    end = rng.choice(_ENDS)
    return end.join(lines) + (end if rng.random() < 0.5 else "")


def _outcome(parser, text: str):
    try:
        return parser(text)
    except EdgeListParseError as exc:
        return f"error: {exc}"


def test_parse_matches_line_loop_reference():
    rng = random.Random(0x5EED)
    for _ in range(400):
        text = _document(rng)
        want = _reference_parse(text)
        assert parse(text) == want, repr(text)
    assert parse("") == _reference_parse("") == TemporalGraph(0, (), 0)


def test_parse_errors_match_line_loop_reference():
    rng = random.Random(0xBAD)
    kinds = list(_BAD_LINES)
    for first in kinds:
        for second in [None, *kinds]:
            for _ in range(12):
                bad = [rng.choice(_BAD_LINES[first])]
                if second is not None:
                    bad.append(rng.choice(_BAD_LINES[second]))
                text = _document(rng, bad)
                want = _outcome(_reference_parse, text)
                assert want.startswith("error: line "), repr(text)
                assert _outcome(parse, text) == want, repr(text)


def test_parse_names_the_first_bad_line():
    text = "0 1 1\n2 2 1\n3 4\n-1 0 2\n"
    with pytest.raises(EdgeListParseError, match="^line 2: loop edge at vertex 2$"):
        parse(text)
    with pytest.raises(EdgeListParseError, match="^line 3: expected 'u v t', got '3 4'$"):
        parse("# head\n0 1 1\n3 4 # short\n0 1 x\n")
