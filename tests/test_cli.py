import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from chronopath.dispatch import DispatchCaps, dispatch_count
from chronopath.errors import EdgeListParseError, NoFeasibleAlgorithmError
from chronopath.graph import from_json, parse, to_json
from chronopath.oracle import count_paths_bf
from chronopath.rng import child_rng
from chronopath.sampling import PathSampler

from conftest import make_graph, random_instance

I5_TEXT = "0 1 1\n1 2 2\n0 2 3\n"


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "chronopath.cli", *args],
        input=stdin.encode(),
        capture_output=True,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_count_subcommand_all_algorithms():
    for algo in ("auto", "oracle", "vimw", "tfvs", "fen"):
        code, out, err = run_cli(["count", "-s", "0", "-z", "2", "--algo", algo], I5_TEXT)
        assert code == 0, err
        assert out.strip() == "2"


def test_count_oracle_on_long_path():
    """The oracle enumerates a 1,500-step path without hitting the recursion limit."""
    from chronopath.generate import width_bounded_chain
    from chronopath.graph import to_text

    text = to_text(width_bounded_chain(1500, width3=False))
    code, out, err = run_cli(["count", "-s", "0", "-z", "1500", "--algo", "oracle"], text)
    assert code == 0, err
    assert out == "1\n"


def test_forced_engines_count_long_diamonds():
    """vimw and fen count the 2^400 paths of a 400-diamond chain, 800 walk steps deep."""
    code, text, _ = run_cli(["gen", "--kind", "diamond", "--length", "400"])
    assert code == 0
    for algo in ("vimw", "fen"):
        proc = subprocess.run(
            [sys.executable, "-m", "chronopath.cli", "count", "-s", "0", "-z", "1200", "--algo", algo],
            input=text.encode(),
            capture_output=True,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == f"{2**400}\n", algo


def test_count_json_output():
    code, out, _ = run_cli(["count", "-s", "0", "-z", "2", "--format", "json"], I5_TEXT)
    assert code == 0
    assert json.loads(out) == {"count": "2", "algo": "vimw"}
    code, out, _ = run_cli(
        ["count", "-s", "0", "-z", "2", "--algo", "fen", "--format", "json"], I5_TEXT
    )
    assert json.loads(out) == {"count": "2", "algo": "fen"}


def test_count_forest_precondition():
    code, _, err = run_cli(["count", "-s", "0", "-z", "2", "--algo", "forest"], I5_TEXT)
    assert code == 2
    assert "cycle" in err


def test_input_errors_exit_2():
    code, _, _ = run_cli(["count", "-s", "0", "-z", "2"], "0 0 1\n")
    assert code == 2
    code, _, _ = run_cli(["count", "-s", "0", "-z", "9"], I5_TEXT)
    assert code == 2
    code, _, _ = run_cli(["count", "-s", "0", "-z", "2", "--input", "/nonexistent"], "")
    assert code == 2


def test_negative_sample_count_and_tfvs_budget_exit_2():
    code, out, err = run_cli(["sample", "-s", "0", "-z", "2", "--count", "-2"], I5_TEXT)
    assert (code, out) == (2, "") and "--count" in err
    assert run_cli(["sample", "-s", "0", "-z", "2", "--count", "0"], I5_TEXT) == (0, "", "")
    # A forest: its timed FVS is empty, but a negative budget is still refused.
    code, out, err = run_cli(["params", "--tfvs-budget", "-1"], "0 1 1\n1 2 2\n")
    assert (code, out) == (2, "") and "--tfvs-budget" in err


@pytest.mark.parametrize("flag", ["--vimw-cap", "--fen-cap", "--tfvs-cap", "--oracle-limit"])
def test_negative_routing_cap_exits_2(flag):
    for algo in ("auto", "oracle"):
        code, out, err = run_cli(["count", "-s", "0", "-z", "2", "--algo", algo, flag, "-1"], I5_TEXT)
        assert (code, out, err) == (2, "", f"error: {flag} must be >= 0, got -1\n")
        assert run_cli(["count", "-s", "0", "-z", "2", "--algo", algo, flag, "0"], I5_TEXT)[:2] == (0, "2\n")


def test_bad_stats_flags_exit_4():
    code, _, _ = run_cli(
        ["betweenness-approx", "--star", "foremost", "--epsilon", "2.0", "--delta", "0.1"],
        I5_TEXT,
    )
    assert code == 4
    code, _, _ = run_cli(
        ["count", "-s", "0", "-z", "2", "--algo", "estimate", "--delta", "7"], I5_TEXT
    )
    assert code == 4
    for cap in ("0", "-3"):
        code, out, err = run_cli(
            ["betweenness-approx", "--star", "foremost", "--epsilon", "0.5", "--delta", "0.1",
             "--ell-cap", cap],
            I5_TEXT,
        )
        assert (code, out) == (4, "") and "ell_cap" in err


def dense_clique_text():
    return "".join(f"{u} {v} 1\n" for u in range(6) for v in range(u + 1, 6))


def test_no_feasible_algorithm_exit_3():
    g = make_graph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    with pytest.raises(NoFeasibleAlgorithmError):
        dispatch_count(
            g, 0, 5, caps=DispatchCaps(vimw_cap=0, tfvs_cap=0, fen_cap=0, oracle_limit=2)
        )
    code, _, _ = run_cli(
        [
            "count", "-s", "0", "-z", "5",
            "--vimw-cap", "0", "--tfvs-cap", "0", "--fen-cap", "0", "--oracle-limit", "2",
        ],
        dense_clique_text(),
    )
    assert code == 3


def test_betweenness_approx_over_draw_budget_exits_3():
    """Without --ell-cap the analysis asks for ~8.5e9 draws here; that is refused up front."""
    args = ["betweenness-approx", "--star", "foremost", "--epsilon", "0.5", "--delta", "0.1"]
    proc = subprocess.run(
        [sys.executable, "-m", "chronopath.cli", *args],
        input=b"0 1 1\n1 2 2\n",
        capture_output=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert "8,542,809,160 path draws" in proc.stderr.decode()


def test_estimate_over_work_budget_exits_3():
    """Estimating every length on 15 vertices would take hours; it is refused up front."""
    code, graph, _ = run_cli(
        ["gen", "--kind", "random", "--n", "16", "--m", "30", "--t-max", "6", "--seed", "1"]
    )
    assert code == 0
    for extra in ([], ["--k", "14"]):
        proc = subprocess.run(
            [sys.executable, "-m", "chronopath.cli", "count", "--algo", "estimate",
             "-s", "0", "-z", "1", *extra],
            input=graph.encode(),
            capture_output=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (3, b""), extra
        assert "colour-subset tables" in proc.stderr.decode()
        assert "--k-max" in proc.stderr.decode()


def test_estimate_budget_counts_time_edges():
    """k = 8 on 24 vertices and 240 time-edges would take minutes; it is refused at once."""
    code, graph, _ = run_cli(
        ["gen", "--kind", "random", "--n", "24", "--m", "240", "--t-max", "12", "--seed", "1"]
    )
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "chronopath.cli", "count", "--algo", "estimate",
         "--k", "8", "--epsilon", "0.5", "-s", "0", "-z", "1"],
        input=graph.encode(),
        capture_output=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert "240 time-edges" in proc.stderr.decode()


def test_betweenness_routes_once_on_the_input_graph():
    """All-vertex foremost betweenness on random(12, 30, 40, 1) routes g once.

    Routing every restricted sub-instance instead took about 20 s, almost
    all of it in timed-FVS searches; the values are the ones it gave.
    """
    code, graph, _ = run_cli(
        ["gen", "--kind", "random", "--n", "12", "--m", "30", "--t-max", "40", "--seed", "1"]
    )
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "chronopath.cli", "betweenness", "--star", "foremost"],
        input=graph.encode(),
        capture_output=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split("\t") for line in proc.stdout.decode().splitlines())
    assert rows == {
        "0": "0", "1": "122/3", "2": "32/3", "3": "53/2", "4": "11/2", "5": "48",
        "6": "9/2", "7": "10/3", "8": "21/2", "9": "1/2", "10": "39/2", "11": "1",
    }


def test_count_auto_selects_once(tmp_path, monkeypatch, capsys):
    """The oracle fallback of `count --algo auto` is chosen once and keeps its cap."""
    from chronopath import cli, dispatch

    calls = []
    select = dispatch.select_algorithm

    def counting_select(*args, **kwargs):
        calls.append(args)
        return select(*args, **kwargs)

    monkeypatch.setattr(dispatch, "select_algorithm", counting_select)
    monkeypatch.setattr(cli, "select_algorithm", counting_select)
    path = tmp_path / "clique.txt"
    path.write_text(dense_clique_text())
    no_engine = ["--vimw-cap", "0", "--tfvs-cap", "0", "--fen-cap", "0"]
    code = cli.main(["count", "-s", "0", "-z", "5", "-i", str(path), "--format", "json", *no_engine])
    assert code == 0
    g = make_graph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    assert json.loads(capsys.readouterr().out) == {
        "count": str(count_paths_bf(g, 0, 5)), "algo": "oracle",
    }
    assert len(calls) == 1
    calls.clear()
    code = cli.main(["count", "-s", "0", "-z", "5", "-i", str(path), *no_engine, "--oracle-limit", "2"])
    assert code == 3 and len(calls) == 1
    assert "too large for brute force" in capsys.readouterr().err
    with pytest.raises(NoFeasibleAlgorithmError):
        dispatch_count(g, 0, 5, algo="oracle", caps=DispatchCaps(oracle_limit=2))
    assert dispatch_count(g, 0, 5, algo="oracle", caps=DispatchCaps(oracle_limit=None)) == 65
    # An oracle named on the command line is not capped.
    code = cli.main(
        ["count", "-s", "0", "-z", "5", "-i", str(path), "--algo", "oracle", "--oracle-limit", "2"]
    )
    assert code == 0 and capsys.readouterr().out == "65\n"


def test_sample_over_oracle_limit_selects_and_enumerates_once(tmp_path, monkeypatch, capsys):
    """The sampler's top-level count is made on the input graph itself, so an
    oracle over its limit there ends the job: no second routing, no second run."""
    from chronopath import cli, dispatch, oracle
    from chronopath.generate import random_temporal_graph
    from chronopath.graph import to_text

    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(cli, "select_algorithm")
    counting(dispatch, "select_algorithm")
    counting(oracle, "count_paths_bf")
    # Every engine over its cap and an oracle limit of one path.
    monkeypatch.setattr(DispatchCaps.__new__, "__defaults__", (0, 0, 0, 1))
    path = tmp_path / "g.txt"
    path.write_text(to_text(random_temporal_graph(9, 20, 20, 5)))
    assert cli.main(["sample", "-s", "0", "-z", "1", "-i", str(path)]) == 3
    assert "too large for brute force" in capsys.readouterr().err
    assert calls == ["select_algorithm", "count_paths_bf"]


def test_tfvs_file_speaks_the_input_names_and_labels(tmp_path, capsys):
    """A --tfvs-file names vertices and labels as the input file does.

    The input is a 4-cycle with vertex names 10..40 first seen out of order
    and gapped labels 5, 9, 40, 77; the set is an appearance of s itself.
    """
    from chronopath import cli

    text = "30 40 77\n20 30 9\n10 20 5\n10 40 40\n"
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    g = parse(text)
    want = count_paths_bf(g, g.resolve_vertex(10), g.resolve_vertex(30))
    assert want == 2
    args = ["count", "--algo", "tfvs", "-s", "10", "-z", "30", "-i", str(graph), "--tfvs-file"]
    for body, code, out, err in (
        ("# s leaves at label 40\n10 40\n", 0, f"{want}\n", ""),
        ("10 6\n", 2, "", "error: unknown time label 6 in timed-FVS file\n"),
        ("10 40 1\n", 2, "", "error: bad timed-FVS line '10 40 1'\n"),
    ):
        tfvs_file = tmp_path / "x.txt"
        tfvs_file.write_text(body)
        assert cli.main([*args, str(tfvs_file)]) == code, body
        assert capsys.readouterr() == (out, err), body


def test_named_tfvs_searches_once_per_job(tmp_path, monkeypatch, capsys):
    """`--algo tfvs` without a set searches the input graph once and counts
    every cut with that set; it prints what fen prints."""
    from chronopath import cli, tfvs
    from chronopath.generate import random_temporal_graph
    from chronopath.graph import to_text

    searches = []
    search = tfvs.compute_timed_fvs

    def counting(g, *args, **kwargs):
        searches.append(g)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(tfvs, "compute_timed_fvs", counting)
    path = tmp_path / "g.txt"
    path.write_text(to_text(random_temporal_graph(8, 14, 6, 3)))
    out = {}
    for algo in ("tfvs", "fen"):
        args = ["betweenness", "--algo", algo, "--star", "foremost", "-i", str(path)]
        assert cli.main(args) == 0
        out[algo] = capsys.readouterr().out
    assert len(searches) == 1
    assert out["tfvs"] == out["fen"]


def test_engine_work_cap_exits_3(monkeypatch, capsys):
    """An engine that hits its work cap ends the run with exit 3, not as an input error."""
    from chronopath import cli, fen
    from chronopath.generate import diamond_chain
    from chronopath.graph import to_text

    monkeypatch.setattr(fen, "SEQUENCE_CAP_CONSTANT", 0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(to_text(diamond_chain(6))))
    assert cli.main(["count", "--algo", "fen", "-s", "0", "-z", "18"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "condensed sequence enumeration exceeded cap" in captured.err


def test_dispatch_routing(rng):
    forest = make_graph(3, [(0, 1, 1), (1, 2, 2)])
    assert dispatch_count(forest, 0, 2) == 1
    for _ in range(40):
        g = random_instance(rng, n_hi=8, m_hi=14)
        s, z = rng.sample(range(g.n), 2)
        assert dispatch_count(g, s, z) == count_paths_bf(g, s, z)


def test_dispatch_selection_is_parameter_driven():
    from chronopath.dispatch import select_algorithm

    forest = make_graph(3, [(0, 1, 1), (1, 2, 2)])
    assert select_algorithm(forest)[0] == "forest"

    # Staggered diamonds: width 4 under its cap wins over f = 6.
    edges = []
    corner, nxt = 0, 1
    for i in range(1, 7):
        w1, w2, after = nxt, nxt + 1, nxt + 2
        nxt += 3
        edges += [(corner, w1, i), (corner, w2, i), (w1, after, i), (w2, after, i)]
        corner = after
    staggered = make_graph(nxt, edges)
    assert select_algorithm(staggered)[0] == "vimw"

    # One cycle: width 3 under its cap wins over f = 1 and |X| = 1.
    cycle = make_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])
    assert select_algorithm(cycle) == ("vimw", None)
    # Width over its cap and f under its cap: fen.
    assert select_algorithm(cycle, DispatchCaps(vimw_cap=2))[0] == "fen"
    # Both over their caps: the timed-FVS search, then the oracle.
    both_over = DispatchCaps(vimw_cap=2, fen_cap=0)
    assert select_algorithm(cycle, both_over) == ("tfvs", frozenset({(0, 1)}))
    assert select_algorithm(cycle, both_over._replace(tfvs_cap=0)) == ("oracle", None)

    # A supplied timed FVS is used only when vimw and fen are both over
    # their caps, and then as-is, in place of the search.
    supplied = frozenset({(0, 4)})
    assert select_algorithm(cycle, tfvs_set=supplied) == ("vimw", supplied)
    assert select_algorithm(cycle, DispatchCaps(vimw_cap=2), supplied)[0] == "fen"
    assert select_algorithm(cycle, both_over._replace(tfvs_cap=0), supplied) == (
        "tfvs", supplied,
    )


def test_dispatch_searches_timed_fvs_only_when_vimw_and_fen_do_not_fit(rng, monkeypatch):
    from chronopath import fen, tfvs
    from chronopath.dispatch import select_algorithm
    from chronopath.graph import underlying_graph
    from chronopath.vimw import vimw_width

    def no_search(*args, **kwargs):
        raise AssertionError("timed-FVS search although vimw or fen fits")

    searched = 0
    for _ in range(120):
        g = random_instance(rng, n_lo=4, n_hi=9, m_hi=18)
        caps = DispatchCaps(vimw_cap=rng.randint(0, 8), fen_cap=rng.randint(0, 6))
        static = underlying_graph(g)
        fits = static.is_forest or (
            vimw_width(g) <= caps.vimw_cap
            or len(fen.feedback_edge_set(static)) <= caps.fen_cap
        )
        with monkeypatch.context() as m:
            if fits:
                m.setattr(tfvs, "compute_timed_fvs", no_search)
            engine, _ = select_algorithm(g, caps)
        assert (engine in ("tfvs", "oracle")) == (not fits), engine
        searched += not fits
    assert searched  # the panel reaches the search, too


def test_count_optimal_subcommand():
    code, out, _ = run_cli(
        ["count-optimal", "-s", "0", "-z", "2", "--star", "fastest"], I5_TEXT
    )
    assert code == 0 and out.strip() == "1"


def test_betweenness_subcommand():
    code, out, _ = run_cli(["betweenness", "--star", "foremost"], "0 1 1\n1 2 2\n")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows == {"0": "0", "1": "1", "2": "0"}


def test_sample_subcommand_deterministic():
    args = ["sample", "-s", "0", "-z", "2", "--count", "6", "--seed", "9"]
    a = run_cli(args, I5_TEXT)
    b = run_cli(args, I5_TEXT)
    assert a == b and a[0] == 0
    assert len(a[1].strip().splitlines()) == 6


def test_sample_optimal_subcommand():
    code, out, _ = run_cli(
        ["sample", "-s", "0", "-z", "2", "--count", "3", "--optimal", "fastest"],
        I5_TEXT,
    )
    assert code == 0
    assert out.splitlines() == ["0 2@3"] * 3


def test_sample_optimal_refuses_s_equal_to_z_as_count_optimal_does():
    refused = (2, "", "error: optimal windows require s != z\n")
    assert run_cli(["count-optimal", "-s", "0", "-z", "0", "--star", "fastest"], I5_TEXT) == refused
    for star in ("foremost", "fastest"):
        assert run_cli(["sample", "-s", "0", "-z", "0", "--optimal", star], I5_TEXT) == refused


def test_sample_json_streams_the_bytes_of_one_dump():
    text = "0 1 1\n1 2 2\n0 2 3\n1 3 2\n3 2 3\n"
    g = parse(text)
    for count in (0, 3):
        code, out, err = run_cli(
            ["sample", "-s", "0", "-z", "2", "--count", str(count), "--seed", "4", "--format", "json"],
            text,
        )
        sampler = PathSampler(g, 0, 2, lambda h, s, z: dispatch_count(h, s, z))
        rng = child_rng(4, "cli-sample", "none", 0, 2)
        paths = [sampler.sample(rng) for _ in range(count)]
        want = json.dumps({"paths": [[list(step) for step in p.steps] for p in paths]}, sort_keys=True)
        assert (code, out, err) == (0, want + "\n", "")


def test_betweenness_approx_subcommand():
    code, out, _ = run_cli(
        [
            "betweenness-approx",
            "--star",
            "foremost",
            "--epsilon",
            "0.5",
            "--delta",
            "0.25",
            "--ell-cap",
            "200",
            "--seed",
            "4",
        ],
        "0 1 1\n1 2 2\n",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"value", "value_float", "argmax", "ell", "trials"}
    assert doc["argmax"] == 1


def test_betweenness_approx_prints_json_by_default_and_text_on_request():
    args = ["betweenness-approx", "--star", "foremost", "--epsilon", "0.5", "--delta", "0.25",
            "--ell-cap", "200", "--seed", "4"]
    code, out, err = run_cli(args, "0 1 1\n1 2 2\n")
    assert (code, err) == (0, "")
    assert run_cli([*args, "--format", "json"], "0 1 1\n1 2 2\n") == (code, out, err)
    doc = json.loads(out)
    text = "".join(f"{key}: {doc[key]}\n" for key in ("value", "value_float", "argmax", "ell", "trials"))
    assert run_cli([*args, "--format", "text"], "0 1 1\n1 2 2\n") == (0, text, "")


def test_gen_random_deterministic_bytes():
    args = ["gen", "--kind", "random", "--n", "7", "--m", "11", "--t-max", "4", "--seed", "5"]
    assert run_cli(args) == run_cli(args)


def test_gen_json_roundtrips_through_count():
    code, doc, _ = run_cli(["gen", "--kind", "random", "--n", "8", "--m", "15", "--t-max", "5", "--seed", "2", "--format", "json"])
    assert code == 0
    results = set()
    for algo in ("auto", "oracle", "vimw", "tfvs", "fen"):
        code, out, err = run_cli(["count", "-s", "0", "-z", "7", "--algo", algo], doc)
        assert code == 0, err
        results.add(out.strip())
    assert len(results) == 1


def test_gen_diamond_roundtrip():
    code, out, _ = run_cli(["gen", "--kind", "diamond", "--length", "4"])
    assert code == 0
    code, counted, _ = run_cli(["count", "-s", "0", "-z", "12"], out)
    assert counted.strip() == str(2**4)


def test_gen_bad_params_exit_2():
    code, _, _ = run_cli(["gen", "--kind", "random", "--n", "1", "--m", "5"])
    assert code == 2


def test_json_input_accepted():
    doc = json.dumps({"n": 3, "T": 2, "edges": [[0, 1, 1], [1, 2, 2]]})
    code, out, _ = run_cli(["count", "-s", "0", "-z", "2"], doc)
    assert code == 0 and out.strip() == "1"


def test_json_lifetime_validated():
    edges = [[0, 1, 1], [1, 2, 2]]
    for bad in (1, "x"):
        doc = json.dumps({"n": 3, "T": bad, "edges": edges})
        code, _, err = run_cli(["count", "-s", "0", "-z", "2"], doc)
        assert code == 2 and '"T"' in err, bad
    for bad in (0, -1, 2.5, True, None):
        with pytest.raises(EdgeListParseError):
            from_json(json.dumps({"n": 3, "T": bad, "edges": edges}))
    assert from_json(json.dumps({"n": 3, "T": 7, "edges": edges})).lifetime == 2
    # A graph without edges is written with T = 0 and reads back.
    empty = make_graph(2, [])
    assert to_json(empty) == '{"n": 2, "T": 0, "edges": []}'
    assert from_json(to_json(empty)) == empty


def test_json_fields_must_be_integers():
    # int() used to truncate floats and parse strings, and a negative n
    # crashed later; the edge-list parser rejects all of these.
    for doc in (
        {"n": 3, "edges": [[0, 1.9, 2.5], ["1", 2, 3]]},
        {"n": -2, "edges": []},
        {"n": True, "edges": [[0, 1, 1]]},
        {"n": 3, "edges": [[0, 1, True]]},
    ):
        code, out, err = run_cli(["params", "--format", "json"], json.dumps(doc))
        assert code == 2 and out == "" and "bad JSON graph document" in err, doc
    for bad in ({"n": 3.0, "edges": []}, {"n": "3", "edges": []}, {"n": 3, "edges": [[0, 1, "2"]]}):
        with pytest.raises(EdgeListParseError):
            from_json(json.dumps(bad))


def test_params_on_large_forest():
    """The timed-FVS search on a 5,000-edge forest is linear: no cycle scan per edge."""
    from chronopath.generate import width_bounded_chain
    from chronopath.graph import to_text

    # A BFS from every edge, quadratic on a forest, takes about 25 s on this input.
    proc = subprocess.run(
        [sys.executable, "-m", "chronopath.cli", "params", "--format", "json"],
        input=to_text(width_bounded_chain(2500)).encode(),
        capture_output=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["time_edges"] == 5000 and doc["is_forest"]
    assert doc["timed_fvs_size"] == 0


def test_params_subcommand():
    code, out, _ = run_cli(["params", "--format", "json"], I5_TEXT)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["lifetime"] == 3
    assert doc["is_forest"] is False
    assert doc["feedback_edge_number"] == 1
    assert doc["timed_fvs_size"] == 1
    assert doc["vimw"] == 3


def test_estimate_mode():
    code, out, _ = run_cli(
        ["count", "-s", "0", "-z", "2", "--algo", "estimate", "--seed", "1"], I5_TEXT
    )
    assert code == 0
    assert abs(float(Fraction(out.strip())) - 2) <= 0.5


def test_tfvs_file(tmp_path):
    tfvs = tmp_path / "x.txt"
    tfvs.write_text("0 3\n")
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(I5_TEXT)
    code, out, _ = run_cli(
        ["count", "-i", str(graph_file), "-s", "0", "-z", "2", "--algo", "tfvs", "--tfvs-file", str(tfvs)]
    )
    assert code == 0 and out.strip() == "2"


def test_params_output_does_not_depend_on_line_order(tmp_path, capsys):
    """condensed_links, like every other parameter, is a graph invariant."""
    import random

    from chronopath import cli
    from chronopath.generate import random_temporal_graph
    from chronopath.graph import to_text

    def params(lines):
        path = tmp_path / "g.txt"
        path.write_text("".join(lines))
        assert cli.main(["params", "--format", "json", "-i", str(path)]) == 0
        return capsys.readouterr().out

    # A triangle with a two-edge tail: one link, whichever vertex comes first.
    tail_first = ["0 4 1\n", "4 1 1\n", "1 2 1\n", "2 3 1\n", "3 1 1\n"]
    tail_last = tail_first[2:] + tail_first[:2]
    assert json.loads(params(tail_first))["condensed_links"] == 1
    assert params(tail_first) == params(tail_last)
    rng = random.Random(5)
    for seed in range(1, 13):
        lines = to_text(random_temporal_graph(12, 30, 9, seed)).splitlines(keepends=True)
        want = params(lines)
        for _ in range(2):
            rng.shuffle(lines)
            assert params(lines) == want, seed


def test_sample_refuses_an_unconnected_pair_in_every_mode(tmp_path, capsys):
    from chronopath import cli

    path = tmp_path / "g.txt"
    path.write_text("0 1 1\n2 3 2\n")
    for optimal in ("none", "foremost", "fastest"):
        for fmt in ("text", "json"):
            for count in ("0", "2"):
                args = ["sample", "-s", "0", "-z", "2", "-i", str(path), "--count", count]
                assert cli.main(args + ["--optimal", optimal, "--format", fmt]) == 2
                out, err = capsys.readouterr()
                assert (out, err) == ("", "error: no temporal (0,2)-path to sample\n")


def _old_sample_lines(g, s, z, count, seed):
    """The per-path lines sample printed before it wrote in blocks."""
    sampler = PathSampler(g, s, z, lambda h, a, b: dispatch_count(h, a, b))
    rng = child_rng(seed, "cli-sample", "none", s, z)
    paths = [sampler.sample(rng) for _ in range(count)]
    lines = [
        " ".join([str(g.vertex_name(p.source))] + [f"{g.vertex_name(v)}@{t}" for _, v, t in p.steps])
        for p in paths
    ]
    return paths, lines


def test_sample_blocks_hold_the_bytes_of_per_path_output(tmp_path, capsys):
    from chronopath import cli

    text = "10 20 1\n20 30 2\n10 30 3\n20 40 2\n40 30 3\n10 40 1\n"
    path = tmp_path / "g.txt"
    path.write_text(text)
    g = parse(text)
    s, z = g.resolve_vertex(10), g.resolve_vertex(30)
    for count in (0, 1, 1023, 1024, 1025, 2500):
        paths, lines = _old_sample_lines(g, s, z, count, 6)
        args = ["sample", "-s", "10", "-z", "30", "-i", str(path), "--count", str(count), "--seed", "6"]
        assert cli.main(args) == 0
        assert capsys.readouterr() == ("".join(line + "\n" for line in lines), "")
        want = json.dumps({"paths": [[list(step) for step in p.steps] for p in paths]}, sort_keys=True)
        assert cli.main(args + ["--format", "json"]) == 0
        assert capsys.readouterr() == (want + "\n", "")


def test_sample_keeps_the_paths_drawn_before_a_sampler_error(tmp_path, monkeypatch, capsys):
    from chronopath import cli
    from chronopath.errors import CounterFailureError

    path = tmp_path / "g.txt"
    path.write_text(I5_TEXT + "1 3 2\n3 2 3\n")
    args = ["sample", "-s", "0", "-z", "2", "-i", str(path), "--count", "2500", "--seed", "6"]
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    sample, calls = PathSampler.sample, []

    def failing(self, rng):
        calls.append(None)
        if len(calls) == 1500:
            raise CounterFailureError("counter reported completions where none exist")
        return sample(self, rng)

    monkeypatch.setattr(PathSampler, "sample", failing)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("".join(lines[:1499]), "error: counter reported completions where none exist\n")
