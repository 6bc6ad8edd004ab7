import json
import subprocess
import sys
from fractions import Fraction

import pytest

from chronopath.dispatch import DispatchCaps, dispatch_count
from chronopath.errors import EdgeListParseError, NoFeasibleAlgorithmError
from chronopath.graph import from_json, to_json
from chronopath.oracle import count_paths_bf

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


def test_count_json_output():
    code, out, _ = run_cli(["count", "-s", "0", "-z", "2", "--format", "json"], I5_TEXT)
    assert code == 0
    assert json.loads(out) == {"count": "2", "algo": "tfvs"}
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
        dispatch_count(g, 0, 5, algo="oracle", caps=DispatchCaps(oracle_limit=2), selected=True)
    assert dispatch_count(g, 0, 5, algo="oracle", caps=DispatchCaps(oracle_limit=2)) == 65


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

    # Staggered diamonds: narrow bags but many cycles, so the width wins.
    edges = []
    corner, nxt = 0, 1
    for i in range(1, 7):
        w1, w2, after = nxt, nxt + 1, nxt + 2
        nxt += 3
        edges += [(corner, w1, i), (corner, w2, i), (w1, after, i), (w2, after, i)]
        corner = after
    staggered = make_graph(nxt, edges)
    assert select_algorithm(staggered)[0] == "vimw"

    # One cycle: the single feedback appearance beats width and ties fen.
    cycle = make_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])
    assert select_algorithm(cycle)[0] == "tfvs"

    # A supplied timed FVS enters the comparison as-is.
    chosen, kept = select_algorithm(cycle, tfvs_set=frozenset({(0, 4)}))
    assert chosen == "tfvs" and kept == frozenset({(0, 4)})


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


def test_chordal_mcis_debug_subcommand():
    doc = json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2]], "colour": [1, 2, 2], "weight": [2, 3, 5], "k": 2}
    )
    code, out, _ = run_cli(["chordal-mcis", "-i", "-"], doc)
    assert code == 0 and out.strip() == "10"
    code, _, _ = run_cli(["--help"])
    # hidden from the subcommand listing but callable
    assert code == 0
