"""Command-line front end.

Subcommands: count, count-optimal, betweenness, betweenness-approx,
sample, params, gen (and a hidden chordal-mcis debug hook for test
tooling).  Input graphs are read from a file or stdin, either as an
edge-list document ("u v t" lines, '#' comments) or as the JSON form
{"n": .., "T": .., "edges": [[u, v, t], ..]}.

Exit codes: 0 success, 2 input error, 3 no feasible algorithm,
4 invalid statistical-guarantee flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, colourcount, fen, maxbetweenness
from . import reductions, sampling, tfvs, vimw
from .chordal import ChordalInstance, count_weighted_mc_is
from .dispatch import ALGORITHMS, DispatchCaps, dispatch_count, select_algorithm
from .errors import (
    BudgetExceededError,
    ChronopathError,
    EdgeListParseError,
    InvalidParameterError,
    NoFeasibleAlgorithmError,
    NoPathError,
)
from .rng import child_rng
from .generate import diamond_chain, random_forest_graph, random_temporal_graph
from .graph import (
    TemporalGraph,
    from_json,
    parse,
    to_json,
    to_text,
    underlying_graph,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_ALGORITHM = 3
EXIT_BAD_STATS = 4


def _read_graph(path: str) -> TemporalGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    if text.lstrip().startswith("{"):
        return from_json(text)
    return parse(text)


def _vertex(g: TemporalGraph, name: int) -> int:
    try:
        return g.resolve_vertex(name)
    except KeyError:
        raise EdgeListParseError(f"unknown vertex {name}") from None


def _read_tfvs_file(path: str, g: TemporalGraph) -> frozenset[tuple[int, int]]:
    appearances = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise EdgeListParseError(f"bad timed-FVS line {body!r}")
            name, label = int(parts[0]), int(parts[1])
            v = _vertex(g, name)
            if g.label_names is not None:
                # Timed-FVS files speak the input file's original labels.
                if label not in g.label_names:
                    raise EdgeListParseError(f"unknown time label {label} in timed-FVS file")
                label = g.label_names.index(label) + 1
            appearances.add((v, label))
    return frozenset(appearances)


def _counter_for(algo: str, caps: DispatchCaps):
    def counter(h: TemporalGraph, s: int, z: int) -> int:
        return dispatch_count(h, s, z, algo=algo, caps=caps)

    return counter


def _format_path(g: TemporalGraph, path) -> str:
    out = [str(g.vertex_name(path.source))]
    for _, v, t in path.steps:
        out.append(f"{g.vertex_name(v)}@{t}")
    return " ".join(out)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _add_common(p: argparse.ArgumentParser, needs_pair: bool = True) -> None:
    p.add_argument("--input", "-i", default="-", help="edge-list or JSON file, '-' for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if needs_pair:
        p.add_argument("-s", type=int, required=True, help="start vertex")
        p.add_argument("-z", type=int, required=True, help="target vertex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronopath",
        description="Count, estimate, and sample temporal (s,z)-paths; "
        "compute temporal betweenness.",
    )
    parser.add_argument("--version", action="version", version=f"chronopath {__version__}")
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{count,count-optimal,betweenness,betweenness-approx,sample,params,gen}",
    )

    p_count = sub.add_parser("count", help="count temporal (s,z)-paths")
    _add_common(p_count)
    p_count.add_argument("--algo", choices=ALGORITHMS + ("estimate",), default="auto")
    p_count.add_argument("--tfvs-file", default=None, help="precomputed timed FVS ('v t' lines)")
    p_count.add_argument("--epsilon", type=float, default=0.25)
    p_count.add_argument("--delta", type=float, default=0.1)
    p_count.add_argument("--seed", type=int, default=0)
    p_count.add_argument("--k", type=int, default=None, help="estimate paths with exactly k edges")
    p_count.add_argument("--k-max", type=int, default=None, help="length cap for --algo estimate")
    p_count.add_argument("--vimw-cap", type=int, default=None, help="auto-routing cap")
    p_count.add_argument("--tfvs-cap", type=int, default=None, help="auto-routing cap")
    p_count.add_argument("--fen-cap", type=int, default=None, help="auto-routing cap")
    p_count.add_argument("--oracle-limit", type=int, default=None, help="auto-routing cap")

    p_opt = sub.add_parser("count-optimal", help="count foremost or fastest (s,z)-paths")
    _add_common(p_opt)
    p_opt.add_argument("--star", choices=("foremost", "fastest"), required=True)
    p_opt.add_argument("--algo", choices=ALGORITHMS, default="auto")

    p_btw = sub.add_parser("betweenness", help="exact temporal betweenness")
    _add_common(p_btw, needs_pair=False)
    p_btw.add_argument("--star", choices=("foremost", "fastest"), required=True)
    p_btw.add_argument("--vertex", type=int, default=None, help="one vertex (default: all)")
    p_btw.add_argument("--algo", choices=ALGORITHMS, default="auto")

    p_approx = sub.add_parser("betweenness-approx", help="estimate max temporal betweenness")
    _add_common(p_approx, needs_pair=False)
    p_approx.add_argument("--star", choices=("foremost", "fastest"), required=True)
    p_approx.add_argument("--epsilon", type=float, required=True)
    p_approx.add_argument("--delta", type=float, required=True)
    p_approx.add_argument("--seed", type=int, default=0)
    p_approx.add_argument("--ell-cap", type=int, default=None)
    p_approx.add_argument("--algo", choices=ALGORITHMS, default="auto")

    p_sample = sub.add_parser("sample", help="sample temporal (s,z)-paths uniformly")
    _add_common(p_sample)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--optimal", choices=("none", "foremost", "fastest"), default="none")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--algo", choices=ALGORITHMS, default="auto")

    p_params = sub.add_parser("params", help="report structural parameters")
    _add_common(p_params, needs_pair=False)
    p_params.add_argument("--tfvs-budget", type=int, default=4)

    p_gen = sub.add_parser("gen", help="generate instances")
    p_gen.add_argument("--kind", choices=("random", "forest", "diamond"), required=True)
    p_gen.add_argument("--format", choices=("text", "json"), default="text")
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--m", type=int, default=12)
    p_gen.add_argument("--t-max", type=int, default=5)
    p_gen.add_argument("--length", type=int, default=4, help="diamond count")
    p_gen.add_argument("--label", type=int, default=1, help="diamond time label")
    p_gen.add_argument("--seed", type=int, default=0)

    p_mcis = sub.add_parser("chordal-mcis")  # debug hook for test tooling
    p_mcis.add_argument("--input", "-i", default="-")

    return parser


def _cmd_count(args) -> int:
    g = _read_graph(args.input)
    s, z = _vertex(g, args.s), _vertex(g, args.z)
    if args.algo == "estimate":
        if args.k is not None:
            value = colourcount.estimate_short(
                g, s, z, args.k, args.epsilon, args.delta, args.seed
            )
        else:
            value = colourcount.estimate_total(
                g, s, z, args.epsilon, args.delta, args.seed, k_max=args.k_max
            )
        payload = {"estimate": str(value), "estimate_float": float(value)}
        _emit(args, payload, str(value))
        return EXIT_OK
    tfvs_set = _read_tfvs_file(args.tfvs_file, g) if args.tfvs_file else None
    defaults = DispatchCaps()
    caps = DispatchCaps(
        vimw_cap=args.vimw_cap if args.vimw_cap is not None else defaults.vimw_cap,
        tfvs_cap=args.tfvs_cap if args.tfvs_cap is not None else defaults.tfvs_cap,
        fen_cap=args.fen_cap if args.fen_cap is not None else defaults.fen_cap,
        oracle_limit=args.oracle_limit if args.oracle_limit is not None else defaults.oracle_limit,
    )
    algo = args.algo
    selected = algo == "auto"
    if selected:
        algo, tfvs_set = select_algorithm(g, caps, tfvs_set)
    value = dispatch_count(
        g, s, z, algo=algo, caps=caps, tfvs_set=tfvs_set, selected=selected
    )
    _emit(args, {"count": str(value), "algo": algo}, str(value))
    return EXIT_OK


def _cmd_count_optimal(args) -> int:
    g = _read_graph(args.input)
    s, z = _vertex(g, args.s), _vertex(g, args.z)
    counter = _counter_for(args.algo, DispatchCaps())
    value, _ = reductions.sigma_through(g, s, z, (), args.star, counter)
    _emit(args, {"count": str(value), "star": args.star}, str(value))
    return EXIT_OK


def _cmd_betweenness(args) -> int:
    g = _read_graph(args.input)
    counter = _counter_for(args.algo, DispatchCaps())
    vertices = [(_vertex(g, args.vertex))] if args.vertex is not None else list(range(g.n))
    values = reductions.betweenness_exact(g, vertices, args.star, counter)
    rows = [(g.vertex_name(v), value) for v, value in zip(vertices, values)]
    payload = {
        "star": args.star,
        "betweenness": {str(name): str(value) for name, value in rows},
    }
    text = "\n".join(f"{name}\t{value}" for name, value in rows)
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_betweenness_approx(args) -> int:
    g = _read_graph(args.input)
    counter = _counter_for(args.algo, DispatchCaps())
    estimate = maxbetweenness.estimate_max_betweenness(
        g,
        args.star,
        args.epsilon,
        args.delta,
        counter,
        seed=args.seed,
        ell_cap=args.ell_cap,
    )
    argmax = (
        g.vertex_name(estimate.argmax_vertex)
        if estimate.argmax_vertex is not None
        else None
    )
    payload = {
        "value": str(estimate.value),
        "value_float": float(estimate.value),
        "argmax": argmax,
        "ell": estimate.ell,
        "trials": estimate.trials,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_sample(args) -> int:
    g = _read_graph(args.input)
    s, z = _vertex(g, args.s), _vertex(g, args.z)
    counter = _counter_for(args.algo, DispatchCaps())
    if args.optimal == "none":
        sampler = sampling.PathSampler(g, s, z, counter)
        if sampler.total_count() <= 0:
            raise NoPathError(f"no temporal ({args.s},{args.z})-path to sample")
    else:
        sampler = sampling.OptimalPathSampler(g, s, z, args.optimal, counter)
    rng = child_rng(args.seed, "cli-sample", args.optimal, s, z)
    paths = [sampler.sample(rng) for _ in range(args.count)]
    if args.format == "json":
        payload = {"paths": [[list(step) for step in p.steps] for p in paths]}
        print(json.dumps(payload, sort_keys=True))
    else:
        for p in paths:
            print(_format_path(g, p))
    return EXIT_OK


def _cmd_params(args) -> int:
    g = _read_graph(args.input)
    static = underlying_graph(g)
    seq = vimw.vim_sequence(g)
    pruned_links = None
    f = len(fen.feedback_edge_set(static))
    condensed = fen.condense(fen.prune_degree_one(g, 0, 0), 0, 0) if g.n else None
    if condensed is not None:
        pruned_links = len(condensed.links)
    try:
        x = tfvs.compute_timed_fvs(g, budget=args.tfvs_budget)
        tfvs_size: int | str = len(x)
    except BudgetExceededError:
        tfvs_size = f"> {args.tfvs_budget}"
    payload = {
        "n": g.n,
        "time_edges": len(g.time_edges),
        "lifetime": g.lifetime,
        "is_forest": static.is_forest,
        "vimw": seq.width,
        "vimw_bag_histogram": {str(k): v for k, v in seq.histogram().items()},
        "feedback_edge_number": f,
        "condensed_links": pruned_links,
        "timed_fvs_size": tfvs_size,
    }
    text = "\n".join(f"{key}: {value}" for key, value in payload.items())
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "random":
        g = random_temporal_graph(args.n, args.m, args.t_max, args.seed)
    elif args.kind == "forest":
        g = random_forest_graph(args.n, args.m, args.t_max, args.seed)
    else:
        g = diamond_chain(args.length, label=args.label)
    sys.stdout.write(to_json(g) + "\n" if args.format == "json" else to_text(g))
    return EXIT_OK


def _cmd_chordal_mcis(args) -> int:
    if args.input == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    instance = ChordalInstance(
        n=int(doc["n"]),
        edges=tuple((int(u), int(v)) for u, v in doc["edges"]),
        colour=tuple(int(c) for c in doc["colour"]),
        weight=tuple(int(w) for w in doc["weight"]),
    )
    print(count_weighted_mc_is(instance, int(doc["k"])))
    return EXIT_OK


_COMMANDS = {
    "count": _cmd_count,
    "count-optimal": _cmd_count_optimal,
    "betweenness": _cmd_betweenness,
    "betweenness-approx": _cmd_betweenness_approx,
    "sample": _cmd_sample,
    "params": _cmd_params,
    "gen": _cmd_gen,
    "chordal-mcis": _cmd_chordal_mcis,
}

_STATS_COMMANDS = {"betweenness-approx"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidParameterError as exc:
        stats = args.command in _STATS_COMMANDS or (
            args.command == "count" and getattr(args, "algo", "") == "estimate"
        )
        code = EXIT_BAD_STATS if stats else EXIT_INPUT
        print(f"error: {exc}", file=sys.stderr)
        return code
    except NoFeasibleAlgorithmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ALGORITHM
    except (EdgeListParseError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChronopathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
