"""Per-layer spans for chronopath, recorded from outside the package.

The package itself is not edited.  While a traced replay runs, `traced()`
replaces public functions at the module attribute where their callers look
them up (``chronopath.reductions.restrict``, ``chronopath.dispatch.
select_algorithm``, ...) with wrappers that record one span per call:
(span id, parent span id, name, start, end, job id).  Spans stay in memory
and are written out after the run.  A layer's self time is its span time
minus the time covered by its direct child spans.

A call that enters a layer from the same layer (``fastest_duration`` calling
``earliest_reach``, ``OptimalPathSampler.sample`` calling
``PathSampler.sample``) is not given a span of its own, so ``.calls``
counts entries into a layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from chronopath.errors import BudgetExceededError

ENGINES = ("forest", "vimw", "tfvs", "fen", "oracle")


class Recorder:
    """In-memory spans plus the counts that are observed at span boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.stack: list[tuple[int, str]] = []
        self.job = -1
        self._next_id = 0

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(self, None, exc)
                raise
            finally:
                self.spans.append((sid, parent, name, start, perf_counter(), self.job))
                stack.pop()
            if observe is not None:
                observe(self, result, None)
            return result

        return wrapper


def _observe_select(rec: Recorder, result, error) -> None:
    if error is None:
        rec.counts["route." + result[0]] += 1


def _observe_count(rec: Recorder, result, error) -> None:
    if error is None and result == 0:
        rec.counts["count.zero"] += 1
    # A counter call made while a sampler draw is open is a sampler cache miss.
    if any(name == "sampling.draw" for _, name in rec.stack):
        rec.counts["sampling.misses"] += 1


def _observe_fvs(rec: Recorder, result, error) -> None:
    if isinstance(error, BudgetExceededError):
        rec.counts["fvs.exceeded"] += 1


# (module, attribute path, span name, observer).  Attributes are patched where
# callers look them up: a module that did ``from .graph import restrict`` holds
# its own reference, so that reference is the one replaced.
WRAPPED = (
    ("chronopath.cli", "main", "cli", None),
    ("chronopath.cli", "parse", "graph.parse", None),
    ("chronopath.reductions", "restrict", "graph.restrict", None),
    ("chronopath.sampling", "restrict", "graph.restrict", None),
    ("chronopath.maxbetweenness", "without_static_edge", "graph.restrict", None),
    ("chronopath.graph", "earliest_reach", "graph.reach", None),
    ("chronopath.reductions", "earliest_arrival", "graph.reach", None),
    ("chronopath.reductions", "fastest_duration", "graph.reach", None),
    ("chronopath.reductions", "connectivity_matrix", "graph.reach", None),
    ("chronopath.sampling", "earliest_arrival", "graph.reach", None),
    ("chronopath.maxbetweenness", "earliest_arrival", "graph.reach", None),
    ("chronopath.maxbetweenness", "fastest_duration", "graph.reach", None),
    ("chronopath.maxbetweenness", "connectivity_matrix", "graph.reach", None),
    ("chronopath.cli", "select_algorithm", "dispatch.select", _observe_select),
    ("chronopath.dispatch", "select_algorithm", "dispatch.select", _observe_select),
    ("chronopath.cli", "dispatch_count", "dispatch.count", _observe_count),
    ("chronopath.tfvs", "compute_timed_fvs", "tfvs.fvs_search", _observe_fvs),
    ("chronopath.tfvs", "count_tfvs", "tfvs.count", None),
    ("chronopath.tfvs", "count_weighted_mc_is", "chordal.mcis", None),
    ("chronopath.forest", "count_forest", "forest.count", None),
    ("chronopath.vimw", "count_vimw", "vimw.count", None),
    ("chronopath.vimw", "vimw_width", "vimw.width", None),
    ("chronopath.vimw", "vim_sequence", "vimw.width", None),
    ("chronopath.fen", "count_fen", "fen.count", None),
    ("chronopath.oracle", "enumerate_paths", "oracle.enum", None),
    ("chronopath.oracle", "count_paths_bf", "oracle.enum", None),
    ("chronopath.reductions", "count_foremost", "reductions", None),
    ("chronopath.reductions", "count_fastest", "reductions", None),
    ("chronopath.reductions", "betweenness_exact", "reductions", None),
    ("chronopath.reductions", "sigma_through", "reductions.pair", None),
    ("chronopath.sampling", "PathSampler.total_count", "sampling.build", None),
    ("chronopath.sampling", "OptimalPathSampler.__init__", "sampling.build", None),
    ("chronopath.sampling", "PathSampler.sample", "sampling.draw", None),
    ("chronopath.sampling", "OptimalPathSampler.sample", "sampling.draw", None),
    ("chronopath.maxbetweenness", "estimate_max_betweenness", "maxbetweenness", None),
    ("chronopath.maxbetweenness", "zero_check", "maxbetweenness.zero_check", None),
    ("chronopath.colourcount", "estimate_short", "colourcount", None),
    ("chronopath.colourcount", "estimate_total", "colourcount", None),
    ("chronopath.colourcount", "count_multicoloured", "colourcount.multicoloured", None),
)


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    undo = []
    try:
        for module_name, path, name, observe in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, rec.wrap(name, original, observe))
            undo.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans) -> tuple[dict[str, float], Counter[str]]:
    """Self time and span count per span name."""
    covered: defaultdict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    own: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for sid, _, name, start, end, _ in spans:
        own[name] += end - start - covered[sid]
        calls[name] += 1
    return dict(own), calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced replay: name -> (value, unit)."""
    own, calls = self_times(rec.spans)
    c = rec.counts

    def s(*names: str) -> tuple[float, str]:
        return sum(own.get(n, 0.0) for n in names), "s"

    def n(name: str) -> tuple[float, str]:
        return calls[name], "count"

    out = {
        "cli.self_s": s("cli"),
        "graph.parse_s": s("graph.parse"),
        "graph.parse.calls": n("graph.parse"),
        "graph.restrict_s": s("graph.restrict"),
        "graph.restrict.calls": n("graph.restrict"),
        "graph.reach_s": s("graph.reach"),
        "graph.reach.calls": n("graph.reach"),
        "dispatch.select_s": s("dispatch.select"),
        "dispatch.select.calls": n("dispatch.select"),
        "dispatch.count.calls": n("dispatch.count"),
        "dispatch.count.zero_ratio": (_ratio(c["count.zero"], calls["dispatch.count"]), "ratio"),
    }
    for engine in ENGINES:
        out[f"dispatch.route.{engine}"] = (c["route." + engine], "count")
    out.update({
        "tfvs.fvs_search_s": s("tfvs.fvs_search"),
        "tfvs.fvs_search.calls": n("tfvs.fvs_search"),
        "tfvs.fvs_search.exceeded_ratio": (
            _ratio(c["fvs.exceeded"], calls["tfvs.fvs_search"]), "ratio"),
        "tfvs.count_s": s("tfvs.count"),
        "tfvs.count.calls": n("tfvs.count"),
        "chordal.mcis_s": s("chordal.mcis"),
        "chordal.mcis.calls": n("chordal.mcis"),
    })
    for span in ("forest.count", "vimw.count", "vimw.width", "fen.count", "oracle.enum"):
        out[span + "_s"] = s(span)
        out[span + ".calls"] = n(span)
    out.update({
        "reductions.self_s": s("reductions", "reductions.pair"),
        "reductions.pairs": n("reductions.pair"),
        "sampling.draws": n("sampling.draw"),
        "sampling.counter_calls_per_draw": (
            _ratio(c["sampling.misses"], calls["sampling.draw"]), "calls/draw"),
        "sampling.build_s": s("sampling.build"),
        "sampling.self_s": s("sampling.build", "sampling.draw"),
        "maxbetweenness.zero_check_s": s("maxbetweenness.zero_check"),
        "maxbetweenness.self_s": s("maxbetweenness", "maxbetweenness.zero_check"),
        "colourcount.multicoloured_s": s("colourcount.multicoloured"),
        "colourcount.multicoloured.calls": n("colourcount.multicoloured"),
        "colourcount.self_s": s("colourcount", "colourcount.multicoloured"),
    })
    return out


def routing_share(rec: Recorder, jobs) -> float:
    """Share of the given jobs' in-process time spent choosing an engine.

    Routing is the self time of ``select_algorithm`` plus the timed-FVS
    search it runs; the base is the summed time of the jobs' root spans.
    """
    wanted = set(jobs)
    spans = [sp for sp in rec.spans if sp[5] in wanted]
    own, _ = self_times(spans)
    total = sum(end - start for _, parent, _, start, end, _ in spans if parent is None)
    return _ratio(own.get("dispatch.select", 0.0) + own.get("tfvs.fvs_search", 0.0), total)
