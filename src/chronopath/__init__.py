"""chronopath: exact and approximate temporal path counting and betweenness.

Counts temporal (s,z)-paths in undirected temporal graphs: exactly, via a
portfolio of parameterised algorithms (forest DP, timed feedback vertex
set, feedback edge set, vertex-interval-membership width), approximately
via colour coding, and samples paths uniformly.  Foremost- and
fastest-path counts and the corresponding betweenness centralities are
derived from any of the exact counters.

The public names below are exported lazily (PEP 562): ``_EXPORTS`` maps each
name to the submodule that defines it, and that submodule is imported on
first access of the name, so ``import chronopath`` loads no engine.
"""

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in {
        "colourcount": "count_multicoloured estimate_short estimate_total",
        "dispatch": "DispatchCaps dispatch_count select_algorithm",
        "fen": "count_fen",
        "forest": "count_forest",
        "graph": "StaticGraph TemporalGraph TemporalPath connectivity_matrix "
        "earliest_arrival fastest_duration from_json parse restrict to_json to_text "
        "underlying_graph validate_path",
        "maxbetweenness": "BetweennessEstimate estimate_max_betweenness zero_check",
        "oracle": "betweenness_bf count_optimal_bf count_paths_bf enumerate_paths",
        "reductions": "betweenness_exact count_fastest count_foremost sigma_through",
        "sampling": "OptimalPathSampler PathSampler",
        "tfvs": "compute_timed_fvs count_tfvs",
        "vimw": "count_vimw vim_sequence",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
