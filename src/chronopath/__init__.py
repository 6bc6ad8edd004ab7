"""chronopath: exact and approximate temporal path counting and betweenness.

Counts temporal (s,z)-paths in undirected temporal graphs: exactly, via a
portfolio of parameterised algorithms (forest DP, timed feedback vertex
set, feedback edge set, vertex-interval-membership width), approximately
via colour coding, and samples paths almost uniformly.  Foremost- and
fastest-path counts and the corresponding betweenness centralities are
derived from any of the exact counters.
"""

from .colourcount import count_multicoloured, estimate_short, estimate_total
from .dispatch import DispatchCaps, dispatch_count, select_algorithm
from .fen import count_fen
from .forest import count_forest
from .graph import (
    StaticGraph,
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
)
from .maxbetweenness import BetweennessEstimate, estimate_max_betweenness, zero_check
from .oracle import betweenness_bf, count_optimal_bf, count_paths_bf, enumerate_paths
from .reductions import betweenness_exact, count_fastest, count_foremost, sigma_through
from .sampling import SamplerConfig, sample_optimal, sample_path
from .tfvs import compute_timed_fvs, count_tfvs, preprocess_terminals
from .vimw import VIMSequence, count_vimw, vim_sequence

__all__ = [
    "BetweennessEstimate",
    "DispatchCaps",
    "SamplerConfig",
    "StaticGraph",
    "TemporalGraph",
    "TemporalPath",
    "VIMSequence",
    "betweenness_bf",
    "betweenness_exact",
    "compute_timed_fvs",
    "connectivity_matrix",
    "count_fastest",
    "count_fen",
    "count_foremost",
    "count_forest",
    "count_multicoloured",
    "count_optimal_bf",
    "count_paths_bf",
    "count_tfvs",
    "count_vimw",
    "dispatch_count",
    "earliest_arrival",
    "enumerate_paths",
    "estimate_max_betweenness",
    "estimate_short",
    "estimate_total",
    "fastest_duration",
    "from_json",
    "parse",
    "preprocess_terminals",
    "restrict",
    "sample_optimal",
    "sample_path",
    "select_algorithm",
    "sigma_through",
    "to_json",
    "to_text",
    "underlying_graph",
    "validate_path",
    "vim_sequence",
    "zero_check",
]

__version__ = "0.1.0"
