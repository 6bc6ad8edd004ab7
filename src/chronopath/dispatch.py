"""Algorithm selection for exact counting.

``auto`` routes forests to the forest DP; otherwise it measures the three
structural parameters (vertex-interval-membership width, minimum timed
feedback vertex set size under a budget, feedback edge number), picks the
algorithm with the smallest measured parameter among those under their
caps, and falls back to capped brute-force enumeration.  Parameter values
of different algorithms are not really commensurable, but a fixed
deterministic rule beats no rule.

A choice made on g is sound for every instance cut from g by deleting
time-edges or vertices: the cut's vimw width and feedback edge number are
no larger, a timed FVS of g still leaves it a forest, and every engine is
exact.  Only the capped oracle can refuse a cut.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fen, forest, oracle, tfvs, vimw
from .errors import BudgetExceededError, EnumerationLimitError, NoFeasibleAlgorithmError
from .graph import TemporalGraph, underlying_graph


class DispatchCaps(NamedTuple):
    vimw_cap: int = 8
    tfvs_cap: int = 4
    fen_cap: int = 12
    oracle_limit: int | None = 10**6


ALGORITHMS = ("auto", "oracle", "forest", "vimw", "tfvs", "fen")


def select_algorithm(
    g: TemporalGraph,
    caps: DispatchCaps = DispatchCaps(),
    tfvs_set=None,
) -> tuple[str, frozenset | None]:
    """Pick the engine `auto` mode will run, without running it.

    Forests go straight to the forest DP.  Otherwise the candidate with the
    smallest measured parameter under its cap wins, ties broken in the
    order vimw < tfvs < fen; with no candidate the oracle is the fallback.
    Returns the engine name and the timed FVS if one was computed.
    """
    static = underlying_graph(g)
    if static.is_forest:
        return "forest", tfvs_set

    width = vimw.vimw_width(g)
    f = len(fen.feedback_edge_set(static))
    candidates: list[tuple[int, int, str]] = []
    if width <= caps.vimw_cap:
        candidates.append((width, 0, "vimw"))
    if f <= caps.fen_cap:
        candidates.append((f, 2, "fen"))
    try:
        if tfvs_set is None:
            tfvs_set = tfvs.compute_timed_fvs(g, budget=min(caps.tfvs_cap, width, f))
        candidates.append((len(tfvs_set), 1, "tfvs"))
    except BudgetExceededError:
        pass
    if not candidates:
        return "oracle", tfvs_set
    _, _, chosen = min(candidates)
    return chosen, tfvs_set


def dispatch_count(
    g: TemporalGraph,
    s: int,
    z: int,
    algo: str = "auto",
    caps: DispatchCaps = DispatchCaps(),
    tfvs_set=None,
) -> int:
    """Number of temporal (s,z)-paths, counted by the engine ``algo``.

    ``auto`` picks the engine with :func:`select_algorithm`.  The oracle
    enumerates at most ``caps.oracle_limit`` paths (``None``: no limit).
    """
    if algo == "auto":
        algo, tfvs_set = select_algorithm(g, caps, tfvs_set)
    if algo == "oracle":
        try:
            return oracle.count_paths_bf(g, s, z, caps.oracle_limit)
        except EnumerationLimitError:
            raise NoFeasibleAlgorithmError(
                "all structural parameters exceed their caps and the "
                "instance is too large for brute force"
            ) from None
    if algo == "forest":
        return forest.count_forest(g, s, z)
    if algo == "vimw":
        return vimw.count_vimw(g, s, z)
    if algo == "tfvs":
        return tfvs.count_tfvs(g, s, z, tfvs=tfvs_set)
    if algo == "fen":
        return fen.count_fen(g, s, z)
    raise ValueError(f"unknown algorithm {algo!r}")
