"""Algorithm selection for exact counting.

``auto`` runs the first engine that fits its cap, in the order forest, vimw
(vertex-interval-membership width at most ``vimw_cap``), fen (feedback edge
number at most ``fen_cap``), tfvs (a timed feedback vertex set of at most
``tfvs_cap`` appearances), and last the capped brute-force oracle.  The caps
are feasibility limits, not a score: each parameter is measured only when
the engines before it do not fit, so the timed-FVS search runs only when
neither vimw nor fen does.  The order is measured: over all-vertex foremost
and fastest betweenness on 47 non-forest ``random_temporal_graph`` instances
(n 8-20, m = n + 6, T 8-100, and five 8-10 vertex graphs with m up to 20),
vimw was the fastest engine on all 15 graphs where its width fit the cap,
and fen was faster than tfvs on all 21 graphs where both fit (2.6-7.6x).

A choice made on g is sound for every instance cut from g by deleting
time-edges or vertices: the cut's vimw width and feedback edge number are
no larger, a timed FVS of g still leaves it a forest, and every engine is
exact.  Only the capped oracle can refuse a cut.

Each engine module is imported when it is first selected or counted with,
so a process loads only the engines it runs.
"""

from __future__ import annotations

from typing import NamedTuple

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

    The first engine that fits its cap wins: forest, vimw, fen, tfvs, then
    the oracle.  A supplied ``tfvs_set`` stands in for the timed-FVS search,
    whatever its size.  Returns the engine name and the timed FVS, supplied
    or found.
    """
    static = underlying_graph(g)
    if static.is_forest:
        return "forest", tfvs_set
    from . import vimw

    if vimw.vimw_width(g) <= caps.vimw_cap:
        return "vimw", tfvs_set
    from . import fen

    if len(fen.feedback_edge_set(static)) <= caps.fen_cap:
        return "fen", tfvs_set
    if tfvs_set is not None:
        return "tfvs", tfvs_set
    from . import tfvs

    try:
        return "tfvs", tfvs.compute_timed_fvs(g, budget=caps.tfvs_cap)
    except BudgetExceededError:
        return "oracle", None


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
        from . import oracle

        try:
            return oracle.count_paths_bf(g, s, z, caps.oracle_limit)
        except EnumerationLimitError:
            raise NoFeasibleAlgorithmError(
                "all structural parameters exceed their caps and the "
                "instance is too large for brute force"
            ) from None
    if algo == "forest":
        from . import forest

        return forest.count_forest(g, s, z)
    if algo == "vimw":
        from . import vimw

        return vimw.count_vimw(g, s, z)
    if algo == "tfvs":
        from . import tfvs

        return tfvs.count_tfvs(g, s, z, tfvs=tfvs_set)
    if algo == "fen":
        from . import fen

        return fen.count_fen(g, s, z)
    raise ValueError(f"unknown algorithm {algo!r}")
