"""Exception types shared across the package."""


class ChronopathError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListParseError(ChronopathError, ValueError):
    """Malformed edge-list input (bad line, loop edge, label < 1)."""


class NotAForestError(ChronopathError):
    """The underlying graph is not a forest where one was required."""


class NotChordalError(ChronopathError):
    """The input graph failed the chordality check."""


class EnumerationLimitError(ChronopathError):
    """An enumeration went past its cap: the oracle's path limit or fen's state cap."""


class BudgetExceededError(ChronopathError):
    """A work budget was exceeded: the timed-FVS search's size budget, the
    max-betweenness estimator's draw budget, or colour coding's work budget."""


class NoPathError(ChronopathError):
    """A sampler was asked for a path between unconnected vertices."""


class CounterFailureError(ChronopathError):
    """A pluggable counter returned values inconsistent with sampling."""


class NoFeasibleAlgorithmError(ChronopathError):
    """Every exact algorithm's parameter exceeded its configured cap."""


class InvalidParameterError(ChronopathError, ValueError):
    """A numeric parameter (epsilon, delta, a sample count, a budget) is out of range."""


class InvariantError(ChronopathError):
    """An internal invariant failed: a bug in the package, not bad input."""
