"""Shared exception types."""


class DegpriceError(Exception):
    """Base class for package errors."""


class GraphFormatError(DegpriceError, ValueError):
    """Raised when a graph or set-cover file does not parse.

    An input fault, so a ValueError.  Carries the 1-based line number of
    the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceCapExceeded(DegpriceError):
    """A configured size or budget cap stopped an exhaustive computation."""


class CandidateCapExceeded(ResourceCapExceeded):
    """Exact search space too large: the variable-target universe passed the cap."""

    def __init__(self, agent, universe_size, cap):
        super().__init__(
            f"agent {agent}: exact search over {universe_size} variable targets "
            f"exceeds cap {cap}"
        )
        self.agent = agent
        self.universe_size = universe_size
        self.cap = cap


class OracleBudgetExceeded(ResourceCapExceeded):
    """Brute-force enumeration would exceed its configured budget."""


class InfeasibleInstanceError(DegpriceError, ValueError):
    """The instance has no solution at all (e.g. an uncoverable universe).

    An input fault, so a ValueError.
    """


class ScheduleReplayError(DegpriceError):
    """A scripted move failed validation during replay (not a strict improvement)."""
