"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without also swallowing programming errors.
"""


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class BddError(ReproError):
    """Raised on invalid BDD manager usage (unknown variable, foreign edge)."""


class NodeLimitExceeded(BddError):
    """Raised when a BDD operation would exceed the manager's node budget."""


class SatError(ReproError):
    """Raised on invalid SAT solver usage (bad literal, empty clause added)."""


class NetlistError(ReproError):
    """Raised on malformed circuits (cycles, undriven nets, bad fanin)."""


class ParseError(NetlistError):
    """Raised when a ``.bench`` or BLIF file cannot be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line {}: {}".format(line, message)
        super().__init__(message)
        self.line = line


class TransformError(ReproError):
    """Raised when a circuit transformation cannot be applied."""


class VerificationError(ReproError):
    """Raised on invalid verification setup (mismatched interfaces)."""


class ResourceBudgetExceeded(ReproError):
    """Raised when a verification run exceeds its time or node budget."""
