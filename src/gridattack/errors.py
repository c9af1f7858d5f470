"""Exception types shared across the package."""


class GridAttackError(Exception):
    """Base class for all package errors."""


class ParseError(GridAttackError):
    """Malformed case file text."""

    def __init__(self, message: str, line: int = 0, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}" if line else message)
        self.line = line
        self.column = column


class TopologyError(GridAttackError):
    """Case file references buses or lines that do not exist."""


class UnobservableSystem(GridAttackError):
    """Measurement graph does not connect every bus to the reference node."""


class InvalidCosts(GridAttackError):
    """Cost triple violates the required ordering 0 < jam-insecure <= jam-secure <= inject."""


class TooLarge(GridAttackError):
    """Instance exceeds the size cap of an exhaustive routine."""


class RemovalFailed(GridAttackError):
    """Bad-data removal exhausted its budget without passing the residual test."""


class PlanMismatch(GridAttackError):
    """Attack plan references measurements that are not part of the system."""
