"""Exception hierarchy for the UniStore reproduction.

Every error raised by the library derives from :class:`UniStoreError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish subsystems.
"""

from __future__ import annotations


class UniStoreError(Exception):
    """Base class for all errors raised by this library."""


class NetworkError(UniStoreError):
    """Raised for failures in the simulated network substrate."""


class NodeUnreachableError(NetworkError):
    """Raised when a message cannot be delivered to its destination peer."""

    def __init__(self, node_id: object, reason: str = "node offline"):
        super().__init__(f"node {node_id!r} unreachable: {reason}")
        self.node_id = node_id
        self.reason = reason


class RoutingError(UniStoreError):
    """Raised when overlay routing cannot make progress towards a key."""


class StorageError(UniStoreError):
    """Raised by the triple storage layer."""


class VQLError(UniStoreError):
    """Base class for query-language errors."""


class VQLSyntaxError(VQLError):
    """Raised when VQL text cannot be tokenized or parsed.

    Carries the (1-based) ``line`` and ``column`` of the offending token so
    interactive front-ends can point at the error.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PlanningError(UniStoreError):
    """Raised when no executable physical plan exists for a logical plan."""


class ExecutionError(UniStoreError):
    """Raised when a physical plan fails during distributed execution."""
