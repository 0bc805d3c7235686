"""Exception hierarchy for the MARS reproduction.

Every error raised by the library derives from :class:`MarsError` so that
callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class MarsError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParseError(MarsError):
    """Raised when parsing XPath or XML text fails."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SchemaError(MarsError):
    """Raised for inconsistent schema declarations (arity mismatch, duplicates)."""


class CompilationError(MarsError):
    """Raised when XML artifacts cannot be compiled to the relational framework."""


class ChaseError(MarsError):
    """Raised when the chase cannot make progress or exceeds its budget."""


class ReformulationError(MarsError):
    """Raised when no reformulation against the proprietary schema exists."""


class EvaluationError(MarsError):
    """Raised when a query cannot be evaluated against the in-memory storage."""


class StorageError(EvaluationError):
    """Raised for storage-backend lifecycle misuse (double close, use after
    close, exhausted or closed connection pools).

    Subclasses :class:`EvaluationError` so callers that treat backend
    failures uniformly keep working."""
