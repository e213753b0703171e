"""Exception types shared across the toolkit."""

from __future__ import annotations


class IpdKitError(Exception):
    """Base class for all toolkit errors."""


class InputValidationError(IpdKitError, ValueError):
    """An argument violates a documented precondition or invariant."""


class ParseError(IpdKitError):
    """A label file line could not be parsed."""

    def __init__(self, message: str, *, source: str = "<string>", line_no: int = 0):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


class LoadError(IpdKitError):
    """A dataset manifest or one of its referenced files is invalid."""


class NoInstancesError(IpdKitError):
    """Zero instance pairs were produced; there is nothing to average."""


class IncompleteResultsError(IpdKitError):
    """A cross-validation cell required by the domain list is missing."""


class UndefinedApError(IpdKitError):
    """Average precision is undefined because there are no ground-truth boxes."""
