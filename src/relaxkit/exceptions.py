"""Exception types shared across the package."""

from __future__ import annotations


class RelaxkitError(Exception):
    """Base class for all relaxkit errors."""


class DomainError(RelaxkitError, ValueError):
    """Input outside the domain an operation is defined on."""


class NonConvergent(RelaxkitError):
    """A series or iteration failed to converge to the requested tolerance."""


class ContourOverflow(RelaxkitError):
    """Image evaluation on the inversion contour overflowed or returned non-finite values."""


class QuadratureFailure(RelaxkitError):
    """Numerical integration did not reach the requested accuracy."""


class ParseError(RelaxkitError):
    """Malformed input file.

    Carries the 1-based line number and a human-readable reason.
    """

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")

    def __reduce__(self):  # args holds the message, not the constructor's arguments
        return type(self), (self.line, self.reason), vars(self)


class EmptyDataset(RelaxkitError):
    """An input file contained no data rows."""


class DegenerateJacobian(RelaxkitError):
    """The fit Jacobian is not usable (non-finite entries or total rank collapse)."""
