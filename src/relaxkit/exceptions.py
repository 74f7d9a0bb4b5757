"""Exception types shared across the package."""

from __future__ import annotations


class RelaxkitError(Exception):
    """Base class for all relaxkit errors."""


class DomainError(RelaxkitError, ValueError):
    """Input outside the domain an operation is defined on."""


class NonConvergent(RelaxkitError):
    """A series or iteration failed to converge to the requested tolerance."""


class InversionDisagreement(RelaxkitError):
    """Talbot and Gaver-Stehfest inversions disagree beyond tolerance."""

    def __init__(self, talbot_value: float, stehfest_value: float, rel_diff: float):
        self.talbot_value = talbot_value
        self.stehfest_value = stehfest_value
        self.rel_diff = rel_diff
        super().__init__(
            f"inverse Laplace methods disagree: talbot={talbot_value:.9g} "
            f"gaver-stehfest={stehfest_value:.9g} (rel diff {rel_diff:.3g})"
        )

    def __reduce__(self):  # args holds the message, not the constructor's arguments
        return type(self), (self.talbot_value, self.stehfest_value, self.rel_diff), vars(self)


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
