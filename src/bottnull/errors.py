"""Exception hierarchy shared across the package.

``Error`` marks failures of a well-posed computation (the CLI maps these to
exit code 2); ``InputError`` marks malformed user input such as expression or
weight syntax (exit code 1).
"""

from __future__ import annotations


class Error(Exception):
    """Base class for computation errors."""


class InputError(Error):
    """Base class for parse/usage errors in user-supplied text."""


class UnsupportedFamilyRank(Error):
    """Family/rank outside the supported window (A with rank 1..7, B with rank 2)."""


class NonIntegralWeight(Error):
    """Root coordinates that do not correspond to an integral weight."""


class NotDominant(Error):
    """A dominant weight was required."""


class ExprSyntaxError(InputError):
    """Bundle-expression syntax error, carrying the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtom(InputError):
    """Unrecognized atom name in a bundle expression."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown atom {name!r} (at position {position})")
        self.name = name
        self.position = position


class InvalidWeight(InputError):
    """Malformed weight literal, or coordinate count not matching the rank."""


class NotAGModule(Error):
    """Weight multiset is not Weyl-invariant, so it is not a G-module character."""


class SizeCapExceeded(Error):
    """Expression exceeds the evaluation cost cap, or its dimension the digit cap."""


class CheckFailed(Error):
    """A built-in consistency check found a violation."""


class ValidationFailure(Error):
    """A cohomology-table entry escaped its potential-support bound."""


class LedgerGap(Error):
    """Required cohomology-table coverage is missing."""

    def __init__(self, family: str, rank: int, q: int):
        super().__init__(f"no cohomology coverage for {family}{rank}, tensor power {q}")
        self.family = family
        self.rank = rank
        self.q = q


class NotTraceFree(Error):
    """Matrix tuple entries must be trace-free."""


class NotStrictlyUpper(Error):
    """A strictly upper-triangular matrix tuple was required."""


class SingularMatrix(Error):
    """An invertible matrix was required."""
