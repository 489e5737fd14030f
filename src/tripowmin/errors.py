"""Exception types shared across the package, and the exponent check."""

import math


class TriPowMinError(Exception):
    """Base class for all package errors."""


class DegenerateTriangle(TriPowMinError):
    """The three vertices are collinear (or close enough to break the frame)."""


class InvalidExponent(TriPowMinError):
    """Exponent outside the domain of the requested operation."""


class PointNotInterior(TriPowMinError):
    """A strictly interior point was required."""


class PointNotFeasible(TriPowMinError):
    """The point lies outside the closed triangle beyond tolerance."""


class DidNotConverge(TriPowMinError):
    """An iterative oracle hit its iteration cap far from stationarity."""


def _check_exponent(n) -> float:
    """``float(n)``, or InvalidExponent unless it is finite and >= 1, the
    domain of every reader of F; the descent alone narrows it to n > 1."""
    n = float(n)
    if 1.0 <= n < math.inf:
        return n
    raise InvalidExponent(f"exponent must be a finite real >= 1, got {n!r}")
