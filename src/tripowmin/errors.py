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


def _check_exponent(n, allow_one: bool = False) -> float:
    """``float(n)``, or InvalidExponent unless it is finite and > 1
    (>= 1 with ``allow_one``)."""
    n = float(n)
    if 1.0 < n < math.inf or (allow_one and n == 1.0):
        return n
    bound = ">= 1" if allow_one else "> 1"
    raise InvalidExponent(f"exponent must be a finite real {bound}, got {n!r}")
