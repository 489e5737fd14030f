"""Closed-form minimizers of the powered-distance sum over a triangle.

For exponent n > 1 the minimum of d1^n + d2^n + d3^n over the closed
triangle sits strictly inside, at the trilinear point d_i ~ L_i^(1/(n-1)),
L_i the length of side i: the symmedian (Lemoine) point at n = 2, tending
to the incenter as n -> infinity. n = 1 degenerates to a vertex (the one
with the smallest altitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import _check_exponent
from .geometry import (
    CanonicalTriangle, Isometry, Point, _point, _side_lengths, _trilinear_point,
    altitudes,
)


class DerivedConstants(NamedTuple):
    """The paper's constants for exponent n: side lengths p, q, distance
    ratios t = d1/d2 = (p/q)^(1/(n-1)) and r = d3/d2 = ((b+c)/q)^(1/(n-1)),
    and lam = q + (b+c)r + pt = a(b+c)/d2, so t^n + r^n + 1 = lam/q. A
    constant that leaves the double range reads inf."""

    p: float
    q: float
    t: float
    r: float
    lam: float


@dataclass(frozen=True, init=False)
class MinimizerResult:
    """The minimizer of the powered-distance sum over ``triangle``.
    ``constants``, the paper's, and ``log_value`` are computed when read."""

    triangle: CanonicalTriangle
    point_canonical: Point
    point_original: Point
    value: float
    exponent: float

    def __init__(self, triangle, point_canonical, point_original, value, exponent):
        # each field stored once, as in geometry's constructors
        fields = self.__dict__
        fields["triangle"] = triangle
        fields["point_canonical"] = point_canonical
        fields["point_original"] = point_original
        fields["value"] = value
        fields["exponent"] = exponent

    @property
    def constants(self) -> DerivedConstants:
        tri = self.triangle
        inv = 1.0 / (self.exponent - 1.0)
        p, q, base = _side_lengths(tri.a, tri.b, tri.c)
        t = _pow_or_inf(p / q, inv)
        r = _pow_or_inf(base / q, inv)
        return DerivedConstants(p, q, t, r, q + base * r + p * t)

    @property
    def log_value(self) -> float:
        """log of ``value`` as n log h + log tot (see
        ``minimize_closed_form``), finite where the value is 0 or inf."""
        n, _, _, h, tot = _trilinear(self.triangle, self.exponent)
        return n * math.log(h) + math.log(tot)


class VertexMinimum(NamedTuple):
    label: str  # 'A' = apex, 'B' = (-b, 0), 'C' = (c, 0)
    point: Point
    value: float


def _pow_or_inf(base: float, n: float) -> float:
    """base ** n, or inf where that leaves the doubles and ** raises."""
    try:
        return base ** n
    except OverflowError:
        return math.inf


def _trilinear(tri: CanonicalTriangle, n):
    """The checked n and ``minimize_closed_form``'s x, y, h and tot."""
    n = _check_exponent(n)
    a, b, c = tri.a, tri.b, tri.c
    x, y, h, tot = _trilinear_point(a, b, c, _side_lengths(a, b, c), 1.0 / (n - 1.0))
    if not -math.inf < x < math.inf > y > -math.inf:  # both finite, neither NaN
        raise OverflowError(
            f"minimizer ({x}, {y}) of a={a}, b={b}, c={c} is not finite"
        )
    return n, x, y, h, tot


def minimize_closed_form(
    tri: CanonicalTriangle, n, isometry: Optional[Isometry] = None
) -> MinimizerResult:
    """Interior minimizer of the powered-distance sum for n > 1.

    Stationarity n * d_i^(n-1) = mu * L_i makes the side distances
    proportional to L_i^(1/(n-1)): a trilinear point, computed in ratios
    to the longest side so that nothing overflows for any n > 1. With
    d_i = h * w_i and w_i^(n-1) = L_i / L_max the value is
    h^n * sum_i (L_i / L_max) * w_i, one power, which reads an honest 0.0
    or inf when it leaves the double range. A point that itself leaves the
    range (a side length overflows) raises OverflowError, not NaN.
    """
    n, x, y, h, tot = _trilinear(tri, n)
    point = _point((x, y))
    original = point if isometry is None else isometry.to_original(point)
    return MinimizerResult(tri, point, original, _pow_or_inf(h, n) * tot, n)


def minimize_n1(tri: CanonicalTriangle) -> VertexMinimum:
    """Exponent-1 minimum: the vertex whose altitude is smallest.

    The plain distance sum is minimized at a vertex and its value there is
    that vertex's altitude; ties resolve in the order apex, left, right.
    """
    alts = altitudes(tri)
    best = min(range(3), key=alts.__getitem__)  # the first of equal minima
    return VertexMinimum("ABC"[best], tri.vertices()[best], alts[best])
