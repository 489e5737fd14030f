"""The closed-form minimizer of the powered-distance sum over a triangle.

For exponent n > 1 the minimum of d1^n + d2^n + d3^n over the closed
triangle sits strictly inside, at the trilinear point d_i ~ L_i^(1/(n-1)),
L_i the length of side i: the symmedian (Lemoine) point at n = 2, tending
to the incenter as n -> infinity. At n = 1 the same formula, with the root
1/(n-1) at its n -> 1+ limit inf, gives the vertex of the smallest
altitude, and a point of the side joining two vertices whose altitudes tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import _check_exponent
from .geometry import (
    CanonicalTriangle, Isometry, Point, _finite_lengths, _point, _side_lengths,
    _trilinear_point,
)


class DerivedConstants(NamedTuple):
    """The paper's constants for exponent n: side lengths p, q, distance
    ratios t = d1/d2 = (p/q)^(1/(n-1)) and r = d3/d2 = ((b+c)/q)^(1/(n-1)),
    and lam = q + (b+c)r + pt = a(b+c)/d2, so t^n + r^n + 1 = lam/q. At
    n = 1 t and r are their n -> 1+ limits, each 0, 1 or inf. The ratios
    are the point's (``geometry._finite_lengths``), and a constant that
    leaves the double range reads inf."""

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
        a, b, c = self.triangle.a, self.triangle.b, self.triangle.c
        root = _root(self.exponent)
        l1, l2, l3 = _finite_lengths(a, b, c)
        t = _pow_or_inf(l1 / l2, root)
        r = _pow_or_inf(l3 / l2, root)
        p, q, base = _side_lengths(a, b, c)
        return DerivedConstants(p, q, t, r, q + base * r + p * t)

    @property
    def log_value(self) -> float:
        """log of ``value`` as n log h + log tot (see
        ``minimize_closed_form``), finite where the value is 0 or inf."""
        n, _, _, h, tot = _trilinear(self.triangle, self.exponent)
        return n * math.log(h) + math.log(tot)


def _pow_or_inf(base: float, n: float) -> float:
    """base ** n, or inf where that leaves the doubles and ** raises."""
    try:
        return base ** n
    except OverflowError:
        return math.inf


def _root(n):
    """The trilinear root 1/(n-1) of a checked n, and inf, its n -> 1+
    limit, at n = 1."""
    return 1.0 / (n - 1.0) if n > 1.0 else math.inf


def _trilinear(tri: CanonicalTriangle, n):
    """The checked n and ``minimize_closed_form``'s x, y, h and tot."""
    n = _check_exponent(n)
    a, b, c = tri.a, tri.b, tri.c
    return (n, *_trilinear_point(a, b, c, _side_lengths(a, b, c), _root(n)))


def minimize_closed_form(
    tri: CanonicalTriangle, n, isometry: Optional[Isometry] = None
) -> MinimizerResult:
    """Minimizer of the powered-distance sum for any n >= 1.

    Stationarity n * d_i^(n-1) = mu * L_i makes the side distances
    proportional to L_i^(1/(n-1)): a trilinear point, computed in ratios
    to the longest side so that nothing overflows for any n. With
    d_i = h * w_i and w_i^(n-1) = L_i / L_max the value is
    h^n * sum_i (L_i / L_max) * w_i, one power, which reads an honest 0.0
    or inf when it leaves the double range. Where a side length overflows
    the ratios come from the half triangle, so the point is always finite.
    At n = 1 the root is inf, and w_i is 1 on each longest side and 0 on
    the others: where two altitudes tie, the point lies on the side
    joining their vertices, all of which minimizes, and on the
    equilateral, where F is constant, it is the incenter.
    """
    n, x, y, h, tot = _trilinear(tri, n)
    point = _point((x, y))
    original = point if isometry is None else isometry.to_original(point)
    return MinimizerResult(tri, point, original, _pow_or_inf(h, n) * tot, n)

