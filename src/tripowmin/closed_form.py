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

from . import _kernels
from .errors import _check_exponent
from .geometry import CanonicalTriangle, Isometry, Point, altitudes


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


@dataclass(frozen=True)
class MinimizerResult:
    point_canonical: Point
    point_original: Point
    value: float
    constants: DerivedConstants
    exponent: float


class VertexValues(NamedTuple):
    f_a: float
    f_b: float
    f_c: float


class VertexMinimum(NamedTuple):
    label: str  # 'A' = apex, 'B' = (-b, 0), 'C' = (c, 0)
    point: Point
    value: float


def _pow_or_inf(base: float, n: float) -> float:
    # double overflow surfaces as +inf, not an exception; the minimizing
    # point stays finite even when the value leaves the double range
    try:
        return base ** n
    except OverflowError:
        return math.inf


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
    n = _check_exponent(n)
    a, b, c = tri.a, tri.b, tri.c
    inv = 1.0 / (n - 1.0)
    p, q, base = lengths = _kernels.side_lengths(a, b, c)
    x, y, h, tot = _kernels.trilinear_point(a, b, c, lengths, inv)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OverflowError(
            f"minimizer ({x}, {y}) of a={a}, b={b}, c={c} is not finite"
        )
    t = _pow_or_inf(p / q, inv)
    r = _pow_or_inf(base / q, inv)
    constants = DerivedConstants(p, q, t, r, q + base * r + p * t)
    point = Point(x, y)
    original = point if isometry is None else isometry.to_original(point)
    return MinimizerResult(point, original, _pow_or_inf(h, n) * tot, constants, n)


def vertex_values(tri: CanonicalTriangle, n) -> VertexValues:
    """Objective at the three vertices: each vertex's altitude to the n-th
    power, a^n, (a(b+c)/q)^n and (a(b+c)/p)^n."""
    n = _check_exponent(n, allow_one=True)
    return VertexValues(*(_pow_or_inf(h, n) for h in altitudes(tri)))


def minimize_n1(tri: CanonicalTriangle) -> VertexMinimum:
    """Exponent-1 minimum: the vertex whose altitude is smallest.

    The plain distance sum is minimized at a vertex and its value there is
    that vertex's altitude; ties resolve in the order apex, left, right.
    """
    alts = altitudes(tri)
    best = min(range(3), key=alts.__getitem__)  # the first of equal minima
    return VertexMinimum("ABC"[best], tri.vertices()[best], float(alts[best]))
