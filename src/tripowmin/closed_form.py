"""Closed-form minimizers of the powered-distance sum over a triangle.

For exponent n > 1 the minimum of d1^n + d2^n + d3^n over the closed
triangle sits strictly inside, at a point expressed through two ratio
constants and their weighted sum. n = 1 degenerates to a vertex (the one
with the smallest altitude) and n -> infinity drives the minimizer to the
incenter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import _check_exponent
from .geometry import Altitudes, CanonicalTriangle, Isometry, altitudes


class DerivedConstants(NamedTuple):
    """Frame constants for exponent n: side lengths p, q, ratio constants
    t = (p/q)^(1/(n-1)) and r = ((b+c)/q)^(1/(n-1)), and their weighted sum
    lam = q + (b+c)r + pt. They satisfy t^n + r^n + 1 = lam/q."""

    p: float
    q: float
    t: float
    r: float
    lam: float


@dataclass(frozen=True)
class MinimizerResult:
    point_canonical: np.ndarray
    point_original: np.ndarray
    value: float
    constants: DerivedConstants
    exponent: float


class VertexValues(NamedTuple):
    f_a: float
    f_b: float
    f_c: float


class VertexMinimum(NamedTuple):
    label: str  # 'A' = apex, 'B' = (-b, 0), 'C' = (c, 0)
    point: np.ndarray
    value: float


def _pow_or_inf(base: float, n: float) -> float:
    # double overflow surfaces as +inf, not an exception; the minimizing
    # point stays finite even when the value leaves the double range
    try:
        return base ** n
    except OverflowError:
        return math.inf


def derived_constants(tri: CanonicalTriangle, n) -> DerivedConstants:
    """Ratio constants for exponent n > 1.

    pow keeps the 1/(n-1) roots exact at n = 2 (unit exponent) and stays
    accurate for the very large n used when chasing the incenter limit.
    """
    n = _check_exponent(n)
    p, q = tri.p, tri.q
    inv = 1.0 / (n - 1.0)
    t = (p / q) ** inv
    r = ((tri.b + tri.c) / q) ** inv
    lam = q + (tri.b + tri.c) * r + p * t
    return DerivedConstants(p, q, t, r, lam)


def minimize_closed_form(
    tri: CanonicalTriangle, n, isometry: Optional[Isometry] = None
) -> MinimizerResult:
    """Interior minimizer of the powered-distance sum for n > 1.

    The value is evaluated as (a(b+c)/lam)^n * (lam/q), which keeps the base
    of the large power at the scale of the balanced distance; for enormous n
    the true value can leave double range, in which case the field holds an
    honest 0.0 or inf while the point stays accurate. A point that itself
    leaves double range raises OverflowError instead of coming back as NaN.
    """
    k = derived_constants(tri, n)
    n = float(n)
    a, b, c = tri.a, tri.b, tri.c
    x = -(b * k.q - c * k.p * k.t) / k.lam
    y = a * (b + c) * k.r / k.lam
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OverflowError(
            f"minimizer ({x}, {y}) of a={a}, b={b}, c={c} is not finite"
        )
    value = _pow_or_inf(a * (b + c) / k.lam, n) * (k.lam / k.q)
    point = np.array([x, y])
    original = point.copy() if isometry is None else isometry.to_original((x, y))
    return MinimizerResult(point, original, value, k, n)


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
    alts: Altitudes = altitudes(tri)
    verts = tri.vertices()
    best = 0
    for i in (1, 2):
        if alts[i] < alts[best]:
            best = i
    return VertexMinimum("ABC"[best], verts[best].copy(), float(alts[best]))
