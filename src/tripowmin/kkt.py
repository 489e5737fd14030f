"""First- and second-order certification of candidate minimizers.

The objective F is the powered-distance sum; the feasible set is the closed
triangle, where the three side slacks (signed distances to the sides AB,
AC and BC, positive inside) are >= 0. Each slack's gradient is its side's
unit inward normal. ``kkt_residual`` checks the Karush-Kuhn-Tucker system
at a point: multipliers for the active constraints, stationarity of the
Lagrangian, complementary slackness and multiplier signs. ``hessian``
gives the second derivatives at interior points, where they are positive
definite for n > 1.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import PointNotFeasible, PointNotInterior, _check_exponent
from .geometry import (
    CanonicalTriangle, Point, _normals, _point, _side_lengths, _side_slacks, _slacks
)

_SIDE_LABELS = ("AB", "AC", "BC")

# the active sides and their labels, indexed by the bit mask
# (side 1 active) + 2 * (side 2 active) + 4 * (side 3 active)
_ACTIVE = tuple(
    (
        tuple(i for i in range(3) if mask >> i & 1),
        tuple(_SIDE_LABELS[i] for i in range(3) if mask >> i & 1),
    )
    for mask in range(8)
)

_TINY = sys.float_info.min


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    MULTIPLIER_NEGATIVE = "multiplier_negative"
    STATIONARITY_FAILED = "stationarity_failed"


class HessianInfo(NamedTuple):
    """Second derivatives of the objective at an interior point."""

    fxx: float
    fxy: float
    fyy: float
    det: float


@dataclass(frozen=True, init=False)
class KktReport:
    """``multipliers`` are per side (AB, AC, BC) and per unit normal, so in
    the gradient's units; the Hessian fields are NaN on the boundary."""

    active_set: tuple[str, ...]
    multipliers: tuple[float, float, float]
    stationarity_residual: float
    complementary_slackness_residual: float
    hessian_fxx: float
    hessian_det: float
    verdict: Verdict

    def __init__(
        self,
        active_set,
        multipliers,
        stationarity_residual,
        complementary_slackness_residual,
        hessian_fxx,
        hessian_det,
        verdict,
    ):
        # each field stored once, as in geometry's constructors
        fields = self.__dict__
        fields["active_set"] = active_set
        fields["multipliers"] = multipliers
        fields["stationarity_residual"] = stationarity_residual
        fields["complementary_slackness_residual"] = complementary_slackness_residual
        fields["hessian_fxx"] = hessian_fxx
        fields["hessian_det"] = hessian_det
        fields["verdict"] = verdict


def _power_sum(slacks, n):
    """Sum of the n-th powers of the absolute slacks."""
    s1, s2, s3 = slacks
    return abs(s1) ** n + abs(s2) ** n + abs(s3) ** n


def _power_sum_grad(normals, slacks, n):
    """Gradient of ``_power_sum`` for n > 1: sum_i n * s_i^(n-1) * u_i.

    Slacks are clamped at zero so fractional powers stay real when a
    boundary point lands an ulp outside; the clamped value is exactly the
    one-sided derivative there.
    """
    (u1x, u1y), (u2x, u2y), (u3x, u3y) = normals
    s1, s2, s3 = slacks
    d1 = s1 ** (n - 1.0) if s1 > 0.0 else 0.0
    d2 = s2 ** (n - 1.0) if s2 > 0.0 else 0.0
    d3 = s3 ** (n - 1.0) if s3 > 0.0 else 0.0
    gx = n * u1x * d1 + n * u2x * d2 + n * u3x * d3
    gy = n * u1y * d1 + n * u2y * d2 + n * u3y * d3
    return gx, gy


def evaluate_F(tri: CanonicalTriangle, n, point) -> float:
    """Powered-distance sum at any planar point (n >= 1)."""
    n = _check_exponent(n, allow_one=True)
    x, y = float(point[0]), float(point[1])
    return _power_sum(_side_slacks(tri.a, tri.b, tri.c, x, y), n)


def gradient(tri: CanonicalTriangle, n, point) -> Point:
    """Gradient of F at a strictly interior point, n > 1; raises like ``hessian``."""
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    slacks, normals = _slacks_and_normals(tri, x, y)
    if min(slacks) <= 0.0:
        raise PointNotInterior(f"point {(x, y)} is not strictly inside the triangle")
    return _point(_power_sum_grad(normals, slacks, n))


def hessian(tri: CanonicalTriangle, n, point) -> HessianInfo:
    """Hessian entries and determinant of F at a strictly interior point.

    The determinant field comes from the pairwise cross products of the
    side normals rather than fxx*fyy - fxy^2; both agree to roundoff and
    the tests cross-check them. Raises like ``kkt_residual`` where the
    slacks leave the double range.
    """
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    slacks, normals = _slacks_and_normals(tri, x, y)
    if min(slacks) <= 0.0:
        raise PointNotInterior(f"point {(x, y)} is not strictly inside the triangle")
    return HessianInfo(*_hessian(normals, slacks, n))


def _slacks_and_normals(tri: CanonicalTriangle, x, y):
    """The point's side slacks and the sides' unit normals, from one pair
    of side lengths; refused where the doubles cannot carry the slacks:
    FloatingPointError when a * min(b, c) is subnormal, which leaves the
    slacks' products wrong in the fifth digit, and OverflowError when a
    slack is not finite, which would make any residual pass."""
    a, b, c = tri.a, tri.b, tri.c
    if a * min(b, c) < _TINY:
        raise FloatingPointError(
            f"a * min(b, c) = {a * min(b, c)!r} is below the normal doubles"
        )
    p, q, _ = _side_lengths(a, b, c)
    slacks = s1, s2, s3 = _slacks(a, b, c, p, q, x, y)
    if not math.isfinite(s1 + s2 + s3):
        raise OverflowError(f"side slacks {slacks} are not finite")
    return slacks, _normals(a, b, c, p, q)


def _hessian(normals, slacks, n: float):
    """n(n-1) * sum_i s_i^(n-2) * u_i u_i^T over the unit normals u_i and
    the (positive) slacks s_i, as (fxx, fxy, fyy, det). Its determinant is
    the sum over side pairs of n^2(n-1)^2 * s_i^(n-2) * s_j^(n-2) *
    (u_i x u_j)^2, positive for n > 1 because any two sides' normals are
    independent."""
    (u1x, u1y), (u2x, u2y), (u3x, u3y) = normals
    s1, s2, s3 = slacks
    w1, w2, w3 = s1 ** (n - 2.0), s2 ** (n - 2.0), s3 ** (n - 2.0)
    nn = n * (n - 1.0)
    fxx = nn * (w1 * u1x * u1x + w2 * u2x * u2x + w3 * u3x * u3x)
    fxy = nn * (w1 * u1x * u1y + w2 * u2x * u2y + w3 * u3x * u3y)
    fyy = nn * (w1 * u1y * u1y + w2 * u2y * u2y + w3 * u3y * u3y)
    c12 = u1x * u2y - u1y * u2x
    c13 = u1x * u3y - u1y * u3x
    c23 = u2x * u3y - u2y * u3x
    det = nn * nn * (w1 * w2 * c12 * c12 + w1 * w3 * c13 * c13 + w2 * w3 * c23 * c23)
    return fxx, fxy, fyy, det


def _multipliers(normals, active, gx, gy) -> list[float]:
    """Multipliers of the active sides in grad F = sum_i m_i * u_i, u_i the
    unit normals.

    One active side: the projection of the gradient on its normal. Two: the
    2x2 system, solved by Cramer's rule (the normals of two sides are never
    parallel). Three, which only a needle's sharp tip reaches within
    tolerance: the minimum-norm solution m = N^T (N N^T)^-1 g, N the 2x3
    matrix of the normals, with the 2x2 system N N^T z = g by Cramer's rule.
    """
    m = [0.0, 0.0, 0.0]
    if len(active) == 1:
        i = active[0]
        ux, uy = normals[i]
        m[i] = ux * gx + uy * gy
    elif len(active) == 2:
        i, j = active
        (ux, uy), (vx, vy) = normals[i], normals[j]
        det = ux * vy - uy * vx
        m[i] = (gx * vy - gy * vx) / det
        m[j] = (ux * gy - uy * gx) / det
    elif len(active) == 3:
        sxx = sum(ux * ux for ux, _ in normals)
        sxy = sum(ux * uy for ux, uy in normals)
        syy = sum(uy * uy for _, uy in normals)
        det = sxx * syy - sxy * sxy
        zx = (gx * syy - gy * sxy) / det
        zy = (sxx * gy - sxy * gx) / det
        m = [ux * zx + uy * zy for ux, uy in normals]
    return m


def kkt_residual(tri: CanonicalTriangle, n, point, tolerance=None) -> KktReport:
    """First-order certificate at a feasible point.

    A constraint is active when its slack, the distance to its side, is at
    most ``tolerance`` (default 1e-9 * a, also the feasibility margin); the
    active multipliers solve the stationarity equations over the sides'
    unit normals, exactly for one or two, minimum-norm for three. Against
    the gradient scale G = n * max_i d_i^(n-1), so that no verdict depends
    on the unit of length, the stationarity residual and each multiplier
    must be within 1e-9 * G, and complementary slackness over G (a length)
    within ``tolerance``. Signs are judged first: an edge point with a
    descent direction into the interior reports MULTIPLIER_NEGATIVE even
    though its Lagrangian is stationary.

    The slacks are formed once; the gradient, the multipliers and the
    Hessian fields all come from them and the unit normals. Raises
    FloatingPointError or OverflowError where the slacks leave the double
    range, and FloatingPointError where G is below the normal doubles.
    """
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    tol = 1e-9 * tri.a if tolerance is None else float(tolerance)
    slacks, normals = _slacks_and_normals(tri, x, y)
    s1, s2, s3 = slacks
    lowest = min(slacks)
    if lowest < -tol:
        raise PointNotFeasible(
            f"point {(x, y)} violates a side constraint by more than {tol}"
        )

    gx, gy = _power_sum_grad(normals, slacks, n)
    active, labels = _ACTIVE[(s1 <= tol) + 2 * (s2 <= tol) + 4 * (s3 <= tol)]
    m = _multipliers(normals, active, gx, gy)
    rx, ry = gx, gy
    for i in active:
        rx -= m[i] * normals[i][0]
        ry -= m[i] * normals[i][1]
    stationarity = math.hypot(rx, ry)
    m1, m2, m3 = m
    comp_slack = max(abs(m1 * s1), abs(m2 * s2), abs(m3 * s3))

    scale = n * max(slacks) ** (n - 1.0)
    if scale < _TINY:
        # a subnormal scale would judge roundoff-level residuals as failures
        raise FloatingPointError(
            f"gradient scale n * max d_i^(n-1) = {scale!r} is below the normal doubles"
        )
    if min(m) < -1e-9 * scale:
        verdict = Verdict.MULTIPLIER_NEGATIVE
    elif stationarity > 1e-9 * scale or comp_slack > tol * scale:
        verdict = Verdict.STATIONARITY_FAILED
    else:
        verdict = Verdict.SATISFIED

    h_fxx = h_det = math.nan  # second-order fields are undefined on the boundary
    if lowest > 0.0:
        h_fxx, _, _, h_det = _hessian(normals, slacks, n)

    return KktReport(
        active_set=labels,
        multipliers=tuple(m),
        stationarity_residual=stationarity,
        complementary_slackness_residual=comp_slack,
        hessian_fxx=h_fxx,
        hessian_det=h_det,
        verdict=verdict,
    )
