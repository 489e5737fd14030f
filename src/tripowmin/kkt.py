"""First- and second-order certification of candidate minimizers.

The objective F is the powered-distance sum; the feasible set is the closed
triangle written as three linear inequalities g1 = ax - by + ab >= 0,
g2 = -ax - cy + ac >= 0, g3 = y >= 0. ``kkt_residual`` checks the
Karush-Kuhn-Tucker system at a point: multipliers for the active
constraints, stationarity of the Lagrangian, complementary slackness and
multiplier signs. ``hessian`` certifies strict convexity at interior
points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from .errors import PointNotFeasible, PointNotInterior, _check_exponent
from .geometry import CanonicalTriangle, Point

_SIDE_LABELS = ("AB", "AC", "BC")


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


@dataclass(frozen=True)
class KktReport:
    active_set: tuple[str, ...]
    multipliers: tuple[float, float, float]
    stationarity_residual: float
    complementary_slackness_residual: float
    hessian_fxx: float
    hessian_det: float
    verdict: Verdict


def evaluate_F(tri: CanonicalTriangle, n, point) -> float:
    """Powered-distance sum at any planar point (n >= 1)."""
    n = _check_exponent(n, allow_one=True)
    return _kernels.eval_f(tri.a, tri.b, tri.c, n, float(point[0]), float(point[1]))


def gradient(tri: CanonicalTriangle, n, point) -> Point:
    """Gradient of F at a strictly interior point, n > 1."""
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    if min(_kernels.side_slacks(tri.a, tri.b, tri.c, x, y)) <= 0.0:
        raise PointNotInterior(f"point {(x, y)} is not strictly inside the triangle")
    return Point(*_kernels.grad_f(tri.a, tri.b, tri.c, n, x, y))


def hessian(tri: CanonicalTriangle, n, point) -> HessianInfo:
    """Hessian entries and determinant of F at a strictly interior point.

    The determinant field comes from the expanded product form in the two
    side-distance powers rather than fxx*fyy - fxy^2; both agree to
    roundoff and the tests cross-check them.
    """
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    slacks = _kernels.side_slacks(tri.a, tri.b, tri.c, x, y)
    if min(slacks) <= 0.0:
        raise PointNotInterior(f"point {(x, y)} is not strictly inside the triangle")
    return _hessian(tri, n, _kernels.side_lengths(tri.a, tri.b, tri.c), *slacks)


def _hessian(tri: CanonicalTriangle, n: float, lengths, s1, s2, s3) -> HessianInfo:
    """``hessian`` from the side lengths and the three (positive) slacks."""
    a, b, c = tri.a, tri.b, tri.c
    p2 = lengths[0] * lengths[0]
    q2 = lengths[1] * lengths[1]
    g = s1 ** (n - 2.0)
    h = s2 ** (n - 2.0)
    w = s3 ** (n - 2.0)
    nn = n * (n - 1.0)
    fxx = nn * a * a * (g / p2 + h / q2)
    fxy = nn * a * (-b * g / p2 + c * h / q2)
    fyy = nn * (b * b * g / p2 + c * c * h / q2) + nn * w
    det = nn * nn * a * a * (g * h * (b + c) ** 2 / (p2 * q2) + (g / p2 + h / q2) * w)
    return HessianInfo(fxx, fxy, fyy, det)


def _multipliers(normals, active, gx, gy) -> list[float]:
    """Multipliers of the active constraints in grad F = sum_i m_i * normal_i.

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
        m[i] = (ux * gx + uy * gy) / (ux * ux + uy * uy)
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
    active multipliers solve the stationarity equations, exactly for one or
    two, minimum-norm for three. Against the gradient scale
    G = n * max_i d_i^(n-1), so that no verdict depends on the unit of
    length, the stationarity residual and each multiplier times its
    normal's length must be within 1e-9 * G, and complementary slackness
    over G (a length) within ``tolerance``. Signs are judged first: an edge
    point with a descent direction into the interior reports
    MULTIPLIER_NEGATIVE even though its Lagrangian is stationary.
    """
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    tol = 1e-9 * tri.a if tolerance is None else float(tolerance)
    a, b, c = tri.a, tri.b, tri.c
    slacks = _kernels.side_slacks(a, b, c, x, y)
    if not math.isfinite(sum(slacks)):  # an infinite scale would pass anything
        raise OverflowError(f"side slacks {slacks} are not finite")
    if min(slacks) < -tol:
        raise PointNotFeasible(
            f"point {(x, y)} violates a side constraint by more than {tol}"
        )

    gx, gy = _kernels.grad_f(a, b, c, n, x, y)
    # gradients of the raw constraint functions g1, g2, g3
    normals = ((a, -b), (-a, -c), (0.0, 1.0))
    active = [i for i in range(3) if slacks[i] <= tol]
    m = _multipliers(normals, active, gx, gy)
    rx, ry = gx, gy
    for i in active:
        rx -= m[i] * normals[i][0]
        ry -= m[i] * normals[i][1]
    stationarity = math.hypot(rx, ry)
    # the multipliers in gradient units: times the length of their normal
    lengths = _kernels.side_lengths(a, b, c)
    g = (m[0] * lengths[0], m[1] * lengths[1], m[2])
    comp_slack = max(abs(gi * si) for gi, si in zip(g, slacks))

    scale = n * max(slacks) ** (n - 1.0)
    if min(g) < -1e-9 * scale:
        verdict = Verdict.MULTIPLIER_NEGATIVE
    elif stationarity > 1e-9 * scale or comp_slack > tol * scale:
        verdict = Verdict.STATIONARITY_FAILED
    else:
        verdict = Verdict.SATISFIED

    h_fxx = h_det = math.nan  # second-order fields are undefined on the boundary
    if min(slacks) > 0.0:
        h_fxx, _, _, h_det = _hessian(tri, n, lengths, *slacks)

    return KktReport(
        active_set=tuple(_SIDE_LABELS[i] for i in active),
        multipliers=tuple(m),
        stationarity_residual=stationarity,
        complementary_slackness_residual=comp_slack,
        hessian_fxx=h_fxx,
        hessian_det=h_det,
        verdict=verdict,
    )
