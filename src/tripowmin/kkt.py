"""The objective F and first- and second-order certification of
candidate minimizers.

F is the powered-distance sum; the feasible set is the closed triangle,
where the three side slacks (signed distances to the sides AB, AC and BC,
positive inside) are >= 0. Each slack's gradient is its side's unit
inward normal. ``kkt_residual`` checks the Karush-Kuhn-Tucker system at a
point: multipliers for the active constraints, stationarity of the
Lagrangian, complementary slackness and multiplier signs. At interior
points its report also carries the Hessian's fxx and determinant, both
positive for n > 1.

Every scalar reader of F, here and in both oracles, goes through one
kernel, ``_powers``. It works in the ratios r_i = d_i / max d, which never
leave [0, 1], so no power leaves the doubles; a quantity in the
triangle's own units is a ratio-unit one times a power of max d.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .closed_form import _pow_or_inf
from .errors import PointNotFeasible, _check_exponent
from .geometry import CanonicalTriangle, _normals, _side_lengths, _slacks

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


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    MULTIPLIER_NEGATIVE = "multiplier_negative"
    STATIONARITY_FAILED = "stationarity_failed"


@dataclass(frozen=True, init=False)
class KktReport:
    """``multipliers`` are per side (AB, AC, BC) and per unit normal, so in
    the gradient's units; the Hessian fields are NaN on the boundary. A
    field beyond the doubles reads +-inf."""

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


def _value(k):
    """F from the kernel's result: 0 or inf where it leaves the doubles."""
    n, _, top, _, total, _, _, _ = k
    return _pow_or_inf(top, n) * total


def _over(k, base):
    """F at the kernel's result ``k`` over F at ``base``, in ratio units."""
    n, _, top, _, total, _, _, _ = k
    _, _, base_top, _, base_total, _, _, _ = base
    return _pow_or_inf(top / base_top, n) * (total / base_total)


def _frame(a, b, c):
    """The triangle as ``_powers`` reads it, formed once: a, b, c scaled
    exactly by the power of two ``unit`` that puts a in [0.5, 1), so that
    no slack or normal over- or underflows at any size (only an a below
    2^-1023 is refused), with the side lengths p, q and unit normals."""
    try:
        unit = math.ldexp(1.0, -math.frexp(a)[1])
    except OverflowError:
        raise OverflowError(f"apex height a = {a!r} is below 2^-1023") from None
    a, b, c = a * unit, b * unit, c * unit
    p, q, _ = _side_lengths(a, b, c)
    return unit, a, b, c, p, q, _normals(a, b, c, p, q)


def _powers(frame, x, y, n):
    """The kernel: F in ratio units at (x, y) in the triangle of ``frame``
    (from ``_frame``), as (n, slacks, top, ratios, total, e, w, normals):

    the signed slacks s_i and top = max_i |s_i| in the triangle's units;
    r_i = |s_i| / top, so that F = top^n * total; e_i = r_i^(n-1), so that
    grad F = n top^(n-1) sum_i e_i u_i over the unit normals u_i; and
    w_i = (n-1) r_i^(n-2), so that hess F = n top^(n-2) sum_i w_i u_i u_i^T,
    with w None unless every s_i and r_i is > 0 (strictly inside). Each
    e_i is at most 1; total is sum r_i e_i and w_i is (n-1) e_i / r_i, so
    three powers make all of them. e_i is 0 where s_i <= 0: the one-sided
    derivative at a side, real where a boundary point lands an ulp outside.
    """
    unit, a, b, c, p, q, normals = frame
    s1, s2, s3 = _slacks(a, b, c, p, q, x * unit, y * unit)
    d1, d2, d3 = abs(s1), abs(s2), abs(s3)
    top = max(d1, d2, d3)
    r1, r2, r3 = d1 / top, d2 / top, d3 / top
    p1, p2, p3 = r1 ** (n - 1.0), r2 ** (n - 1.0), r3 ** (n - 1.0)
    w = None
    if s1 > 0.0 and s2 > 0.0 and s3 > 0.0 and r1 > 0.0 and r2 > 0.0 and r3 > 0.0:
        w = (n - 1.0) * p1 / r1, (n - 1.0) * p2 / r2, (n - 1.0) * p3 / r3
    return (
        n,
        (s1 / unit, s2 / unit, s3 / unit),
        top / unit,
        (r1, r2, r3),
        r1 * p1 + r2 * p2 + r3 * p3,
        (p1 if s1 > 0.0 else 0.0, p2 if s2 > 0.0 else 0.0, p3 if s3 > 0.0 else 0.0),
        w,
        normals,
    )


def _grad(normals, e):
    """grad F / (n top^(n-1)) = sum_i e_i u_i."""
    (u1x, u1y), (u2x, u2y), _ = normals
    e1, e2, e3 = e
    return e1 * u1x + e2 * u2x, e1 * u1y + e2 * u2y + e3


def _crosses(normals):
    """u1 x u2, u1 x u3 and u2 x u3; u3 = (0, 1), so the last two are u1x
    and u2x."""
    (u1x, u1y), (u2x, u2y), _ = normals
    return u1x * u2y - u1y * u2x, u1x, u2x


def _hessian(normals, w):
    """(fxx, det) of F / (n top^(n-2)) at an interior point. det is
    sum_{i<j} w_i w_j (u_i x u_j)^2, which agrees with fxx * fyy - fxy^2
    to roundoff but is positive for n > 1."""
    (u1x, _), (u2x, _), _ = normals
    w1, w2, w3 = w
    c12, c13, c23 = _crosses(normals)
    return (
        w1 * u1x * u1x + w2 * u2x * u2x,
        w1 * w2 * c12 * c12 + w1 * w3 * c13 * c13 + w2 * w3 * c23 * c23,
    )


def evaluate_F(tri: CanonicalTriangle, n, point) -> float:
    """Powered-distance sum at any planar point (n >= 1); 0 or inf where it
    leaves the doubles."""
    n = _check_exponent(n, allow_one=True)
    frame = _frame(tri.a, tri.b, tri.c)
    return _value(_powers(frame, float(point[0]), float(point[1]), n))


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


def kkt_residual(tri: CanonicalTriangle, n, point) -> KktReport:
    """First-order certificate at a feasible point.

    A constraint is active when its slack, the distance to its side, is at
    most the tolerance tol = 1e-9 * a, also the feasibility margin; the
    active multipliers solve the stationarity equations over the sides'
    unit normals, exactly for one or two, minimum-norm for three. The
    verdict is judged in ratio units, over the gradient scale
    G = n * max_i d_i^(n-1), so that it depends neither on the unit of
    length nor on whether G is a double: the stationarity residual and
    each multiplier over G must be within 1e-9, and complementary
    slackness over G (a length) within tol. Signs are judged
    first: an edge point with a descent direction into the interior
    reports MULTIPLIER_NEGATIVE even though its Lagrangian is stationary.

    The report's fields are the ratio-unit ones times G (or the Hessian's
    scale), in the triangle's own units: +-inf where that leaves the
    doubles, and an exact 0 stays 0. Only PointNotFeasible is raised.
    """
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    tol = 1e-9 * tri.a
    _, slacks, top, _, _, e, w, normals = _powers(_frame(tri.a, tri.b, tri.c), x, y, n)
    s1, s2, s3 = slacks
    # written so that a NaN slack fails it too
    if not (s1 >= -tol and s2 >= -tol and s3 >= -tol):
        raise PointNotFeasible(
            f"point {(x, y)} violates a side constraint by more than {tol}"
        )

    gx, gy = _grad(normals, e)
    active, labels = _ACTIVE[(s1 <= tol) + 2 * (s2 <= tol) + 4 * (s3 <= tol)]
    m = _multipliers(normals, active, gx, gy)
    rx, ry = gx, gy
    for i in active:
        rx -= m[i] * normals[i][0]
        ry -= m[i] * normals[i][1]
    stationarity = math.hypot(rx, ry)
    m1, m2, m3 = m
    comp_slack = max(abs(m1 * s1), abs(m2 * s2), abs(m3 * s3))

    if min(m) < -1e-9:
        verdict = Verdict.MULTIPLIER_NEGATIVE
    elif stationarity > 1e-9 or comp_slack > tol:
        verdict = Verdict.STATIONARITY_FAILED
    else:
        verdict = Verdict.SATISFIED

    # the scales of the Hessian and the gradient, n top^(n-2) and n top^(n-1)
    h_fxx = h_det = math.nan  # second-order fields are undefined on the boundary
    if w is not None:
        h = n * _pow_or_inf(top, n - 2.0)
        h_fxx, h_det = _hessian(normals, w)
        h_fxx, h_det = h_fxx * h if h_fxx else h_fxx, h_det * h * h if h_det else h_det
        g = h * top
    else:
        g = n * _pow_or_inf(top, n - 1.0)
    return KktReport(
        active_set=labels,
        # in the triangle's units; an exact 0 stays 0 where g is inf
        multipliers=(m1 * g if m1 else m1, m2 * g if m2 else m2, m3 * g if m3 else m3),
        stationarity_residual=stationarity * g if stationarity else stationarity,
        complementary_slackness_residual=comp_slack * g if comp_slack else comp_slack,
        hessian_fxx=h_fxx,
        hessian_det=h_det,
        verdict=verdict,
    )
