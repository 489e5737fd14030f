"""The objective F and first- and second-order certification of
candidate minimizers.

F is the powered-distance sum; the feasible set is the closed triangle,
where the three side slacks s_i (signed distances to the sides AB, AC and
BC, positive inside) are >= 0. In those slacks the problem is
min sum s_i^n subject to sum L_i s_i = 2 area and s >= 0, L_i the side
lengths: a separable objective under one equality constraint, the
continuous nonlinear resource-allocation problem (Patriksson, EJOR 185,
2008). Its Karush-Kuhn-Tucker system n s_i^(n-1) = mu L_i + nu_i, with
nu_i >= 0 and nu_i s_i = 0, has one scalar mu and needs no normals;
``kkt_residual`` checks it at a point, each slack known only to within
its rounding. At interior points its report also carries the Hessian's
fxx and determinant, both positive for n > 1.

Every scalar reader of F, here and in both oracles, goes through one
kernel, ``_powers``. It works in the ratios r_i = d_i / max d, which never
leave [0, 1], so no power leaves the doubles; a quantity in the
triangle's own units is a ratio-unit one times a power of max d. The
kernel reads the triangle in one unit, ``_frame``'s: the power of two
that puts its inradius in [0.5, 1). Every operation of the kernel and the
grid is homogeneous, so the rescale, exact, changes no result. ``_frame`` is
also the one place that refuses a triangle for its size: where the
inradius or a side in that unit is not a double, it raises OverflowError.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .closed_form import _pow_or_inf
from .errors import PointNotFeasible, _check_exponent
from .geometry import CanonicalTriangle, _incenter, _normals, _side_lengths, _slacks

# the active set, indexed by which of AB, AC and BC (bits 4, 2, 1) are active
_ACTIVE_SETS = (
    (), ("BC",), ("AC",), ("AC", "BC"),
    ("AB",), ("AB", "BC"), ("AB", "AC"), ("AB", "AC", "BC"),
)

# the certificate's band: a point's slack is known to within this times
# the scale of its coordinates, seen along the side's normal
_ROUNDING = 8.0 * sys.float_info.epsilon


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    MULTIPLIER_NEGATIVE = "multiplier_negative"
    STATIONARITY_FAILED = "stationarity_failed"


@dataclass(frozen=True, init=False)
class KktReport:
    """``multipliers`` are the nu_i of n s_i^(n-1) = mu L_i + nu_i per side
    (AB, AC, BC), in the gradient's units: 0 where the side's rounding band
    admits KKT, and negative where it falls short. ``active_set`` holds the
    sides within rounding of the point. The Hessian fields are NaN on the
    boundary. A field beyond the doubles reads +-inf."""

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


def _log_value(k):
    """log F from the kernel's result, finite where F leaves the doubles."""
    n, _, top, _, total, _, _, _ = k
    return n * math.log(top) + math.log(total)


def _over(k, base):
    """F at the kernel's result ``k`` over F at ``base``, in ratio units."""
    n, _, top, _, total, _, _, _ = k
    _, _, base_top, _, base_total, _, _, _ = base
    return _pow_or_inf(top / base_top, n) * (total / base_total)


def _frame(a, b, c):
    """The triangle as ``_powers`` and the grid read it, formed once:
    (unit, a, b, c, p, q, normals, incenter), a, b, c scaled exactly by the
    power of two ``unit`` that puts the inradius a (b + c) / (p + q + b + c)
    in [0.5, 1), with the side lengths p, q and the unit normals in that
    unit, and the incenter (``geometry._incenter``) in the triangle's own
    units, where the oracles' descent starts. The inradius is the
    incenter's height, which stays a double where only the perimeter
    overflows.
    Refuses, with an OverflowError naming the triangle and its inradius, a
    triangle whose inradius is 0 or NaN, whose unit overflows (an inradius
    below about 2^-1024) or whose scaled sides are not all finite: no
    reader of F could answer on it."""
    incenter = _incenter(a, b, c)
    inradius = incenter[1]
    try:
        unit = math.ldexp(1.0, -math.frexp(inradius)[1])
    except OverflowError:
        unit = math.inf  # the scaled sides are inf and refused below
    sa, sb, sc = a * unit, b * unit, c * unit
    p, q, _ = _side_lengths(sa, sb, sc)
    # written so that a NaN inradius or side fails it too; p >= b, q >= c
    if not (0.0 < inradius and p < math.inf > q and sb + sc < math.inf):
        raise OverflowError(
            f"triangle a={a!r}, b={b!r}, c={c!r}, inradius {inradius!r}, "
            "leaves the doubles in the unit that puts its inradius in [0.5, 1)"
        )
    return unit, sa, sb, sc, p, q, _normals(sa, sb, sc, p, q), incenter


def _rounding(frame, eps):
    """A point's rounding along each side's unit normal u_i in the triangle
    of ``frame``, in its own units: eps (|u_ix| (b + c) + |u_iy| a), that is
    eps a (2b + c) / p, eps a (b + 2c) / q and eps a."""
    unit, a, b, c, p, q, _, _ = frame
    base = b + c
    d3 = eps * a / unit
    return d3 * (base + b) / p, d3 * (base + c) / q, d3


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
    unit, a, b, c, p, q, normals, _ = frame
    s1, s2, s3 = _slacks(a, b, c, p, q, x * unit, y * unit)
    d1, d2, d3 = abs(s1), abs(s2), abs(s3)
    # max(d1, d2, d3) inlined: a NaN d1 stays top, a NaN d2 or d3 is passed over
    top = d2 if d2 > d1 else d1
    top = d3 if d3 > top else top
    r1, r2, r3 = d1 / top, d2 / top, d3 / top
    m = n - 1.0
    p1, p2, p3 = r1 ** m, r2 ** m, r3 ** m
    w = None
    if s1 > 0.0 and s2 > 0.0 and s3 > 0.0 and r1 > 0.0 and r2 > 0.0 and r3 > 0.0:
        w = m * p1 / r1, m * p2 / r2, m * p3 / r3
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


def _crosses(normals):
    """u1 x u2, u1 x u3 and u2 x u3; u3 = (0, 1), so the last two are u1x
    and u2x."""
    (u1x, u1y), (u2x, u2y), _ = normals
    return u1x * u2y - u1y * u2x, u1x, u2x


def _det(w, crosses):
    """sum_{i<j} w_i w_j c_ij^2, the determinant of hess F / (n top^(n-2))
    from the kernel's weights w and the crosses c of the normals: those of
    ``_crosses``, or the descent's, scaled by a power of two."""
    w1, w2, w3 = w
    c12, c13, c23 = crosses
    return w1 * w2 * c12 * c12 + w1 * w3 * c13 * c13 + w2 * w3 * c23 * c23


def _hessian(normals, w):
    """(fxx, det) of F / (n top^(n-2)) at an interior point. det is
    sum_{i<j} w_i w_j (u_i x u_j)^2, which agrees with fxx * fyy - fxy^2
    to roundoff but is positive for n > 1."""
    (u1x, _), (u2x, _), _ = normals
    w1, w2, _ = w
    return w1 * u1x * u1x + w2 * u2x * u2x, _det(w, _crosses(normals))


def evaluate_F(tri: CanonicalTriangle, n, point) -> float:
    """Powered-distance sum at any planar point (n >= 1); 0 or inf where it
    leaves the doubles. Raises ``_frame``'s OverflowError for a triangle
    beyond the doubles."""
    n = _check_exponent(n)
    frame = _frame(tri.a, tri.b, tri.c)
    return _value(_powers(frame, float(point[0]), float(point[1]), n))


def _band(s, d, rho, top, m):
    """One side's band [lo, hi] = [max(s - d, 0), max(s + d, 0)] / top,
    the ratio r = s / top known to within the slack's rounding d, and the
    bounds it puts on log mu: (n-1) log r - log rho at r = lo and at r = hi,
    -inf at r = 0. ``m`` is n - 1."""
    lo = (s - d) / top if s > d else 0.0
    hi = (s + d) / top if s > -d else 0.0
    g = math.log(rho)
    low = m * math.log(lo) - g if lo else -math.inf
    return lo, hi, low, m * math.log(hi) - g if hi else -math.inf


def kkt_residual(tri: CanonicalTriangle, n, point) -> KktReport:
    """First-order certificate at a feasible point, in slack coordinates.

    Over the gradient scale G = n top^(n-1), top = max_i s_i, the system
    reads r_i^(n-1) = mu rho_i + nu_i in the ratios r_i = s_i / top and
    rho_i = L_i / L_max. Each slack is known only to within the point's own
    rounding: delta_i = 8 eps (|u_ix| (b + c) + |u_iy| a) along side i's
    unit normal u_i, about 8 eps times the diameter and far less across a
    flat triangle. So r_i lies in its band [lo_i, hi_i] =
    [max(s_i - delta_i, 0), s_i + delta_i] / top, and the verdict is
    SATISFIED iff one mu fits every band:
    max_i (n-1) log lo_i - log rho_i <= min_i (n-1) log hi_i - log rho_i.
    Neither the unit of length nor G being a double can sway it. A side
    with lo_i = 0 is active, within rounding of the point, and leaving its
    lower bound open is nu_i >= 0. For the least mu that every lower bound
    allows, nu_i < 0 on each side whose upper bound falls short of it:
    MULTIPLIER_NEGATIVE if one of them is active, else STATIONARITY_FAILED.
    At n = 1 every bound is -log rho_i, or -inf at r = 0, so the test
    reads: each side off the active set is a longest side.

    The report's fields are the ratio-unit ones times G (or the Hessian's
    scale), in the triangle's own units: +-inf where that leaves the
    doubles, and an exact 0 stays 0. The stationarity residual is the
    largest |nu_i| off the active set, complementary slackness the
    largest |nu_i s_i|. The multipliers and both residuals are computed
    only when the verdict fails; a SATISFIED report carries them as the
    exact zeros they would come to. Raises PointNotFeasible for a slack
    below -1e-9 * a, and ``_frame``'s OverflowError for a triangle beyond
    the doubles.
    """
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    tol = 1e-9 * tri.a
    frame = _, _, b, c, p, q, normals, _ = _frame(tri.a, tri.b, tri.c)
    _, slacks, top, _, _, _, w, _ = _powers(frame, x, y, n)
    s1, s2, s3 = slacks
    # written so that a NaN slack fails it too
    if not (s1 >= -tol and s2 >= -tol and s3 >= -tol):
        raise PointNotFeasible(
            f"point {(x, y)} violates a side constraint by more than {tol}"
        )

    base = b + c
    # max and min inlined, keeping the first of equal extremes as they do
    # (``.index(floor)`` below relies on it). No operand is NaN: the test
    # above refuses NaN slacks and the frame non-finite sides, so each
    # bound is finite or -inf
    longest = q if q > p else p
    longest = base if base > longest else longest
    d1, d2, d3 = _rounding(frame, _ROUNDING)
    m = n - 1.0
    lo1, hi1, low1, high1 = _band(s1, d1, p / longest, top, m)
    lo2, hi2, low2, high2 = _band(s2, d2, q / longest, top, m)
    lo3, hi3, low3, high3 = _band(s3, d3, base / longest, top, m)

    # the scale of the Hessian, n top^(n-2)
    h_fxx = h_det = math.nan  # second-order fields are undefined on the boundary
    if w is not None:
        h = n * _pow_or_inf(top, n - 2.0)
        h_fxx, h_det = _hessian(normals, w)
        h_fxx, h_det = h_fxx * h if h_fxx else h_fxx, h_det * h * h if h_det else h_det
    active = _ACTIVE_SETS[(not lo1) * 4 + (not lo2) * 2 + (not lo3)]
    floor = low2 if low2 > low1 else low1
    floor = low3 if low3 > floor else floor
    ceiling = high2 if high2 < high1 else high1
    if floor <= (high3 if high3 < ceiling else ceiling):
        # one mu fits every band: nu = 0, and so are both residuals
        return KktReport(
            active, (0.0, 0.0, 0.0), 0.0, 0.0, h_fxx, h_det, Verdict.SATISFIED
        )

    # mu = lo_k^(n-1) / rho_k is the least that every lower bound allows,
    # and nu_i = hi_i^(n-1) - mu rho_i on each side whose upper bound falls
    # short of it, mu rho_i = lo_k^(n-1) L_i / L_k
    lengths = p, q, base
    bands = (lo1, hi1, high1), (lo2, hi2, high2), (lo3, hi3, high3)
    k = (low1, low2, low3).index(floor)
    mu_per_length = _pow_or_inf(bands[k][0], m) / lengths[k]
    nu = [0.0, 0.0, 0.0]
    verdict = Verdict.STATIONARITY_FAILED
    for i, (lo, hi, high) in enumerate(bands):
        if high < floor:
            nu[i] = _pow_or_inf(hi, m) - mu_per_length * lengths[i]
            if not lo:
                verdict = Verdict.MULTIPLIER_NEGATIVE
    stationarity = max((abs(v) for v, (lo, _, _) in zip(nu, bands) if lo), default=0.0)
    comp_slack = max(abs(v * s) for v, s in zip(nu, slacks))
    # the gradient's scale, n top^(n-1); an exact 0 stays 0 where it is inf
    g = h * top if w is not None else n * _pow_or_inf(top, n - 1.0)
    m1, m2, m3 = nu
    return KktReport(
        active,
        (m1 * g if m1 else m1, m2 * g if m2 else m2, m3 * g if m3 else m3),
        stationarity * g if stationarity else stationarity,
        comp_slack * g if comp_slack else comp_slack,
        h_fxx,
        h_det,
        verdict,
    )
