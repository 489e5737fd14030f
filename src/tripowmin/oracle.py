"""Brute-force minimizers used to certify the closed form.

Two independent numeric routes that never touch the closed-form formulas:
line searches on F (``grid_search``) and a damped Newton descent. On
each horizontal chord the slacks to the two upper sides are both
proportional to the chord's length, so s1^n + s2^n is homogeneous of
degree n in it and every chord has its least F at the same fraction of
its length: the minimizer lies on the cevian from the apex through that
fraction, and ``grid_search`` finds the fraction once and then the height
along the cevian. ``compare``, the one oracle verdict at every n >= 1,
runs both against the closed form and reports the gaps; it starts the
descent from the better of the grid's answer and the incenter, so the
descent reuses the grid's work, and neither oracle reads the closed
form. No oracle reads a setting. Both run on the standard library alone.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .closed_form import _pow_or_inf, _trilinear
from .errors import DidNotConverge, InvalidExponent, PointNotInterior, _check_exponent
from .geometry import CanonicalTriangle, Point
from .kkt import (
    _crosses, _det, _frame, _log_value, _over, _powers, _rounding, _value,
)


_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon
_LINE_TOL = 1e-7  # a line search ends within this share of its interval
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # the golden section's smaller part
# _norm_min's walk toward a side: a step 16 times nearer crosses 1.2
# decades a read, where a golden section crosses 0.21, and the bracket it
# leaves has ends 256 times apart in distance to the side, which Brent
# closes in about nine reads; 8 and 32 read F as often, within 0.1 reads a
# call on the benchmark's oracle-compare pools
_WALK = 16.0
# ... and stops on a read within 32 tol of the side: the next would land
# within 2 tol, no farther out than the end check's read at tol
_WALK_STOP = 32.0
# the descent's step cap: no test, digest case or pool takes more than 18
# steps, so the cap bounds only a run that cannot meet its stopping rule
_MAX_STEPS = 1000


@dataclass(frozen=True)
class OracleConfig:
    """Read by no oracle: kept, each field still checked to be an integer,
    only for the benchmark's call sites, which pass one to all three. The
    descent's step cap is ``_MAX_STEPS``, and the grid has no lattice."""

    grid_resolution: int = 42
    zoom_iterations: int = 11
    pg_max_iters: int = 200_000

    def __post_init__(self):
        for name, low in (
            ("grid_resolution", 1), ("zoom_iterations", 0), ("pg_max_iters", 1)
        ):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
            object.__setattr__(self, name, value)


class PgResult(NamedTuple):
    point: Point
    value: float
    iterations: int


@dataclass(frozen=True, init=False)
class DiscrepancyReport:
    point_gap: float
    value_gap_rel: float
    oracle_value: float
    closed_form_value: float
    passed: bool

    def __init__(self, point_gap, value_gap_rel, oracle_value, closed_form_value, passed):
        # each field stored once, as in kkt.KktReport
        fields = self.__dict__
        fields["point_gap"] = point_gap
        fields["value_gap_rel"] = value_gap_rel
        fields["oracle_value"] = oracle_value
        fields["closed_form_value"] = closed_form_value
        fields["passed"] = passed


def _norm_min(cu, cv, h, n):
    """The least on [0, h] of f(x) = log (u^n + v^n)^(1/n), u = cu x and
    v = cv (h - x) (u, v >= 0, not both 0), to within _LINE_TOL of the
    interval; returns (x, f(x), the reads of f). Each read is
    log top + log(1 + (low / top)^n) / n, top the larger of u and v:
    finite at any n, where n log top is not from about n = 1e306. f is the
    log of a convex function, so quasiconvex, and the search reads its
    values alone. The read is written once, in the loop, so that none
    costs a call.

    The ends are checked first, h then 0: where f(h - tol) >= f(h),
    quasiconvexity puts the minimizer within tol of h, and h itself is
    returned; the same holds at 0. An end where f is inf never passes,
    and an exact tie, as along an isosceles triangle's base at n = 1,
    goes to h. At n = 1, where f is monotone, this returns the end
    exactly.

    Then Brent's bounded search (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5): parabolic steps safeguarded by
    golden sections, from the golden point nearer the lower end. Near
    n = 1 the minimizer can sit decades nearer that end, and golden
    sections close in on it by 0.618 a read. So where the golden point is
    no better than the lower end, the search first brackets the minimizer
    by geometric steps toward that end (Press et al., Numerical Recipes,
    3rd ed., 2007, 10.1), each _WALK times nearer, and Brent starts on the
    bracket. On the seeded triangles at n = 1.01, a search whose minimizer
    lies 1e-2 to 1e-7 of its interval from a side reads f at most 19
    times, where golden sections read it 21 to 37 times
    (tests/test_grid_walk.py).
    """
    log, log1p = math.log, math.log1p
    tol = _LINE_TOL * h
    tol2 = 2.0 * tol
    reads = 0
    # the read at u is for: 0 to 3 the end checks at h, h - tol, 0 and tol
    # in turn, 4 the golden point, 5 the walk, 6 Brent
    stage, u = 0, h
    while True:
        s, t = cu * u, cv * (h - u)
        if s < t:
            s, t = t, s
        fu = log(s) + log1p((t / s) ** n) / n
        reads += 1
        if stage == 6:
            if fu <= fx:
                if u >= x:
                    a = x
                else:
                    b = x
                v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            else:
                if u < x:
                    a = u
                else:
                    b = u
                if fu <= fw or w == x:
                    v, fv, w, fw = w, fw, u, fu
                elif fu <= fv or v == x or v == w:
                    v, fv = u, fu
        elif stage == 5:  # x is the walk's best read, w the one before it
            # near n = 1, f rises almost linearly away from the lower end,
            # and a read lies above the end's value until it nears the
            # minimizer; one below it finds a dip as wide as at larger n,
            # which further steps would overshoot
            if f_end <= fu < fx and abs(u - end) >= stop:
                w, fw, x, fx = x, fx, u, fu
                u = end + (u - end) / _WALK
                continue
            if fu < fx:  # the walk ends on a better read: [end, x] holds it
                v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
                a, b = (end, w) if end < w else (w, end)
            else:  # the read lost: [u, w] holds the minimizer
                v, fv, w, fw = w, fw, u, fu
                a, b = (u, v) if u < v else (v, u)
        elif stage == 4:
            if fu >= f_end:  # no better than the lower end: walk toward it
                x, fx, w, fw = u, fu, far, f_far
                stop = _WALK_STOP * tol
                stage, u = 5, end + (u - end) / _WALK
                continue
            a, b, x, fx = 0.0, h, u, fu
            w, fw, v, fv = x, fx, x, fx
        elif stage == 0:
            f_hi, stage, u = fu, 1, h - tol
            continue
        elif stage == 1:
            if fu >= f_hi < math.inf:
                return h, f_hi, reads
            stage, u = 2, 0.0
            continue
        elif stage == 2:
            f_lo, stage, u = fu, 3, tol
            continue
        else:
            if fu >= f_lo < math.inf:
                return 0.0, f_lo, reads
            if f_lo <= f_hi:
                end, f_end, far, f_far, u = 0.0, f_lo, h, f_hi, _GOLDEN * h
            else:
                end, f_end, far, f_far, u = h, f_hi, 0.0, f_lo, h - _GOLDEN * h
            stage = 4
            continue
        if stage != 6:  # Brent's first step, from the walk or the golden point
            d = e = 0.0
            stage = 6
        # Brent's next point; abs(z) <= m is written -m <= z <= m, and so on,
        # since each abs is a call
        mid = 0.5 * (a + b)
        half = tol2 - 0.5 * (b - a)
        if -half <= x - mid <= half:
            return x, fx, reads
        golden = True
        if e > tol or e < -tol:
            # the parabola through (v, fv), (w, fw) and (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
            # taken where it moves less than half the step before last and
            # lands inside (a, b)
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol if x < mid else -tol
                golden = False
        if golden:
            e = (a if x >= mid else b) - x
            d = _GOLDEN * e
        u = x + (d if d >= tol or d <= -tol else tol if d > 0.0 else -tol)


def grid_search(tri: CanonicalTriangle, n, config: Optional[OracleConfig] = None):
    """Deterministic search oracle for n >= 1; returns (point, value).

    The chord at height y has length w = (b + c) (a - y) / a, and at the
    fraction t of its length from its left end the slacks are
    s1 = w t a / p, s2 = w (1 - t) a / q and s3 = y. s1^n + s2^n is
    homogeneous of degree n in w, so F = w^n phi(t) + y^n with
    phi(t) = (t a / p)^n + ((1 - t) a / q)^n, the same on every chord:
    every chord has its least F at the fraction t* that minimizes phi,
    and the minimizer lies on the cevian from the apex through t*. Two
    line searches in turn therefore find it: one over t in [0, 1] reading
    phi, then one over y in [0, a] along that cevian, where
    F = (k (a - y))^n + y^n with k = phi(t*)^(1/n) (b + c) / a. Both are
    one search, ``_norm_min``, of the n-th root of a two-term sum
    (cu x)^n + (cv (h - x))^n on [0, h], which it compares in logs;
    phi and F on a line are convex (Boyd & Vandenberghe, Convex
    Optimization, 3.2), and the log and the root are increasing, so each
    search stays quasiconvex. On the oracle-compare pools of the
    benchmark's seeds 0-3 and 201-210 the two read F a mean 24.9 times a
    call, and at most 37. Both read values of F alone, never the closed
    form or a gradient, and no point leaves the triangle, so nothing is
    projected. The search is deterministic and holds no state between
    calls, so reruns and threads give the same bits. The name, from the
    lattice scan the search replaced, is kept for its callers; ``config``
    is accepted and not read.

    The search reads the triangle as the kernel ``kkt._powers`` does, in
    the frame of ``kkt._frame``: a, b, c scaled exactly by the power of two
    that puts the inradius in [0.5, 1), so a triangle scaled by a power of
    two gives the same point scaled, and a triangle the frame refuses
    raises its OverflowError. The point's x is taken from the nearer end
    of its chord, xl + t w for t <= 1/2 and xr - (1 - t) w above, so that
    an end check's t = 0 or 1 gives a side's point exactly, and at n = 1 a
    vertex. The point is scaled back exactly, and its value, from the
    kernel, is in the triangle's own units: 0 or inf where F leaves the
    doubles.
    """
    n = _check_exponent(n)
    x, y, k = _grid(_frame(tri.a, tri.b, tri.c), n)
    return Point(x, y), _value(k)


def _grid(frame, n):
    """``grid_search``'s two searches on the triangle of ``frame``
    (``kkt._frame``) for a checked n: (x, y, the kernel's read there),
    from which ``compare`` starts its descent where the point is strictly
    inside."""
    unit, a, b, c, p, q, _, _ = frame
    t, g, _ = _norm_min(a / p, a / q, 1.0, n)
    k = math.exp(g) * ((b + c) / a)  # phi(t)^(1/n) (b + c) / a
    y, _, _ = _norm_min(1.0, k, a, n)
    xl, xr = b * ((y - a) / a), c * ((a - y) / a)
    x = xl + t * (xr - xl) if t <= 0.5 else xr - (1.0 - t) * (xr - xl)
    x, y = x / unit, y / unit
    return x, y, _powers(frame, x, y, n)


def _check_descent_exponent(n) -> float:
    """``float(n)``, or InvalidExponent unless the descent
    (``projected_gradient``) takes it: a finite n > 1, since at n = 1 F is
    not strictly convex, and below about 3.2e18."""
    n = float(n)
    if not 1.0 < n < math.inf:
        raise InvalidExponent(f"exponent must be a finite real > 1, got {n!r}")
    if (1.0 - _EPS) ** (n - 1.0) < _TINY:
        raise InvalidExponent(
            f"exponent {n!r} is beyond the descent oracle, which needs "
            "(1 - eps)^(n-1) to be a normal double (n below about 3.2e18)"
        )
    return n


def _descent_start(frame, x, y, n):
    """The kernel's read at the descent's start (x, y), or PointNotInterior
    unless it is strictly inside the triangle of ``frame``."""
    k = _powers(frame, x, y, n)
    if k[6] is None:  # w, None off the open triangle
        raise PointNotInterior(f"start {(x, y)} is not strictly inside the triangle")
    return k


def _scaled_crosses(normals):
    """The normals' crosses (``kkt._crosses``) scaled by the power of two
    that puts the largest in [0.5, 1), so that a sliver's Newton
    determinant stays normal, and that power's exponent."""
    c12, c13, c23 = _crosses(normals)
    # max of the three magnitudes inlined; the frame's normals are finite
    big = abs(c12)
    big = abs(c13) if abs(c13) > big else big
    big = abs(c23) if abs(c23) > big else big
    shift = -math.frexp(big)[1]
    ldexp = math.ldexp
    return (ldexp(c12, shift), ldexp(c13, shift), ldexp(c23, shift)), shift


def _log_factor(lr, g, m, lfloor):
    """For a slack ratio r = e^lr that Newton's step moves by g r / m, the
    log of (1 + g)^(1/m): the factor that gives the ratio's power r^m the
    value r^m (1 + g) that Newton's linear model asks of it, or -inf where
    that power is not positive. Clamped so that the ratio stays in
    [min(r, e^lfloor), 1]: no slack grows past the largest in one step,
    and none is aimed below its floor."""
    f = math.log1p(g) / m if g > -1.0 else -math.inf
    low = lfloor - lr if lr > lfloor else 0.0
    return -lr if f > -lr else low if f < low else f


def _newton(frame, x, y, k, crosses):
    """Damped Newton descent on F from (x, y), strictly inside, where the
    kernel ``kkt._powers`` read ``k``; ``crosses`` is ``_scaled_crosses``
    of the frame's normals. Returns (x, y, the kernel's read there,
    iterations).

    F is convex, so no iterate needs projecting, and Newton's method is
    affine-invariant (Boyd & Vandenberghe, Convex Optimization, 9.5), so
    the long valleys of thin triangles cost it nothing. In units of
    top = max s the gradient and Hessian of F / (n top^n) are
    g = sum e_i u_i and H = sum w_i u_i u_i^T, and F = top^n * ft, so
    nothing leaves the doubles. The 2x2 system is solved from the crosses
    c_ij = u_i x u_j: with det = sum_{i<j} w_i w_j c_ij^2 and
    t_i = rot(u_i) . g, the step is -sum w_i t_i rot(u_i) / det and
    lambda^2 / F = n sum w_i t_i^2 / (det ft), sums of one sign where
    hxx * hyy - hxy^2 cancels to a zero step on the near-rank-1 Hessians
    of large n.

    Near n = 1 the minimizer sits by a vertex, orders of magnitude closer
    to two sides than the triangle is wide, and Newton's linear model is
    far off there: it asks the two smaller slacks s_i and s_j to fall far
    past their sides or, below their minimizer, to climb back a few times
    over a step. Its step still sets each gradient power e_h + w_h ds_h,
    that is e_h (1 + (n-1) ds_h / r_h), to one multiple of the side
    lengths, as at the minimizer. So where it asks s_i or s_j to fall below
    a tenth of itself, or one below a tenth of the top to grow past ten
    times itself, s_i and s_j move along the curve r_h f_h^step
    (``_log_factor``), whose end gives each the power Newton asks, however
    many decades away: in the separable model of a vertex, s^n - c s per
    slack, that end is the minimizer. No slack is aimed below its floor,
    the point's rounding along its side's normal (``kkt._rounding`` at
    eps), where the computed slack is noise; one asked a power of 0 or
    less is aimed at its floor. The curve is taken where it descends at
    step 0; otherwise Newton's step is cut to 0.99 of the way to the
    nearest side. Either is halved until Armijo's condition (1e-4, on the
    slope at step 0) holds.

    Newton's decrement bounds the gap only where F is near
    self-concordant (Boyd & Vandenberghe 9.6.3): near n = 1 a slack far
    below its minimizer has a tiny decrement and a gap of up to (n-1)
    times its minimizer's ratio. So the run stops on lambda^2 / F <= 2e-13,
    after one more full step, along the curve or Newton's, if that lowers
    F, unless a slack climbs as above; and it stops once a step lowers F by
    at most 1e-13 * F."""
    ldexp, log, exp = math.ldexp, math.log, math.exp
    n = k[0]
    m = n - 1.0
    u = (u1x, u1y), (u2x, u2y), (u3x, u3y) = k[7]
    floors = None  # formed where the curve is first tried
    crosses, cross_shift = crosses
    c12, c13, c23 = crosses
    it = 0
    while True:
        _, _, top, r, ft, (e1, e2, e3), w, _ = k
        w1, w2, w3 = w
        det = _det(w, crosses)
        if not _TINY <= det < math.inf:
            raise FloatingPointError(
                f"Newton determinant {det!r} is not a normal double"
            )
        t1, t2, t3 = e2 * c12 + e3 * c13, e3 * c23 - e1 * c12, -e1 * c13 - e2 * c23
        lam2 = n * (w1 * t1 * t1 + w2 * t2 * t2 + w3 * t3 * t3) / (det * ft)
        dx = ldexp((w1 * t1 * u1y + w2 * t2 * u2y + w3 * t3 * u3y) / det, cross_shift)
        dy = -ldexp((w1 * t1 * u1x + w2 * t2 * u2x + w3 * t3 * u3x) / det, cross_shift)
        ds = u1x * dx + u1y * dy, u2x * dx + u2y * dy, u3x * dx + u3y * dy
        slope = -lam2
        i, j = ((1, 2), (0, 2), (0, 1))[r.index(1.0)]
        ri, rj, di, dj = r[i], r[j], ds[i], ds[j]
        curve = False
        # a slack below a tenth of the top asked to grow past ten times itself
        climb = (di > 9.0 * ri and ri < 0.1) or (dj > 9.0 * rj and rj < 0.1)
        if di < -0.9 * ri or dj < -0.9 * rj or climb:
            # the curve's tangent at step 0 moves s_h by r_h log f_h; b_h is
            # r_h as the curve reads it, so that step 0 moves nothing
            (uix, uiy), (ujx, ujy) = u[i], u[j]
            cij = uix * ujy - uiy * ujx
            li, lj = log(ri), log(rj)
            if floors is None:  # the log of each slack's floor
                d1, d2, d3 = _rounding(frame, _EPS)
                floors = log(d1), log(d2), log(d3)
            lt = log(top)
            fi = _log_factor(li, m * di / ri, m, floors[i] - lt)
            fj = _log_factor(lj, m * dj / rj, m, floors[j] - lt)
            bi, bj = exp(li), exp(lj)
            ti, tj = bi * fi, bj * fj
            vx, vy = (ti * ujy - tj * uiy) / cij, (tj * uix - ti * ujx) / cij
            vs1, vs2, vs3 = u1x * vx + u1y * vy, u2x * vx + u2y * vy, u3x * vx + u3y * vy
            vslope = n * (e1 * vs1 + e2 * vs2 + e3 * vs3) / ft
            if vslope < 0.0:
                curve, slope = True, vslope
        # the last step: one more full step, taken if it lowers F
        last = lam2 <= 2e-13 and not climb
        if not last:
            if it == _MAX_STEPS:
                raise DidNotConverge(
                    f"Newton descent hit {_MAX_STEPS} iterations with "
                    f"lambda^2 / F = {lam2:.3e} > 2e-13"
                )
            if not abs(dx) + abs(dy) < math.inf:  # halving could never end
                raise FloatingPointError(f"Newton step ({dx!r}, {dy!r}) is not finite")
        step = 1.0
        if not (curve or last):
            for rh, dsh in zip(r, ds):
                # min(step, cut) inlined, and as there a NaN cut is passed over
                if dsh < 0.0 and (cut := -0.99 * rh / dsh) < step:
                    step = cut
        while True:
            if curve:
                # no ratio on the curve is above 1, so nothing overflows
                gi, gj = exp(li + step * fi) - bi, exp(lj + step * fj) - bj
                nx = x + top * ((gi * ujy - gj * uiy) / cij)
                ny = y + top * ((gj * uix - gi * ujx) / cij)
            else:
                nx, ny = x + step * top * dx, y + step * top * dy
            nk = _powers(frame, nx, ny, n)
            ratio = _over(nk, k) if nk[6] is not None else math.inf
            # a step too short to move the point ends the run below
            if last or ratio <= 1.0 + 1e-4 * step * slope or (nx == x and ny == y):
                break
            step *= 0.5
        if last:
            if ratio < 1.0:
                x, y, k = nx, ny, nk
                it += 1
            break
        x, y, k = nx, ny, nk
        it += 1
        if 1.0 - ratio <= 1e-13:
            break
    return x, y, k, it


def projected_gradient(
    tri: CanonicalTriangle, n, start=None, config: Optional[OracleConfig] = None
) -> PgResult:
    """Descent oracle: damped Newton descent on F (``_newton``) from
    ``start``, n > 1. No iterate leaves the open triangle, so nothing is
    projected; the name is kept for its callers.

    The default start is the incenter, the minimizer's limit as n grows,
    where all three ratios d_i / max d are 1: from there needles at large
    n take tens of steps, not the hundreds they took from the centroid,
    and near n = 1 the power-model curve of ``_newton`` reaches the
    vertex in three or four. The frame (``kkt._frame``) holds it, from
    ``geometry._incenter``, so the oracle shares no code with the closed
    form. ``compare`` runs the same loop from the better of the grid's
    answer and the incenter. ``config`` is accepted and not read.

    Raises InvalidExponent at n = 1, where F is linear, and from about
    n = 3.2e18, where (1 - eps)^(n-1) falls below the least normal double:
    from there the Newton weight of a slack one rounding below the largest
    is not a normal double. Raises
    PointNotInterior for a start not strictly inside, FloatingPointError
    when the Newton system's determinant is not a normal double, and
    DidNotConverge when ``_MAX_STEPS`` (1000) steps end before the
    stopping rule holds. A triangle that ``kkt._frame`` refuses raises its
    OverflowError, after any of the exponent.
    """
    n = _check_descent_exponent(n)
    frame = _frame(tri.a, tri.b, tri.c)
    x, y = frame[7] if start is None else (float(start[0]), float(start[1]))
    k = _descent_start(frame, x, y, n)
    x, y, k, iters = _newton(frame, x, y, k, _scaled_crosses(frame[6]))
    return PgResult(Point(x, y), _value(k), iters)


def compare(
    tri: CanonicalTriangle,
    n,
    config: Optional[OracleConfig] = None,
    point_tol: float = 1e-6,
    value_tol: float = 1e-9,
) -> DiscrepancyReport:
    """The closed form against the oracles at any n >= 1; gaps measured
    against the better oracle, the one of lower log F at its point (the
    grid on ties). ``config`` is accepted and not read. At n = 1 the
    oracle is the grid alone (the descent needs n > 1), and only the value
    is judged: tied altitudes make a whole side minimize.

    For n > 1 the descent starts from the better of two points, read through
    the kernel: the grid's answer, and the incenter, which the frame holds.
    Strictly inside, the grid's point starts from the grid's own kernel
    read; an end check's side or vertex, where no descent can start, is
    moved _LINE_TOL of the way toward the incenter and read there. The
    grid's point is taken where F is lower there and its Newton determinant
    is a normal double: near n = 1 it is a step or two from the minimizer
    where the incenter is three or four, at large n it can be far worse than
    the incenter, and on needles at large n its small slack ratio underflows
    the Newton weight. Otherwise, and wherever the incenter start raises,
    the descent runs as ``projected_gradient`` does. Neither oracle reads
    the closed form, and the descent stops by its own rule. The kernel's
    frame (``kkt._frame``) and the crosses of its normals
    (``_scaled_crosses``) are formed once, and they serve the grid, the
    start rule and the descent. The exponent is checked first, then the
    frame formed, then the closed form read, each refusing before the next.
    """
    n = _check_exponent(n)
    if n > 1.0:
        _check_descent_exponent(n)
    frame = _frame(tri.a, tri.b, tri.c)
    grid_x, grid_y, grid = _grid(frame, n)
    _, x, y, h, tot = _trilinear(tri, n)
    oracle = (grid_x, grid_y), _value(grid), _log_value(grid)
    if n == 1.0:  # no descent, and the point is not judged
        point_tol = math.inf
    else:
        sx, sy = frame[7]
        start = _descent_start(frame, sx, sy, n)
        if grid[6] is not None:  # strictly inside: the grid's own read
            gx, gy, k = grid_x, grid_y, grid
        else:  # on a side: moved toward the incenter (sx, sy)
            gx = grid_x + _LINE_TOL * (sx - grid_x)
            gy = grid_y + _LINE_TOL * (sy - grid_y)
            k = _powers(frame, gx, gy, n)
        crosses = _scaled_crosses(frame[6])
        if (
            k[6] is not None
            and _log_value(k) < _log_value(start)
            and _TINY <= _det(k[6], crosses[0]) < math.inf
        ):
            sx, sy, start = gx, gy, k
        pg_x, pg_y, pg, _ = _newton(frame, sx, sy, start, crosses)
        pg_log = _log_value(pg)
        if pg_log < oracle[2]:
            oracle = (pg_x, pg_y), _value(pg), pg_log
    return _discrepancy(
        (x, y), _pow_or_inf(h, n) * tot, n * math.log(h) + math.log(tot), *oracle,
        point_tol, value_tol,
    )


def _discrepancy(
    point, value, log_value, oracle_point, oracle_value, oracle_log,
    point_tol: float, value_tol: float,
) -> DiscrepancyReport:
    """Gaps between a formula's (point, value, log value) and an oracle's,
    and whether both are within tolerance: point_gap is absolute, and the
    value gap is relative to the larger value, 1 - exp(-|log difference|),
    so that it reads the same where the values are 0 or inf."""
    point_gap = math.hypot(point[0] - oracle_point[0], point[1] - oracle_point[1])
    value_gap_rel = -math.expm1(-abs(oracle_log - log_value))
    return DiscrepancyReport(
        point_gap=point_gap,
        value_gap_rel=value_gap_rel,
        oracle_value=oracle_value,
        closed_form_value=value,
        passed=point_gap <= point_tol and value_gap_rel <= value_tol,
    )
