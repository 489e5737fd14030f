"""Brute-force minimizers used to certify the closed form.

Two independent numeric routes that never touch the closed-form formulas:
line searches on F (``grid_search``) and a damped Newton descent. On
each horizontal chord the slacks to the two upper sides are both
proportional to the chord's length, so s1^n + s2^n is homogeneous of
degree n in it and every chord has its least F at the same fraction of
its length: the minimizer lies on the cevian from the apex through that
fraction, and ``grid_search`` finds the fraction once and then the height
along the cevian. ``compare`` runs both against the closed form and
reports the gaps; it starts the descent from the better of the grid's
answer and the incenter, so the descent reuses the grid's work, and
neither oracle reads the closed form. Both run on the standard library
alone.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .closed_form import _pow_or_inf, _trilinear
from .errors import DidNotConverge, InvalidExponent, PointNotInterior, _check_exponent
from .geometry import CanonicalTriangle, Point, _incenter
from .kkt import _crosses, _det, _frame, _log_value, _over, _powers, _value


_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon
_LINE_TOL = 1e-7  # a line search ends within this share of its interval
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # the golden section's smaller part


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the oracles; each must be an integer.

    ``pg_max_iters`` caps the descent's Newton steps. ``grid_resolution``
    and ``zoom_iterations`` were the lattice scan's steps per pass and its
    passes after the first; they are still validated, but ``grid_search``
    no longer reads them, and they go once the benchmark stops reporting
    its lattice points from them.
    """

    grid_resolution: int = 42
    zoom_iterations: int = 11
    # the descent stops within tens of steps; the cap only bounds a run
    # that cannot meet its stopping rule
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


_DEFAULT_CONFIG = OracleConfig()  # frozen, so built and validated once


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


def _line_min(f, lo, hi):
    """The least of a quasiconvex f on [lo, hi], such as a convex function
    or its log, by Brent's bounded search (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5), parabolic steps
    safeguarded by golden sections, to within _LINE_TOL of the interval;
    returns (x, f(x)).

    The ends are checked first, hi then lo: where f(hi - tol) >= f(hi),
    quasiconvexity puts the minimizer within tol of hi, and hi itself is
    returned; the same holds at lo. An end where f is inf never passes,
    and an exact tie, as along an isosceles triangle's base at n = 1,
    goes to hi. Near n = 1, where F along a line is almost a kink at a
    side, this ends the search within four evaluations, and at n = 1,
    where F is affine and so monotone along a line, it returns the end
    exactly.
    """
    tol = _LINE_TOL * (hi - lo)
    f_hi = f(hi)
    if f(hi - tol) >= f_hi < math.inf:
        return hi, f_hi
    f_lo = f(lo)
    if f(lo + tol) >= f_lo < math.inf:
        return lo, f_lo
    tol2 = 2.0 * tol
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol:
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
        u = x + (d if abs(d) >= tol else tol if d > 0.0 else -tol)
        fu = f(u)
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


def grid_search(tri: CanonicalTriangle, n, config: Optional[OracleConfig] = None):
    """Deterministic search oracle for n >= 1; returns (point, value).

    The chord at height y has length w = (b + c) (a - y) / a, and at the
    fraction t of its length from its left end the slacks are
    s1 = w t a / p, s2 = w (1 - t) a / q and s3 = y. s1^n + s2^n is
    homogeneous of degree n in w, so F = w^n phi(t) + y^n with
    phi(t) = (t a / p)^n + ((1 - t) a / q)^n, the same on every chord:
    every chord has its least F at the fraction t* that minimizes phi,
    and the minimizer lies on the cevian from the apex through t*. Two
    line searches (``_line_min``) in turn therefore find it: one over t in
    [0, 1] reading phi, then one over y in [0, a] along that cevian,
    where F = (k (a - y))^n + y^n with k = phi(t*)^(1/n) (b + c) / a.
    phi and F on a line are convex (Boyd & Vandenberghe, Convex
    Optimization, 3.2), and each search compares the log of their n-th
    root, log top + log(1 + (low / top)^n) / n with top the larger of
    the two terms, which stays finite at any n; the log and the root are
    increasing, so each search stays quasiconvex. Both read values of F
    alone, never the closed form or a gradient, and no point leaves the
    triangle, so nothing is projected. The search is deterministic and
    holds no state between calls, so reruns and threads give the same
    bits. The name, from the lattice scan the search replaced, is kept
    for its callers; ``config`` is accepted and not read.

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
    n = _check_exponent(n, allow_one=True)
    x, y, k = _grid(_frame(tri.a, tri.b, tri.c), n)
    return Point(x, y), _value(k)


def _grid(frame, n):
    """``grid_search``'s search on the triangle of ``frame``
    (``kkt._frame``) for a checked n: (x, y, the kernel's read there)."""
    unit, a, b, c, p, q, _ = frame
    ap, aq = a / p, a / q
    t, g = _line_min(_log_norm(ap, aq, 1.0, n), 0.0, 1.0)
    k = math.exp(g) * ((b + c) / a)  # phi(t)^(1/n) (b + c) / a
    y, _ = _line_min(_log_norm(1.0, k, a, n), 0.0, a)
    xl, xr = b * ((y - a) / a), c * ((a - y) / a)
    x = xl + t * (xr - xl) if t <= 0.5 else xr - (1.0 - t) * (xr - xl)
    x, y = x / unit, y / unit
    return x, y, _powers(frame, x, y, n)


def _log_norm(cu, cv, h, n):
    """The function x -> log (u^n + v^n)^(1/n) with u = cu x and
    v = cv (h - x), for u, v >= 0, not both 0, as log top +
    log(1 + (low / top)^n) / n: finite at any n, where n log top is not
    from about n = 1e306. Each read is one call, which ``_line_min`` makes
    about 14 times a search."""
    log, log1p = math.log, math.log1p

    def f(x):
        u, v = cu * x, cv * (h - x)
        if u < v:
            u, v = v, u
        return log(u) + log1p((v / u) ** n) / n

    return f


def _descent_limits(n, config):
    """The descent's checked n, or InvalidExponent as ``projected_gradient``
    says, and its step cap."""
    n = _check_exponent(n)
    if (1.0 - _EPS) ** (n - 1.0) < _TINY:
        raise InvalidExponent(
            f"exponent {n!r} is beyond the descent oracle, which needs "
            "(1 - eps)^(n-1) to be a normal double (n below about 3.2e18)"
        )
    return n, (config if config is not None else _DEFAULT_CONFIG).pg_max_iters


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


def _newton(frame, x, y, k, max_iters, crosses):
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
    the point's rounding along its side's normal, where the computed slack
    is noise; one asked a power of 0 or less is aimed at its floor. The
    curve is taken where it descends at step 0; otherwise Newton's step is
    cut to 0.99 of the way to the nearest side. Either is halved until
    Armijo's condition (1e-4, on the slope at step 0) holds.

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
        ds = [ux * dx + uy * dy for ux, uy in u]
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
            if floors is None:
                # the log of each slack's floor: the point's rounding along
                # the side's normal, eps (|u_x| (b + c) + |u_y| a), in the
                # triangle's units
                unit, a, b, c = frame[:4]
                floors = [
                    log(_EPS * (abs(ux) * (b + c) + abs(uy) * a) / unit) for ux, uy in u
                ]
            lt = log(top)
            fi = _log_factor(li, m * di / ri, m, floors[i] - lt)
            fj = _log_factor(lj, m * dj / rj, m, floors[j] - lt)
            bi, bj = exp(li), exp(lj)
            ti, tj = bi * fi, bj * fj
            vx, vy = (ti * ujy - tj * uiy) / cij, (tj * uix - ti * ujx) / cij
            vs = [ux * vx + uy * vy for ux, uy in u]
            vslope = n * (e1 * vs[0] + e2 * vs[1] + e3 * vs[2]) / ft
            if vslope < 0.0:
                curve, slope = True, vslope
        # the last step: one more full step, taken if it lowers F
        last = lam2 <= 2e-13 and not climb
        if not last:
            if it == max_iters:
                raise DidNotConverge(
                    f"Newton descent hit {max_iters} iterations with "
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
    vertex in three or four. ``_incenter`` computes it, so the oracle
    shares no code with the closed form. ``compare`` runs the same loop
    from the better of the grid's answer and the incenter.

    Raises InvalidExponent from about n = 3.2e18, where (1 - eps)^(n-1)
    falls below the least normal double: from there the Newton weight of
    a slack one rounding below the largest is not a normal double. Raises
    PointNotInterior for a start not strictly inside, FloatingPointError
    when the Newton system's determinant is not a normal double, and
    DidNotConverge when ``pg_max_iters`` steps end before the stopping
    rule holds. A triangle that ``kkt._frame`` refuses raises its
    OverflowError, after any of the exponent.
    """
    n, max_iters = _descent_limits(n, config)
    if start is None:
        start = _incenter(tri.a, tri.b, tri.c)
    x, y = float(start[0]), float(start[1])
    frame = _frame(tri.a, tri.b, tri.c)
    k = _descent_start(frame, x, y, n)
    x, y, k, iters = _newton(frame, x, y, k, max_iters, _scaled_crosses(frame[6]))
    return PgResult(Point(x, y), _value(k), iters)


def compare(
    tri: CanonicalTriangle,
    n,
    config: Optional[OracleConfig] = None,
    point_tol: float = 1e-6,
    value_tol: float = 1e-9,
) -> DiscrepancyReport:
    """Closed form vs both oracles; gaps measured against the better
    oracle, the one of lower log F at its point (the grid on ties).

    The descent starts from the better of two points, read through the
    kernel: the grid's answer moved _LINE_TOL of the way toward the
    incenter (an end check's side or vertex, where no descent can start,
    so moves strictly inside), and the incenter. The grid's point is taken
    where F is lower there and its Newton determinant is a normal double:
    near n = 1 it is a step or two from the minimizer where the incenter
    is three or four, at large n it can be far worse than the incenter,
    and on needles at large n its small slack ratio underflows the Newton
    weight. Otherwise, and wherever the incenter start raises, the descent
    runs as ``projected_gradient`` does. Neither oracle reads the closed
    form, and the descent stops by its own rule. The kernel's frame
    (``kkt._frame``) and the crosses of its normals (``_scaled_crosses``)
    are formed once and serve the grid, the start rule and the descent; an
    exponent either oracle refuses is reported before a triangle the frame
    refuses.
    """
    n, x, y, h, tot = _trilinear(tri, n)
    # an exponent the descent refuses is reported before the frame
    _, max_iters = _descent_limits(n, config)
    frame = _frame(tri.a, tri.b, tri.c)
    grid_x, grid_y, grid = _grid(frame, n)
    sx, sy = _incenter(tri.a, tri.b, tri.c)
    start = _descent_start(frame, sx, sy, n)
    # the grid's point moved toward the incenter (sx, sy), if the better start
    gx, gy = grid_x + _LINE_TOL * (sx - grid_x), grid_y + _LINE_TOL * (sy - grid_y)
    k = _powers(frame, gx, gy, n)
    crosses = _scaled_crosses(frame[6])
    if (
        k[6] is not None
        and _log_value(k) < _log_value(start)
        and _TINY <= _det(k[6], crosses[0]) < math.inf
    ):
        sx, sy, start = gx, gy, k
    pg_x, pg_y, pg, _ = _newton(frame, sx, sy, start, max_iters, crosses)
    grid_log, pg_log = _log_value(grid), _log_value(pg)
    if grid_log <= pg_log:
        oracle = (grid_x, grid_y), _value(grid), grid_log
    else:
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
