"""Brute-force minimizers used to certify the closed form.

Two independent numeric routes that never touch the closed-form formulas:
a nested line search over chords of the triangle (``grid_search``) and a
damped Newton descent. ``compare`` runs both against the closed form and
reports the gaps. Both run on the standard library alone.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .closed_form import _pow_or_inf, _trilinear
from .errors import DidNotConverge, InvalidExponent, PointNotInterior, _check_exponent
from .geometry import CanonicalTriangle, Point, _side_lengths
from .kkt import _crosses, _frame, _log_value, _over, _powers, _value


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


class PgResult(NamedTuple):
    point: Point
    value: float
    iterations: int


@dataclass(frozen=True)
class DiscrepancyReport:
    point_gap: float
    value_gap_rel: float
    oracle_value: float
    closed_form_value: float
    passed: bool


def _line_min(f, lo, hi):
    """The least of a convex f on [lo, hi] by Brent's bounded search
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5),
    parabolic steps safeguarded by golden sections, to within _LINE_TOL of
    the interval; returns (x, f(x)).

    The ends are checked first, hi then lo: where f(hi - tol) >= f(hi),
    convexity puts the minimizer within tol of hi, and hi itself is
    returned; the same holds at lo. An end where f is inf never passes,
    and an exact tie, as along an isosceles triangle's base at n = 1,
    goes to hi. Near n = 1, where F along a line is almost a kink at a
    side, this ends the search within four evaluations, and at n = 1,
    where F is affine, it returns the end exactly.
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

    F is convex, so its least value on the horizontal chord at height y
    is a convex function of y (partial minimization; Boyd & Vandenberghe,
    Convex Optimization, 3.2.5). Two nested line searches (``_line_min``)
    therefore find the minimizer: the outer one over y in [0, a], the
    inner one over x along each chord. Both read F alone, never the
    closed form or a gradient, and no point leaves the triangle, so
    nothing is projected. The search is deterministic and holds no state
    between calls, so reruns and threads give the same bits. The name,
    from the lattice scan the search replaced, is kept for its callers;
    ``config`` is accepted and not read.

    The search runs on a, b, c scaled by the power of two that puts the
    inradius in [0.5, 1), exactly, so a triangle scaled by a power of two
    gives the same point scaled. On each chord the slacks are measured in
    the unit m = max(y, a (xr - xl) / (p + q)), the least max_i s_i
    anywhere on the chord, so F / m^n lies in [1, 3] at the chord's
    minimizer and can overflow, to inf, only far from it; the outer search
    compares n log m + log(F / m^n), which stays finite for every n. The
    best point is scaled back exactly, and its value, from the kernel
    ``kkt._powers``, is in the triangle's own units: 0 or inf where F
    leaves the doubles.
    """
    x, y, k = _grid(tri, n)
    return Point(x, y), _value(k)


def _grid(tri, n):
    """``grid_search``'s search: (x, y, the kernel's read there)."""
    n = _check_exponent(n, allow_one=True)
    ldexp, log = math.ldexp, math.log
    p, q, base = _side_lengths(tri.a, tri.b, tri.c)
    shift = -math.frexp(tri.a * (base / (p + q + base)))[1]  # the inradius
    a, b, c = ldexp(tri.a, shift), ldexp(tri.b, shift), ldexp(tri.c, shift)
    p, q, _ = _side_lengths(a, b, c)
    pq = p + q
    best_x = {}  # each chord's minimizer, by its height

    def chord(y):
        # s1 = a (x - xl) / p and s2 = a (xr - x) / q along the chord, each
        # exact 0 at its end
        xl, xr = b * ((y - a) / a), c * ((a - y) / a)
        m = a * ((xr - xl) / pq)
        m = y if y > m else m
        k1, k2, k3 = a / p / m, a / q / m, (y / m) ** n

        def f(x):
            try:
                return (k1 * (x - xl)) ** n + (k2 * (xr - x)) ** n + k3
            except OverflowError:
                return math.inf

        x, g = _line_min(f, xl, xr)
        best_x[y] = x
        return n * log(m) + log(g)

    y, _ = _line_min(chord, 0.0, a)
    x, y = ldexp(best_x[y], -shift), ldexp(y, -shift)
    return x, y, _powers(_frame(tri.a, tri.b, tri.c), x, y, n)


def _incenter(a, b, c):
    """The incenter, from vertex weights proportional to the opposite
    sides' lengths, each divided by their sum before it multiplies a
    coordinate: c * p itself overflows from side lengths of about 1e154."""
    p, q, base = _side_lengths(a, b, c)
    per = p + q + base
    return c * (p / per) - b * (q / per), a * (base / per)


def _descent(tri, n, start, config):
    """Damped Newton descent on F from ``start`` for ``projected_gradient``.

    F is convex, so no iterate needs projecting, and Newton's method is
    affine-invariant (Boyd & Vandenberghe, Convex Optimization, 9.5), so
    the long valleys of thin triangles cost it nothing. Every point is
    read through the kernel ``kkt._powers``: in units of top = max s the
    gradient and Hessian of F / (n top^n) are g = sum e_i u_i and
    H = sum w_i u_i u_i^T, and F = top^n * ft, so nothing leaves the
    doubles. The 2x2 system is solved from the crosses c_ij = u_i x u_j:
    with det = sum_{i<j} w_i w_j c_ij^2 and t_i = rot(u_i) . g, the step is
    -sum w_i t_i rot(u_i) / det and lambda^2 / F = n sum w_i t_i^2 /
    (det ft), sums of one sign where hxx * hyy - hxy^2 cancels to a zero
    step on the near-rank-1 Hessians of large n.

    Near n = 1 the minimizer sits by a vertex, orders of magnitude closer
    to two sides than the triangle is wide, and Newton overshoots them: no
    step may shrink either of the two smallest slacks below a tenth of
    itself, if the step so limited still descends. The step is cut to 0.99
    of the way to the nearest side and halved until Armijo's condition
    (1e-4) holds. Stops once lambda^2 / F <= 2e-13, after one more full
    step if that lowers F, or once a step lowers F by at most 1e-13 * F;
    returns (x, y, the kernel's read there, iterations)."""
    n = _check_exponent(n)
    if (1.0 - _EPS) ** (n - 1.0) < _TINY:
        raise InvalidExponent(
            f"exponent {n!r} is beyond the descent oracle, which needs "
            "(1 - eps)^(n-1) to be a normal double (n below about 3.2e18)"
        )
    max_iters = (config if config is not None else OracleConfig()).pg_max_iters
    if start is None:
        start = _incenter(tri.a, tri.b, tri.c)
    x, y = float(start[0]), float(start[1])
    ldexp = math.ldexp
    frame = _frame(tri.a, tri.b, tri.c)
    k = _powers(frame, x, y, n)
    if k[6] is None:  # w, None off the open triangle
        raise PointNotInterior(f"start {(x, y)} is not strictly inside the triangle")
    u = (u1x, u1y), (u2x, u2y), (u3x, u3y) = k[7]
    # the crosses scaled by the power of two that puts the largest in
    # [0.5, 1), so that a sliver's determinant stays normal
    crosses = _crosses(u)
    cross_shift = -math.frexp(max(map(abs, crosses)))[1]
    c12, c13, c23 = (ldexp(cij, cross_shift) for cij in crosses)
    it = 0
    while True:
        _, _, top, r, ft, (e1, e2, e3), (w1, w2, w3), _ = k
        det = w1 * w2 * c12 * c12 + w1 * w3 * c13 * c13 + w2 * w3 * c23 * c23
        if not _TINY <= det < math.inf:
            raise FloatingPointError(
                f"Newton determinant {det!r} is not a normal double"
            )
        t1, t2, t3 = e2 * c12 + e3 * c13, e3 * c23 - e1 * c12, -e1 * c13 - e2 * c23
        lam2 = n * (w1 * t1 * t1 + w2 * t2 * t2 + w3 * t3 * t3) / (det * ft)
        dx = ldexp((w1 * t1 * u1y + w2 * t2 * u2y + w3 * t3 * u3y) / det, cross_shift)
        dy = -ldexp((w1 * t1 * u1x + w2 * t2 * u2x + w3 * t3 * u3x) / det, cross_shift)
        if lam2 <= 2e-13:
            nx, ny = x + top * dx, y + top * dy
            nk = _powers(frame, nx, ny, n)
            if nk[6] is not None and _over(nk, k) < 1.0:
                x, y, k = nx, ny, nk
                it += 1
            break
        if it == max_iters:
            raise DidNotConverge(
                f"Newton descent hit {max_iters} iterations with "
                f"lambda^2 / F = {lam2:.3e} > 2e-13"
            )
        ds = [ux * dx + uy * dy for ux, uy in u]
        slope = -lam2
        i, j = ((1, 2), (0, 2), (0, 1))[r.index(1.0)]
        di, dj, floor_i, floor_j = ds[i], ds[j], -0.9 * r[i], -0.9 * r[j]
        if di < floor_i or dj < floor_j:
            # the step that moves s_i and s_j as Newton's does, but shrinks
            # neither below a tenth of itself (max inlined: a NaN di is kept)
            (uix, uiy), (ujx, ujy) = u[i], u[j]
            di, dj = floor_i if floor_i > di else di, floor_j if floor_j > dj else dj
            cij = uix * ujy - uiy * ujx
            vx, vy = (di * ujy - dj * uiy) / cij, (dj * uix - di * ujx) / cij
            vs = [ux * vx + uy * vy for ux, uy in u]
            vslope = n * (e1 * vs[0] + e2 * vs[1] + e3 * vs[2]) / ft
            if vslope < 0.0:
                dx, dy, ds, slope = vx, vy, vs, vslope
        if not abs(dx) + abs(dy) < math.inf:  # halving could never end
            raise FloatingPointError(f"Newton step ({dx!r}, {dy!r}) is not finite")
        step = 1.0
        for ri, dsi in zip(r, ds):
            # min(step, cut) inlined, and as there a NaN cut is passed over
            if dsi < 0.0 and (cut := -0.99 * ri / dsi) < step:
                step = cut
        while True:
            nx, ny = x + step * top * dx, y + step * top * dy
            nk = _powers(frame, nx, ny, n)
            ratio = _over(nk, k) if nk[6] is not None else math.inf
            # a step too short to move the point ends the run below
            if ratio <= 1.0 + 1e-4 * step * slope or (nx == x and ny == y):
                break
            step *= 0.5
        x, y, k = nx, ny, nk
        it += 1
        if 1.0 - ratio <= 1e-13:
            break
    return x, y, k, it


def projected_gradient(
    tri: CanonicalTriangle, n, start=None, config: Optional[OracleConfig] = None
) -> PgResult:
    """Descent oracle: damped Newton descent on F (``_descent``) from
    ``start``, n > 1. No iterate leaves the open triangle, so nothing is
    projected; the name is kept for its callers.

    The default start is the incenter, the minimizer's limit as n grows,
    where all three ratios d_i / max d are 1: from there needles at large
    n take tens of steps, not the hundreds they took from the centroid.
    ``_incenter`` computes it, so the oracle shares no code with the
    closed form.

    Raises InvalidExponent from about n = 3.2e18, where (1 - eps)^(n-1)
    falls below the least normal double: from there the Newton weight of
    a slack one rounding below the largest is not a normal double. Raises
    PointNotInterior for a start not strictly inside, FloatingPointError
    when the Newton system's determinant is not a normal double, and
    DidNotConverge when ``pg_max_iters`` steps end before the stopping
    rule holds.
    """
    x, y, k, iters = _descent(tri, n, start, config)
    return PgResult(Point(x, y), _value(k), iters)


def compare(
    tri: CanonicalTriangle,
    n,
    config: Optional[OracleConfig] = None,
    point_tol: float = 1e-6,
    value_tol: float = 1e-9,
) -> DiscrepancyReport:
    """Closed form vs both oracles; gaps measured against the better
    oracle, the one of lower log F at its point (the grid on ties)."""
    n, x, y, h, tot = _trilinear(tri, n)
    grid_x, grid_y, grid = _grid(tri, n)
    pg_x, pg_y, pg, _ = _descent(tri, n, None, config)
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
