"""Brute-force minimizers used to certify the closed form.

Two independent numeric routes that never touch the closed-form formulas:
a zooming barycentric grid scan and a damped Newton descent. ``compare``
runs both against the closed form and reports the gaps.

Only the lattice scan uses numpy, imported inside the functions that need
it, so ``import tripowmin`` and the descent run without it. The scan
evaluates each lattice pass as whole-block array operations: one matrix
product for the side slacks, one power and two adds.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .closed_form import _pow_or_inf, minimize_closed_form
from .errors import DidNotConverge, PointNotInterior, _check_exponent
from .geometry import (
    CanonicalTriangle, Point, _normals, _projector, _side_lengths, _slacks
)


ZOOM_FACTOR = 4.0  # window radius shrink per zoom pass of the grid scan
# thinness 2 * area / diameter^2 from which the grid scan's zoom passes
# take the coarser lattice (see grid_search)
_THIN = 0.05
_TINY = sys.float_info.min


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for both oracles; each must be an integer.

    ``grid_resolution`` (m) is the number of lattice steps along each side
    of a grid pass's window, so a pass scans (m + 1)(m + 2)/2 points: 4753
    at the default 96. ``zoom_iterations`` counts the window-shrink steps
    after the initial full-triangle scan. The first pass scans m steps on
    every triangle, and so does every zoom pass on a thin one; on a
    triangle that is not thin the zoom passes scan max(1, 7m // 16) steps
    (946 points at the default) and there is one more of them, as
    ``grid_search`` explains. With the windows centred on each pass's
    winner, 96 with 10 zooms misses verify's tolerances on fewer
    oracle-compare cases than 128 did with windows on the running best;
    64 and 80 resolve the height of a 1e160 sliver too coarsely.
    """

    grid_resolution: int = 96
    zoom_iterations: int = 10
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


@functools.lru_cache(maxsize=None)
def _bary_weights(m):
    """The (3, N) matrix of the lattice's barycentric weights, rows wa, wb,
    wc, N = (m + 1)(m + 2)/2; shared between calls, so read-only."""
    import numpy as np

    counts = np.arange(m + 1, 0, -1)
    ii = np.repeat(np.arange(m + 1), counts)
    jj = np.concatenate([np.arange(k) for k in counts])
    weights = np.stack((ii, jj, m - ii - jj)).astype(np.float64)
    weights *= 1.0 / m
    weights.flags.writeable = False
    return weights


def _lattice_scratch(m):
    """Work arrays for ``_lattice_best`` at resolution m: the caller owns
    them, so concurrent scans never share one."""
    import numpy as np

    size = (m + 1) * (m + 2) // 2
    return np.empty((3, size)), np.empty((3, size)), np.empty(size)


def _block_power(s, n, out):
    """s ** n elementwise for s >= 0, in ``out`` unless n = 1 (then s);
    for any s when n is even and at most 64, whose last step squares.

    Integral n up to 64 goes by repeated squaring, left to right over the
    bits of n: n = 5 takes three multiplies and n = 10 four, each far
    cheaper than a ``pow``, and the rounding error grows only linearly in
    their number. Any other n takes one ``np.power``.
    """
    import numpy as np

    k = int(n)
    if k != n or not 1 <= k <= 64:
        return np.power(s, n, out=out)
    power = s
    for bit in bin(k)[3:]:  # the bits after the leading one
        np.multiply(power, power, out=out)
        power = out
        if bit == "1":
            np.multiply(out, s, out=out)
    return power


def _lattice_best(a, b, c, p, q, n, m, window, scratch):
    """Best point of the barycentric lattice of resolution m over the window
    triangle whose vertices are the three (x, y) pairs of ``window``;
    returns (x, y, slacks), the winner and its three side slacks, lowest
    lattice index on ties. p and q are the side lengths from
    ``_side_lengths(a, b, c)``; ``scratch`` comes from
    ``_lattice_scratch(m)`` and is overwritten.

    A lattice point is wa*V1 + wb*V2 + wc*V3 and each slack is affine, so
    the point's slack is the same combination of the corners' slacks: one
    3x3 by 3xN product gives every side's slack at every point, and no
    coordinates are formed until the winner is known. One power over the
    block (``_block_power``) and two in-place adds over the sides give F
    at every point. The ``abs`` that folds roundoff-negative slacks is
    skipped for even n up to 64, whose repeated squaring ends in a square
    and so gives (-s)^n == s^n bit for bit. The winner's slacks are
    recomputed in plain floats from the corners', for ``_power_sum``.
    """
    import numpy as np

    weights = _bary_weights(m)
    s, r, f = scratch
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    corners = np.array((
        _slacks(a, b, c, p, q, w1x, w1y),
        _slacks(a, b, c, p, q, w2x, w2y),
        _slacks(a, b, c, p, q, w3x, w3y),
    ))
    np.matmul(corners.T, weights, out=s)
    if not (n % 2 == 0 and n <= 64):
        np.abs(s, out=s)
    r1, r2, r3 = _block_power(s, n, r)
    np.add(r1, r2, out=f)
    np.add(f, r3, out=f)
    best = int(np.argmin(f))
    ka, kb, kc = weights[:, best].tolist()
    (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = corners.tolist()
    return (
        ka * w1x + kb * w2x + kc * w3x,
        ka * w1y + kb * w2y + kc * w3y,
        (
            ka * s11 + kb * s21 + kc * s31,
            ka * s12 + kb * s22 + kc * s32,
            ka * s13 + kb * s23 + kc * s33,
        ),
    )


def _power_sum(slacks, n):
    """|s1|^n + |s2|^n + |s3|^n in plain floats; inf where a power
    overflows."""
    s1, s2, s3 = slacks
    return _pow_or_inf(abs(s1), n) + _pow_or_inf(abs(s2), n) + _pow_or_inf(abs(s3), n)


def grid_search(tri: CanonicalTriangle, n, config: Optional[OracleConfig] = None):
    """Deterministic zooming lattice scan for n >= 1; returns (point, value).

    The first pass scans a barycentric lattice of m = ``grid_resolution``
    steps over the whole triangle. Every later pass scans an equilateral
    window centred on the winner of the pass just scanned, with the window
    radius shrinking by ZOOM_FACTOR per pass. The returned point is the
    best seen over all passes, so the value is monotone in
    zoom_iterations.

    Centring on the pass's winner rather than on the running best keeps
    the windows following the valley on thin triangles. There the early
    passes are full-height slabs, and the lattice's error across the
    height outweighs the fall of F along the valley floor, so a pass that
    has moved towards the minimizer can still score worse than an earlier,
    staler point; windows kept on that stale point shrink around it until
    the minimizer falls outside them. Equilateral windows keep the margin
    around the centre isotropic, which matters on thin triangles too: a
    window shaped like the triangle itself leaves almost no room along the
    short direction and can wall off the valley floor. Window corners are
    re-projected onto the triangle, keeping the lattice feasible when the
    minimizer sits on the boundary, as it does for n = 1. Ties go to the
    lowest lattice index and nothing depends on thread count, so reruns
    are bit-identical.

    Only thin triangles need m steps after the first pass. Their valley of
    F is long and narrow, and a coarse lattice can pick a winner off the
    valley floor that the next, four times smaller window then walls the
    minimizer away from. So from thinness 2 * area / diameter^2 = 0.05 up
    the zoom passes scan max(1, 7m // 16) steps, 42 at the default, with
    one zoom pass more, which keeps the last lattice step no coarser:
    diameter / (42 * 4^11) against diameter / (96 * 4^10). Against m on
    every pass, on 31,744 oracle-compare cases (seeds 0 and 201-230) and
    4000 triangles of thinness 1e-3 to 1, 42 steps miss verify's
    tolerances on no case that m meets. 32, 36 and 40 steps each lose one
    to three cases at n = 1.01, all on near-equilateral triangles, where F
    is so nearly linear that its valley is thin whatever the shape; 54 and
    64 steps lose the mirror symmetry of an isosceles triangle's answer;
    and 48 steps from thinness 0.01 up miss acceptance criterion 04.

    The scan runs on a, b, c scaled by the power of two that puts the
    triangle's largest altitude in [0.5, 1), which is exact. No slack then
    exceeds 1, so no lattice value overflows at any size of triangle and
    any n, and a value underflows only where it is below 1e-308 times the
    largest altitude's nth power; passes are compared on the scaled
    values. (Scaling the diameter instead would underflow every value on
    a sliver whose height is 1e-160 of its width.) The winner is scaled
    back exactly, and its value is recomputed in the triangle's own units
    from its slacks: 0 or inf where F leaves the doubles there.

    A pass is a handful of numpy calls over one 3 x N block (N = 4753
    points at m = 96, 946 at 42): one matrix product interpolates every
    side's slack at every point from the window corners' slacks, then one
    power and two adds over the sides, after an ``abs`` unless n is even
    and at most 64. For integral n up to 64 the power is repeated
    squaring, a few multiplies over the block; any other n, such as 1.01,
    takes one ``np.power``, which then costs more than the rest of the
    pass together. Coordinates are formed only for the winner. The work
    arrays belong to this call, so concurrent scans share nothing.
    """
    n = _check_exponent(n, allow_one=True)
    cfg = config if config is not None else OracleConfig()
    ldexp = math.ldexp
    p, q, base = _side_lengths(tri.a, tri.b, tri.c)
    # the largest altitude, onto the shortest side, bounds every slack
    shift = -math.frexp(tri.a * (base / min(p, q, base)))[1]
    a, b, c = ldexp(tri.a, shift), ldexp(tri.b, shift), ldexp(tri.c, shift)
    p, q, base = _side_lengths(a, b, c)
    radius = max(p, q, base)
    m = zoom_m = cfg.grid_resolution
    zooms = cfg.zoom_iterations
    if a / radius * (base / radius) >= _THIN:
        zoom_m, zooms = max(1, 7 * m // 16), zooms + 1
    first_scratch = _lattice_scratch(m)
    zoom_scratch = first_scratch if zoom_m == m else _lattice_scratch(zoom_m)
    window = [(0.0, a), (-b, 0.0), (c, 0.0)]
    half_rt3 = 0.5 * math.sqrt(3.0)
    project = _projector(a, b, c)
    best_x, best_y, best_f, best_s = 0.0, 0.0, math.inf, None
    for k in range(zooms + 1):
        lx, ly, ls = _lattice_best(
            a, b, c, p, q, n, zoom_m if k else m, window,
            zoom_scratch if k else first_scratch,
        )
        lf = _power_sum(ls, n)
        if lf < best_f:
            best_x, best_y, best_f, best_s = lx, ly, lf, ls
        radius /= ZOOM_FACTOR
        for j, (ox, oy) in enumerate(
            ((0.0, 1.0), (-half_rt3, -0.5), (half_rt3, -0.5))
        ):
            window[j] = project(lx + radius * ox, ly + radius * oy)
    value = _power_sum([ldexp(s, -shift) for s in best_s], n)
    return Point(ldexp(best_x, -shift), ldexp(best_y, -shift)), value


def _ratio_power_sum(slacks, top, n):
    """sum (s_i / top)^n of positive slacks; inf where ** overflows."""
    s1, s2, s3 = slacks
    try:
        return (s1 / top) ** n + (s2 / top) ** n + (s3 / top) ** n
    except OverflowError:
        return math.inf


def _newton(a, b, c, n, x0, y0, max_iters):
    """Damped Newton descent on F from the interior point (x0, y0), n > 1.

    F is convex, so no iterate needs projecting, and Newton's method is
    affine-invariant (Boyd & Vandenberghe, Convex Optimization, 9.5), so
    the long valleys of thin triangles cost it nothing. Nothing leaves the
    doubles: a, b, c, x, y are scaled by the power of two that puts a in
    [0.5, 1), and with r_i = s_i / max s, e_i = r_i^(n-1), ft = sum r_i e_i,
    the gradient and Hessian of F / F(x_k) in units of max s are
    sum g_i u_i and sum w_i u_i u_i^T, g_i = n e_i / ft, w_i = (n-1) g_i / r_i.
    The 2x2 system is solved from the crosses c_ij = u_i x u_j: with
    det = sum_{i<j} w_i w_j c_ij^2 and t_i = rot(u_i) . g, the step is
    -sum w_i t_i rot(u_i) / det and the decrement lambda^2 = sum w_i t_i^2
    / det, sums of one sign where hxx * hyy - hxy^2 cancels to a zero step
    on near-rank-1 Hessians (large n).

    Near n = 1 the minimizer sits by a vertex, orders of magnitude closer
    to two sides than the triangle is wide, and Newton overshoots them: no
    step may shrink either of the two smallest slacks below a tenth of
    itself, if the step so limited still descends. The step is cut to 0.99
    of the way to the nearest side and halved until Armijo's condition
    (1e-4) holds. Stops once lambda^2 <= 2e-13, after one more full step if
    that lowers F, or once a step lowers F by at most 1e-13 * F. Returns
    (x, y, F, iterations), F and the point on the raw scale.
    """
    ldexp = math.ldexp
    shift = -math.frexp(a)[1]
    a, b, c = ldexp(a, shift), ldexp(b, shift), ldexp(c, shift)
    x, y = ldexp(x0, shift), ldexp(y0, shift)
    p, q, _ = _side_lengths(a, b, c)
    u = (u1x, u1y), (u2x, u2y), (u3x, u3y) = _normals(a, b, c, p, q)
    c12, c13, c23 = u1x * u2y - u1y * u2x, u1x * u3y - u1y * u3x, u2x * u3y - u2y * u3x
    k = -math.frexp(max(abs(c12), abs(c13), abs(c23)))[1]
    c12, c13, c23 = ldexp(c12, k), ldexp(c13, k), ldexp(c23, k)
    sl = _slacks(a, b, c, p, q, x, y)
    if not min(sl) > 0.0:
        raise PointNotInterior(f"start {(x0, y0)} is not strictly inside the triangle")
    top = max(sl)
    f0 = _pow_or_inf(ldexp(top, -shift), n) * _ratio_power_sum(sl, top, n)
    if not _TINY <= f0 < math.inf:
        raise OverflowError(f"F at the start is not a normal double: 1 / F = 1 / {f0!r}")
    it = 0
    while True:
        top = max(sl)
        r = r1, r2, r3 = sl[0] / top, sl[1] / top, sl[2] / top
        e1, e2, e3 = r1 ** (n - 1.0), r2 ** (n - 1.0), r3 ** (n - 1.0)
        ft = r1 * e1 + r2 * e2 + r3 * e3
        g1, g2, g3 = n * e1 / ft, n * e2 / ft, n * e3 / ft
        w1, w2, w3 = (n - 1.0) * g1 / r1, (n - 1.0) * g2 / r2, (n - 1.0) * g3 / r3
        det = w1 * w2 * c12 * c12 + w1 * w3 * c13 * c13 + w2 * w3 * c23 * c23
        if not _TINY <= det < math.inf:
            raise FloatingPointError(
                f"Newton determinant {det!r} is not a normal double"
            )
        t1, t2, t3 = g2 * c12 + g3 * c13, g3 * c23 - g1 * c12, -g1 * c13 - g2 * c23
        lam2 = (w1 * t1 * t1 + w2 * t2 * t2 + w3 * t3 * t3) / det
        dx = ldexp((w1 * t1 * u1y + w2 * t2 * u2y + w3 * t3 * u3y) / det, k)
        dy = -ldexp((w1 * t1 * u1x + w2 * t2 * u2x + w3 * t3 * u3x) / det, k)
        if lam2 <= 2e-13:
            nx, ny = x + top * dx, y + top * dy
            ns = _slacks(a, b, c, p, q, nx, ny)
            if min(ns) > 0.0 and _ratio_power_sum(ns, top, n) < ft:
                x, y, sl = nx, ny, ns
                it += 1
            break
        if it == max_iters:
            raise DidNotConverge(
                f"Newton descent hit {max_iters} iterations with "
                f"lambda^2 = {lam2:.3e} > 2e-13"
            )
        ds = [ux * dx + uy * dy for ux, uy in u]
        slope = -lam2
        i, j = ((1, 2), (0, 2), (0, 1))[sl.index(top)]
        if ds[i] < -0.9 * r[i] or ds[j] < -0.9 * r[j]:
            # the step that moves s_i and s_j as Newton's does, but
            # shrinks neither below a tenth of itself
            (uix, uiy), (ujx, ujy) = u[i], u[j]
            di, dj = max(ds[i], -0.9 * r[i]), max(ds[j], -0.9 * r[j])
            cij = uix * ujy - uiy * ujx
            vx, vy = (di * ujy - dj * uiy) / cij, (dj * uix - di * ujx) / cij
            vs = [ux * vx + uy * vy for ux, uy in u]
            vslope = g1 * vs[0] + g2 * vs[1] + g3 * vs[2]
            if vslope < 0.0:
                dx, dy, ds, slope = vx, vy, vs, vslope
        if not abs(dx) + abs(dy) < math.inf:  # halving could never end
            raise FloatingPointError(f"Newton step ({dx!r}, {dy!r}) is not finite")
        step = 1.0
        for ri, dsi in zip(r, ds):
            if dsi < 0.0:
                step = min(step, -0.99 * ri / dsi)
        while True:
            nx, ny = x + step * top * dx, y + step * top * dy
            ns = _slacks(a, b, c, p, q, nx, ny)
            ratio = _ratio_power_sum(ns, top, n) / ft if min(ns) > 0.0 else math.inf
            # a step too short to move the point ends the run below
            if ratio <= 1.0 + 1e-4 * step * slope or (nx == x and ny == y):
                break
            step *= 0.5
        x, y, sl = nx, ny, ns
        it += 1
        if 1.0 - ratio <= 1e-13:
            break
    top = max(sl)
    f = _pow_or_inf(ldexp(top, -shift), n) * _ratio_power_sum(sl, top, n)
    return ldexp(x, -shift), ldexp(y, -shift), f, it


def projected_gradient(
    tri: CanonicalTriangle, n, start=None, config: Optional[OracleConfig] = None
) -> PgResult:
    """Descent oracle: damped Newton descent on F (``_newton``) from
    ``start`` (default: the centroid), n > 1. No iterate leaves the open
    triangle, so nothing is projected; the name is kept for its callers.

    Raises PointNotInterior for a start not strictly inside,
    OverflowError when F at the start is not a normal double,
    FloatingPointError when the Newton system's determinant is not, and
    DidNotConverge when ``pg_max_iters`` steps end before the stopping
    rule holds.
    """
    n = _check_exponent(n)
    cfg = config if config is not None else OracleConfig()
    if start is None:  # the centroid
        start = ((-tri.b + tri.c) / 3.0, tri.a / 3.0)
    x, y, f, iters = _newton(
        tri.a, tri.b, tri.c, n, float(start[0]), float(start[1]), cfg.pg_max_iters
    )
    return PgResult(Point(x, y), f, iters)


def compare(
    tri: CanonicalTriangle,
    n,
    config: Optional[OracleConfig] = None,
    point_tol: float = 1e-6,
    value_tol: float = 1e-9,
) -> DiscrepancyReport:
    """Closed form vs both oracles; gaps measured against the better oracle."""
    closed = minimize_closed_form(tri, n)
    grid_point, grid_value = grid_search(tri, n, config)
    pg = projected_gradient(tri, n, None, config)
    if grid_value <= pg.value:
        oracle_point, oracle_value = grid_point, grid_value
    else:
        oracle_point, oracle_value = pg.point, pg.value
    return _discrepancy(
        closed.point_canonical, closed.value, oracle_point, oracle_value,
        point_tol, value_tol,
    )


def _discrepancy(
    point, value, oracle_point, oracle_value, point_tol: float, value_tol: float
) -> DiscrepancyReport:
    """Gaps between a formula's (point, value) and an oracle's, and whether
    both are within tolerance: point_gap is absolute, the value gap is
    relative to the larger magnitude of the two values, and 0 when both
    are 0."""
    point_gap = math.hypot(point[0] - oracle_point[0], point[1] - oracle_point[1])
    denom = max(abs(oracle_value), abs(value))
    value_gap_rel = float(abs(value - oracle_value) / denom) if denom else 0.0
    return DiscrepancyReport(
        point_gap=point_gap,
        value_gap_rel=value_gap_rel,
        oracle_value=float(oracle_value),
        closed_form_value=float(value),
        passed=bool(point_gap <= point_tol and value_gap_rel <= value_tol),
    )
