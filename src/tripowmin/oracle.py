"""Brute-force minimizers used to certify the closed form.

Two independent numeric routes that never touch the closed-form formulas:
a zooming barycentric grid scan and projected gradient descent. ``compare``
runs both against the closed form and reports the gaps.

Only the lattice scan uses numpy, imported inside the functions that need
it, so ``import tripowmin`` and the descent run without it. The scan
evaluates each lattice pass as whole-block array operations: one matrix
product for the side slacks, one power and one sum.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .closed_form import minimize_closed_form
from .errors import DidNotConverge, _check_exponent
from .geometry import (
    CanonicalTriangle, Point, _normals, _project_point, _side_lengths, _slacks
)
from .kkt import _power_sum, _power_sum_grad


ZOOM_FACTOR = 4.0  # window radius shrink per zoom pass of the grid scan
PG_TOLERANCE = 1e-10  # descent stops once step * |grad| <= PG_TOLERANCE * a


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for both oracles.

    ``zoom_iterations`` counts the window-shrink steps after the initial
    full-triangle scan.
    """

    grid_resolution: int = 128
    zoom_iterations: int = 10
    pg_max_iters: int = 200_000  # room for thin triangles to converge

    def __post_init__(self):
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")
        if self.zoom_iterations < 0:
            raise ValueError("zoom_iterations must be >= 0")
        if self.pg_max_iters < 1:
            raise ValueError("pg_max_iters must be >= 1")


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


def _pow(d, n):
    """d ** n for d >= 0, inf where it overflows instead of raising."""
    try:
        return d ** n
    except OverflowError:
        return math.inf


def _block_power(s, n, out):
    """s ** n elementwise for s >= 0, in ``out`` unless n = 1 (then s).

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


def _lattice_best(a, b, c, n, m, window, scratch):
    """Best point of the barycentric lattice of resolution m over the window
    triangle whose vertices are the three (x, y) pairs of ``window``;
    returns (x, y, f), lowest lattice index on ties. ``scratch`` comes from
    ``_lattice_scratch(m)`` and is overwritten.

    A lattice point is wa*V1 + wb*V2 + wc*V3 and each slack is affine, so
    the point's slack is the same combination of the corners' slacks: one
    3x3 by 3xN product gives every side's slack at every point, and no
    coordinates are formed until the winner is known. One power over the
    block (``_block_power``) and one sum over the sides give F at every
    point. The winner's value is recomputed in plain floats from its own
    slacks.
    """
    import numpy as np

    weights = _bary_weights(m)
    s, r, f = scratch
    p, q, _ = _side_lengths(a, b, c)
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    corners = np.array((
        _slacks(a, b, c, p, q, w1x, w1y),
        _slacks(a, b, c, p, q, w2x, w2y),
        _slacks(a, b, c, p, q, w3x, w3y),
    ))
    np.matmul(corners.T, weights, out=s)
    np.abs(s, out=s)
    np.add.reduce(_block_power(s, n, r), axis=0, out=f)
    best = int(np.argmin(f))
    ka, kb, kc = weights[:, best].tolist()
    (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = corners.tolist()
    return (
        ka * w1x + kb * w2x + kc * w3x,
        ka * w1y + kb * w2y + kc * w3y,
        _pow(abs(ka * s11 + kb * s21 + kc * s31), n)
        + _pow(abs(ka * s12 + kb * s22 + kc * s32), n)
        + _pow(abs(ka * s13 + kb * s23 + kc * s33), n),
    )


def grid_search(tri: CanonicalTriangle, n, config: Optional[OracleConfig] = None):
    """Deterministic zooming lattice scan for n >= 1; returns (point, value).

    The first pass scans a barycentric lattice over the whole triangle.
    Every later pass scans an equilateral window centered on the best
    point seen so far, with the window radius shrinking by ZOOM_FACTOR
    per pass; the running best only ever improves, so the returned value
    is monotone in zoom_iterations. Equilateral windows keep the margin
    around the running best isotropic, which matters on thin triangles:
    a window shaped like the triangle itself leaves almost no room along
    the short direction and can wall off the flat valley floor. Window
    corners are re-projected onto the triangle, keeping the lattice
    feasible when the minimizer sits on the boundary, as it does for
    n = 1. Ties go to the lowest lattice index and nothing depends on
    thread count, so reruns are bit-identical.

    A pass is a handful of numpy calls over one 3 x N block (N = 8385
    points at the default resolution): one matrix product interpolates
    every side's slack at every point from the window corners' slacks,
    then one ``abs``, one power and one sum over the sides. For integral
    n up to 64 the power is repeated squaring, a few multiplies over the
    block; any other n, such as 1.01, takes one ``np.power``, which then
    costs more than the rest of the pass together. Coordinates are formed
    only for the winner. The work arrays belong to this call, so
    concurrent scans share nothing.
    """
    n = _check_exponent(n, allow_one=True)
    cfg = config if config is not None else OracleConfig()
    a, b, c = tri.a, tri.b, tri.c
    window = list(tri.vertices())
    radius = tri.diameter()
    half_rt3 = 0.5 * math.sqrt(3.0)
    scratch = _lattice_scratch(cfg.grid_resolution)
    best_x, best_y, best_f = 0.0, 0.0, math.inf
    for _ in range(cfg.zoom_iterations + 1):
        lx, ly, lf = _lattice_best(a, b, c, n, cfg.grid_resolution, window, scratch)
        if lf < best_f:
            best_x, best_y, best_f = lx, ly, lf
        radius /= ZOOM_FACTOR
        for k, (ox, oy) in enumerate(
            ((0.0, 1.0), (-half_rt3, -0.5), (half_rt3, -0.5))
        ):
            window[k] = _project_point(
                a, b, c, best_x + radius * ox, best_y + radius * oy
            )
    return Point(best_x, best_y), float(best_f)


def _pg_minimize(a, b, c, n, x0, y0, step0, tol, max_iters):
    """Spectral projected gradient descent.

    Each iteration seeds the step with the Barzilai-Borwein quotient from
    the previous move and backtracks by halving until the value drops below
    the worst of the last ten accepted values (plus a small slope margin).
    The spectral step tracks the local curvature scale in the direction of
    travel, which matters on thin triangles where the objective valley can
    be worse than 1e5:1 anisotropic and a fixed-step method zigzags for
    millions of iterations.

    The objective is normalized by its value at the start point: a power
    sum of sub-unit distances collapses exponentially with n, and on the
    raw scale step * |grad| can sit below any fixed threshold before a
    single move is taken.  Normalization leaves the minimizer untouched
    and makes the stopping rule read as a displacement-length threshold:
    stop once step * |grad| <= tol, or at the iteration cap.

    The iteration is deterministic, and the non-monotone test can lock it
    into an exact roundoff cycle that would spin until the cap. A
    checkpoint of the state (point, step and the ten-value history),
    moved at power-of-two iteration counts (Brent's cycle finding), spots
    an exact repeat; the run then stops at the phase of the cycle where
    the cap would have stopped it, with the same best point and residual.

    Returns (x, y, f, iterations, step * |grad| at exit, capped) for the
    best point seen, with f back on the raw scale; ``capped`` says the run
    hit the cap or entered a cycle that would have run to it. Raises
    OverflowError when 1 / f at the start point is not a double, f = 0
    included. The step, a length squared, is clamped to 1e-30 and 1e30
    times a * a, a the smallest altitude and the length of the stopping
    rule, so the clamps bind alike at every scale.
    """
    p, q, _ = _side_lengths(a, b, c)
    # products, not **, so the clamps may reach 0 but never raise; the cap
    # stays finite so that halving can always shrink the step
    s_min = 1e-30 * a * a
    s_max = min(1e30 * a * a, sys.float_info.max)
    normals = _normals(a, b, c, p, q)
    x, y = _project_point(a, b, c, x0, y0)
    sl = _slacks(a, b, c, p, q, x, y)
    f0 = _power_sum(sl, n)
    inv0 = 1.0 / f0 if f0 > 0.0 else math.inf
    if not math.isfinite(inv0):
        raise OverflowError(f"1 / F = 1 / {f0!r} at the start point overflows")
    f = f0 * inv0
    gx, gy = _power_sum_grad(normals, sl, n)
    gx *= inv0
    gy *= inv0
    gn = math.hypot(gx, gy)
    bx, by, bf = x, y, f
    hist = [f] * 10
    s = step0
    it = 0
    mark, span, period = 0, 1, 0
    kx, ky, ks, khist = x, y, s, list(hist)
    while it < max_iters and s * gn > tol:
        fmax = max(hist)
        while s * gn > tol:
            cx, cy = _project_point(a, b, c, x - s * gx, y - s * gy)
            dx = cx - x
            dy = cy - y
            if dx != 0.0 or dy != 0.0:
                sl = _slacks(a, b, c, p, q, cx, cy)
                cf = _power_sum(sl, n) * inv0
                if cf <= fmax + 1e-4 * (gx * dx + gy * dy):
                    break
            s *= 0.5
        else:
            # the step fell to the stopping threshold without a move
            break
        # the accepted point's slacks are still in sl
        ngx, ngy = _power_sum_grad(normals, sl, n)
        ngx *= inv0
        ngy *= inv0
        den = dx * (ngx - gx) + dy * (ngy - gy)
        if den > 0.0:
            s = (dx * dx + dy * dy) / den
        else:
            # flat or concave sample: grow and let the search recover
            s *= 2.0
        if s > s_max:
            s = s_max
        elif s < s_min:
            s = s_min
        x, y, f = cx, cy, cf
        gx, gy = ngx, ngy
        gn = math.hypot(gx, gy)
        if f < bf:
            bx, by, bf = x, y, f
        hist[it % 10] = f
        it += 1
        if x == kx and y == ky and s == ks and not period:
            oldest = it % 10
            if hist[oldest:] + hist[:oldest] == khist:
                # the whole state repeats, so it would cycle up to the cap:
                # stop at the iteration of this cycle that the cap lands on
                period = it - mark
                max_iters = it + (max_iters - it) % period
        if it - mark == span:
            oldest = it % 10
            mark, span = it, 2 * span
            kx, ky, ks, khist = x, y, s, hist[oldest:] + hist[:oldest]
    return bx, by, bf / inv0, it, s * gn, it >= max_iters




def projected_gradient(
    tri: CanonicalTriangle, n, start=None, config: Optional[OracleConfig] = None
) -> PgResult:
    """Projected descent from ``start`` (default: centroid), n > 1.

    The first step is 0.1 * diameter; the step then adapts freely in both
    directions. Stops once step * |grad| <= PG_TOLERANCE * a, or early on
    an exact cycle that would otherwise spin to the cap. Raises
    DidNotConverge only when the iteration cap is hit, or such a cycle
    would hit it, with that residual still above 100x the threshold; a
    capped run that is merely slow to polish returns normally and the
    caller sees its iteration count.
    """
    n = _check_exponent(n)
    cfg = config if config is not None else OracleConfig()
    if start is None:  # the centroid
        start = ((-tri.b + tri.c) / 3.0, tri.a / 3.0)
    tol = PG_TOLERANCE * tri.a
    x, y, f, iters, residual, capped = _pg_minimize(
        tri.a, tri.b, tri.c, n,
        float(start[0]), float(start[1]),
        0.1 * tri.diameter(), tol, int(cfg.pg_max_iters),
    )
    if capped and residual > 100.0 * tol:
        if iters < cfg.pg_max_iters:
            stop = f"entered an exact cycle (stopped at {iters} iterations)"
        else:
            stop = f"hit {cfg.pg_max_iters} iterations"
        raise DidNotConverge(
            f"projected gradient {stop} with "
            f"step*|grad| = {residual:.3e} > {100.0 * tol:.3e}"
        )
    return PgResult(Point(x, y), float(f), int(iters))


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
    relative to the larger magnitude of the two values."""
    point_gap = math.hypot(point[0] - oracle_point[0], point[1] - oracle_point[1])
    denom = max(abs(oracle_value), abs(value), 1e-300)
    value_gap_rel = float(abs(value - oracle_value) / denom)
    return DiscrepancyReport(
        point_gap=point_gap,
        value_gap_rel=value_gap_rel,
        oracle_value=float(oracle_value),
        closed_form_value=float(value),
        passed=bool(point_gap <= point_tol and value_gap_rel <= value_tol),
    )
