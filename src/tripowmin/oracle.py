"""Brute-force minimizers used to certify the closed form.

Two independent numeric routes that never touch the closed-form formulas:
a zooming barycentric grid scan and a damped Newton descent. ``compare``
runs both against the closed form and reports the gaps.

Only the lattice scan uses numpy, imported inside the functions that need
it, so ``import tripowmin`` and the descent run without it.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .closed_form import _pow_or_inf, _trilinear
from .errors import DidNotConverge, InvalidExponent, PointNotInterior, _check_exponent
from .geometry import CanonicalTriangle, Point, _projector, _side_lengths, _slacks
from .kkt import _crosses, _frame, _log_value, _over, _powers, _value


ZOOM_FACTOR = 4.0  # window radius shrink per zoom pass of the grid scan
_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon
_THREAD = threading.local()  # each thread's lattices, by m


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for both oracles; each must be an integer.

    ``grid_resolution`` (m) is the number of lattice steps along each side
    of a grid pass's window, so every pass scans (m + 1)(m + 2)/2 points:
    946 at the default 42. ``zoom_iterations`` counts the window-shrink
    steps after the initial full-triangle scan, so a scan makes
    zoom_iterations + 1 passes: 12 at the default 11.
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


@functools.lru_cache(maxsize=None)
def _bary_weights(m):
    """The (3, N) matrix of the lattice's barycentric weights, rows wa, wb,
    wc, N = (m + 1)(m + 2)/2, and its columns as tuples; read-only."""
    import numpy as np

    counts = np.arange(m + 1, 0, -1)
    ii = np.repeat(np.arange(m + 1), counts)
    jj = np.concatenate([np.arange(k) for k in counts])
    weights = np.stack((ii, jj, m - ii - jj)).astype(np.float64)
    weights *= 1.0 / m
    weights.flags.writeable = False
    return weights, tuple(map(tuple, weights.T.tolist()))


def _lattice(m):
    """The lattice of resolution m for ``_lattice_best``, made once per
    thread: ``_bary_weights(m)``; ``slack``, a memoryview of the 3 x 3
    block whose row j holds the sides' slacks at window corner j, and its
    transpose; two (3, N) work arrays; and the rows of both, as views.

    All three arrays come from one block, and each starts on a 64-byte
    boundary, a cache line. The heap promises only 16 bytes, so otherwise
    the alignment, and with it the speed of every pass, hung on what the
    process had allocated before: with arrays at 48 bytes past a line,
    oracle-compare's 90th-percentile operation took 16% longer than with
    them at 32 bytes (2-core Xeon, numpy 2.4).
    """
    lattices = _THREAD.__dict__
    if m not in lattices:
        import numpy as np

        weights, columns = _bary_weights(m)
        size = weights.size
        stride = -(-size // 8) * 8  # whole cache lines of doubles
        block = np.empty(2 * stride + 16)
        start = -block.__array_interface__["data"][0] % 64 // 8
        s, r = (block[k:k + size].reshape(3, -1) for k in (start, start + stride))
        corners = block[start + 2 * stride:][:9].reshape(3, 3)
        lattices[m] = (
            weights, columns, memoryview(corners), corners.T, s, r, (tuple(s), tuple(r))
        )
    return lattices[m]


def _block_power(n):
    """The function ``power(s, out)`` that returns |s| ** n elementwise for
    an array s, in ``out`` unless n = 1 (then in s); it may overwrite s.
    Everything that depends on n alone is settled here, once per scan.

    Integral n up to 64 goes by repeated squaring, left to right over the
    bits of n: n = 5 takes three multiplies and n = 10 four, each far
    cheaper than a ``pow``, and the rounding error grows only linearly in
    their number. Any other n takes one ``np.power``. The ``abs`` that
    folds roundoff-negative slacks is skipped for even n up to 64, whose
    repeated squaring ends in a square and so gives (-s)^n == s^n bit for
    bit.
    """
    import numpy as np

    k = int(n)
    times_s = None  # np.power
    if k == n and 1 <= k <= 64:
        times_s = [bit == "1" for bit in bin(k)[3:]]  # the bits after the leading one
    fold = times_s is None or k % 2 == 1

    def power(s, out):
        if fold:
            np.abs(s, out=s)
        if times_s is None:
            return np.power(s, n, out=out)
        result = s
        for odd in times_s:
            np.multiply(result, result, out=out)
            result = out
            if odd:
                np.multiply(out, s, out=out)
        return result

    return power


def _lattice_best(np, window, lattice, power):
    """Best point of a barycentric lattice over the window triangle whose
    vertices are the three (x, y) pairs of ``window``; returns the winner's
    x, y and lattice value F, lowest lattice index on ties. ``lattice``
    comes from ``_lattice(m)``, its ``slack`` holding the three sides'
    slacks at each window vertex, as ``_slacks`` gives them, and its work
    arrays are overwritten; ``power`` comes from ``_block_power(n)``.
    ``np`` is numpy, which the scan imports once rather than once a pass.

    A lattice point is wa*V1 + wb*V2 + wc*V3 and each slack is affine, so
    one 3x3 by 3xN product of the corners' slacks gives every side's slack
    at every point; one power over the block and two in-place adds give F.
    """
    weights, columns, _, corners, s, r, rows = lattice
    np.dot(corners, weights, out=s)
    f, r2, r3 = rows[power(s, r) is r]  # the rows of the array power wrote
    f += r2
    f += r3
    best = f.argmin()
    ka, kb, kc = columns[best]
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    x = ka * w1x + kb * w2x + kc * w3x
    return x, ka * w1y + kb * w2y + kc * w3y, f.item(best)


def grid_search(tri: CanonicalTriangle, n, config: Optional[OracleConfig] = None):
    """Deterministic zooming lattice scan for n >= 1; returns (point, value).

    The first pass scans a barycentric lattice over the whole triangle.
    Every later pass scans a window centred on the winner of the pass
    just scanned, with the window radius shrinking by ZOOM_FACTOR per
    pass; window corners are projected onto the triangle, which keeps the
    lattice feasible when the minimizer sits on the boundary, as at
    n = 1. Every pass scans m = ``grid_resolution`` lattice steps, and
    there are ``zoom_iterations`` + 1 of them. The returned point is the
    winner of the pass with the lowest lattice value (the earliest on
    ties), so the value is monotone in zoom_iterations. Ties within a
    pass go to the lowest lattice index and nothing depends on thread
    count, so reruns are bit-identical.

    Centring on the pass's winner rather than on the running best keeps
    the windows in the valley of a thin triangle, where an early
    full-height pass that has moved towards the minimizer can still score
    worse than a staler point. The window's corners sit at the radius
    times (0, sigma), (-sqrt(3)/2, -sigma/2) and (sqrt(3)/2, -sigma/2),
    with sigma = min(1, 2a / max(b, c)) in the scan's units. F's
    curvature along the base is about (a / max(b, c))^2 times its
    curvature across it, as the unit normals (a, -b)/p, (-a, -c)/q and
    (0, 1) show, so on a thin triangle an equilateral window sees a long,
    flat valley; a window sigma times as tall is about equilateral in F's
    own units, the affine invariance that makes the descent Newton's
    (Boyd & Vandenberghe, Convex Optimization, 9.5). Where
    2a >= max(b, c) the windows are equilateral.

    The scan runs on a, b, c scaled by the power of two that puts the
    inradius in [0.5, 1), exactly. F is at least inradius^n everywhere
    (Hoelder's inequality gives F >= (2 area)^n / ||L||_q^n, which is at
    least inradius^n), so no lattice value underflows up to n = 1022, and
    all passes are compared on this one scale. Values far from the
    minimizer may overflow to inf, with numpy's warning off; where
    n * log2(2h / inradius) <= 1022, h the largest altitude, none does. The
    best point is scaled back exactly, and its value, from the kernel
    ``kkt._powers``, is in the triangle's own units: 0 or inf where F
    leaves the doubles.

    A new window corner is kept where ``geometry._projector``'s inside
    test passes, and that test's terms over p and q are its slacks; only a
    corner outside, or whose products overflow, is projected. The test
    runs in the scan's units, so it agrees with the projector's wherever
    its terms are normal doubles in both units.

    A pass is one matrix product, one block power and two adds over a
    3 x N block (``_lattice_best``; N = 946 at the default m = 42) that
    allocates no array: the power's plan is set up once per scan, and the
    lattice and its work arrays once per thread, so threads share none.
    """
    x, y, k = _grid(tri, n, config)
    return Point(x, y), _value(k)


def _grid(tri, n, config):
    """``grid_search``'s scan: (x, y, the kernel's read there)."""
    import numpy as np

    n = _check_exponent(n, allow_one=True)
    cfg = config if config is not None else OracleConfig()
    ldexp = math.ldexp
    p, q, base = _side_lengths(tri.a, tri.b, tri.c)
    shift = -math.frexp(tri.a * (base / (p + q + base)))[1]  # the inradius
    a, b, c = ldexp(tri.a, shift), ldexp(tri.b, shift), ldexp(tri.c, shift)
    p, q, base = _side_lengths(a, b, c)
    radius = max(p, q, base)
    lattice, power = _lattice(cfg.grid_resolution), _block_power(n)
    slack = lattice[2]
    ab, ac = a * b, a * c
    window = [(0.0, a), (-b, 0.0), (c, 0.0)]
    for j, (x, y) in enumerate(window):
        slack[j, 0], slack[j, 1], slack[j, 2] = _slacks(a, b, c, p, q, x, y)
    half_rt3, sigma = 0.5 * math.sqrt(3.0), min(1.0, 2.0 * a / max(b, c))
    offsets = (0.0, sigma), (-half_rt3, -0.5 * sigma), (half_rt3, -0.5 * sigma)
    project = _projector(a, b, c)
    with np.errstate(over="ignore"):
        for k in range(cfg.zoom_iterations + 1):
            if k:
                radius /= ZOOM_FACTOR
                for j, (ox, oy) in enumerate(offsets):
                    x, y = lx + radius * ox, ly + radius * oy
                    ax, by, cy = a * x, b * y, c * y
                    g1, g2 = ax - by + ab, -ax - cy + ac
                    e1 = 1e-14 * (ab + abs(ax) + abs(by))
                    e2 = 1e-14 * (ac + abs(ax) + abs(cy))
                    # an overflowed product makes a margin inf, which g >= -e passes
                    if g1 >= -e1 and g2 >= -e2 and y >= 0.0 and e1 + e2 < math.inf:
                        slacks = g1 / p, g2 / q, y
                    else:
                        x, y = project(x, y)
                        slacks = _slacks(a, b, c, p, q, x, y)
                    slack[j, 0], slack[j, 1], slack[j, 2] = slacks
                    window[j] = x, y
            lx, ly, lf = _lattice_best(np, window, lattice, power)
            # the first pass seeds the best, even where all its values are inf
            if k == 0 or lf < best_f:
                best_x, best_y, best_f = lx, ly, lf
    x, y = ldexp(best_x, -shift), ldexp(best_y, -shift)
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
    grid_x, grid_y, grid = _grid(tri, n, config)
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
