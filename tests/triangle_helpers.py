"""Helpers shared by the test modules: random triangles in the apex frame,
a seeded set of thin and regular ones, side slacks, membership of the
closed triangle, the gradient of F as the descent reads it, the inverse of
``Isometry.to_original``, a reference copy of the KKT certificate and a
frozen copy of the oracles as they were before each answer's kernel read
was handed back (``frozen_compare`` and the functions it calls)."""

import math
from itertools import compress
from types import SimpleNamespace
from typing import Optional

import numpy as np

from tripowmin.closed_form import _pow_or_inf, minimize_closed_form
from tripowmin.errors import (
    DidNotConverge, InvalidExponent, PointNotFeasible, PointNotInterior, _check_exponent,
)
from tripowmin.geometry import (
    CanonicalTriangle, GeneralTriangle, Point, _point, _projector, _side_lengths, _slacks,
    _trilinear_point, canonicalize,
)
from tripowmin.kkt import (
    _ROUNDING, KktReport, Verdict, _band, _crosses, _frame, _hessian, _over, _powers, _value,
)
from tripowmin.oracle import (
    _EPS, _TINY, ZOOM_FACTOR, DiscrepancyReport, OracleConfig, PgResult, _bary_weights,
    _block_power, _discrepancy, _incenter,
)

_SIDE_LABELS = ("AB", "AC", "BC")


def _thinness(v):
    (x1, y1), (x2, y2), (x3, y3) = v
    longest = max(math.dist(v[i], v[i - 1]) for i in range(3))
    return abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)) / longest**2


def seeded_triangles(per_class=64):
    """(class, canonical triangle) pairs, ``per_class`` of each: regular
    ones with vertices uniform in [-1, 1]^2 and thinness
    2 area / diameter^2 >= 1e-2, thin ones of thinness in [1e-3, 1e-2],
    each rotated, and scaled log-uniformly in [1e-3, 1e3]."""
    rng = np.random.default_rng(2024)
    out = []
    for thin in (False, True):
        while len(out) < per_class * (1 + thin):
            if thin:
                tau = 10.0 ** rng.uniform(-3.0, -2.0)
                foot = rng.uniform(0.05, 0.95)
                v = np.array([(0.0, 0.0), (1.0, 0.0), (foot, tau)])
                t = rng.uniform(0.0, 2.0 * math.pi)
                v = v @ np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
            else:
                v = rng.uniform(-1.0, 1.0, size=(3, 2))
                if _thinness(v.tolist()) < 1e-2:
                    continue
            v *= 10.0 ** rng.uniform(-3.0, 3.0)
            out.append((thin, canonicalize(GeneralTriangle(*map(tuple, v.tolist())))[0]))
    return out


def side_slacks(a, b, c, x, y):
    """Signed distances from (x, y) to the three side lines, positive inside.

    The first line runs through (0, a) and (-b, 0), the second through
    (0, a) and (c, 0), the third is the base y = 0.
    """
    p, q, _ = _side_lengths(a, b, c)
    return _slacks(a, b, c, p, q, x, y)


def grid_meets(tri, n, point, value):
    """Whether an oracle's point and value meet the closed form's at
    ``verify``'s tolerances: within 1e-5 diameter and 1e-8 of the value."""
    truth = minimize_closed_form(tri, n)
    return (
        math.dist(point, truth.point_canonical) <= 1e-5 * tri.diameter()
        and abs(value - truth.value) <= 1e-8 * truth.value
    )


def random_canonical_triangle(rng):
    """Apex-frame triangle with a in [0.2, 5] and b, c in [0.1, 4], uniform."""
    return CanonicalTriangle(
        rng.uniform(0.2, 5.0), rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
    )


def contains(tri, point):
    """Closed-triangle membership with a cushion of about 1e-12 of the
    local scale, which admits projected boundary points an ulp outside."""
    x, y = float(point[0]), float(point[1])
    eps = 1e-12 * (tri.a + tri.b + tri.c + abs(x) + abs(y))
    return min(side_slacks(tri.a, tri.b, tri.c, x, y)) >= -eps


def kernel_gradient(tri, n, point):
    """grad F = n top^(n-1) sum_i e_i u_i at a point, from the kernel's
    e_i, top and unit normals u_i as the descent reads them (the one-sided
    derivative at a side)."""
    x, y = float(point[0]), float(point[1])
    _, _, top, _, _, e, _, normals = _powers(_frame(tri.a, tri.b, tri.c), x, y, n)
    g = n * top ** (n - 1.0)
    gx = sum(ei * ux for ei, (ux, _) in zip(e, normals))
    gy = sum(ei * uy for ei, (_, uy) in zip(e, normals))
    return Point(gx * g, gy * g)


def to_canonical(iso, point):
    """Original coordinates into the apex frame: rotate by ``iso.angle``,
    then translate."""
    ca, sa = math.cos(iso.angle), math.sin(iso.angle)
    x, y = float(point[0]), float(point[1])
    return Point(ca * x - sa * y + iso.translation[0], sa * x + ca * y + iso.translation[1])


def reference_kkt(tri, n, point):
    """The KKT certificate written the direct way: every multiplier and
    residual formed whatever the verdict, and the report built from them.
    ``kkt_residual`` must build the same report, bit for bit."""
    n = _check_exponent(n)
    x, y = float(point[0]), float(point[1])
    tol = 1e-9 * tri.a
    frame = unit, a, b, c, p, q, normals = _frame(tri.a, tri.b, tri.c)
    _, slacks, top, _, _, _, w, _ = _powers(frame, x, y, n)
    s1, s2, s3 = slacks
    # written so that a NaN slack fails it too
    if not (s1 >= -tol and s2 >= -tol and s3 >= -tol):
        raise PointNotFeasible(
            f"point {(x, y)} violates a side constraint by more than {tol}"
        )

    lengths = p, q, b + c
    longest = max(lengths)
    # the point's own rounding, eps (b + c) across and eps a up, along the
    # sides' unit normals (a, -b) / p, (-a, -c) / q and (0, 1)
    d3 = _ROUNDING * a / unit
    m = n - 1.0
    bands = (
        _band(s1, d3 * (lengths[2] + b) / p, p / longest, top, m),
        _band(s2, d3 * (lengths[2] + c) / q, q / longest, top, m),
        _band(s3, d3, lengths[2] / longest, top, m),
    )
    (lo1, _, low1, high1), (lo2, _, low2, high2), (lo3, _, low3, high3) = bands
    active = not lo1, not lo2, not lo3
    floor = max(low1, low2, low3)
    nu = [0.0, 0.0, 0.0]
    stationarity = comp_slack = 0.0
    verdict = Verdict.SATISFIED
    if floor > min(high1, high2, high3):
        # mu = lo_k^(n-1) / rho_k is the least that every lower bound
        # allows, and nu_i = hi_i^(n-1) - mu rho_i on each side whose upper
        # bound falls short of it, mu rho_i = lo_k^(n-1) L_i / L_k
        k = (low1, low2, low3).index(floor)
        mu_per_length = _pow_or_inf(bands[k][0], m) / lengths[k]
        verdict = Verdict.STATIONARITY_FAILED
        for i, (lo, hi, _, high) in enumerate(bands):
            if high < floor:
                nu[i] = _pow_or_inf(hi, m) - mu_per_length * lengths[i]
                if not lo:
                    verdict = Verdict.MULTIPLIER_NEGATIVE
        stationarity = max((abs(v) for v, on in zip(nu, active) if not on), default=0.0)
        comp_slack = max(abs(v * s) for v, s in zip(nu, slacks))

    # the scales of the Hessian and the gradient, n top^(n-2) and n top^(n-1)
    h_fxx = h_det = math.nan  # second-order fields are undefined on the boundary
    if w is not None:
        h = n * _pow_or_inf(top, n - 2.0)
        h_fxx, h_det = _hessian(normals, w)
        h_fxx, h_det = h_fxx * h if h_fxx else h_fxx, h_det * h * h if h_det else h_det
        g = h * top
    else:
        g = n * _pow_or_inf(top, n - 1.0)
    m1, m2, m3 = nu
    return KktReport(
        active_set=tuple(compress(_SIDE_LABELS, active)),
        # in the triangle's units; an exact 0 stays 0 where g is inf
        multipliers=(m1 * g if m1 else m1, m2 * g if m2 else m2, m3 * g if m3 else m3),
        stationarity_residual=stationarity * g if stationarity else stationarity,
        complementary_slackness_residual=comp_slack * g if comp_slack else comp_slack,
        hessian_fxx=h_fxx,
        hessian_det=h_det,
        verdict=verdict,
    )


# The oracles as they were before each answer's kernel read was handed back
# and the grid's passes stopped allocating: verbatim but for their
# docstrings, the names of the frozen functions they call, ``_bary_weights``'
# tuple and ``log_value``, which ``frozen_minimize_closed_form`` returns
# beside the point and value. The package's oracles must give the same
# bits and raise the same errors.

def frozen_lattice(m):
    import numpy as np

    weights = _bary_weights(m)[0]
    size = weights.size
    stride = -(-size // 8) * 8  # whole cache lines of doubles
    block = np.empty(2 * stride + 8)
    start = -block.__array_interface__["data"][0] % 64 // 8
    return (
        weights,
        block[start:start + size].reshape(weights.shape),
        block[start + stride:start + stride + size].reshape(weights.shape),
    )


def frozen_lattice_best(np, corners, window, lattice, power):
    weights, s, r = lattice
    np.matmul(np.array(corners).T, weights, out=s)
    f, r2, r3 = power(s, r)
    f += r2
    f += r3
    best = f.argmin()
    ka, kb, kc = weights[:, best].tolist()
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    x = ka * w1x + kb * w2x + kc * w3x
    return x, ka * w1y + kb * w2y + kc * w3y, f.item(best)


def frozen_grid_search(tri: CanonicalTriangle, n, config: Optional[OracleConfig] = None):
    import numpy as np

    n = _check_exponent(n, allow_one=True)
    cfg = config if config is not None else OracleConfig()
    ldexp = math.ldexp
    p, q, base = _side_lengths(tri.a, tri.b, tri.c)
    shift = -math.frexp(tri.a * (base / (p + q + base)))[1]  # the inradius
    a, b, c = ldexp(tri.a, shift), ldexp(tri.b, shift), ldexp(tri.c, shift)
    p, q, base = _side_lengths(a, b, c)
    radius = max(p, q, base)
    lattice, power = frozen_lattice(cfg.grid_resolution), _block_power(n)
    ab, ac = a * b, a * c
    window = [(0.0, a), (-b, 0.0), (c, 0.0)]
    corners = [_slacks(a, b, c, p, q, x, y) for x, y in window]
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
                        corners[j] = g1 / p, g2 / q, y
                    else:
                        x, y = project(x, y)
                        corners[j] = _slacks(a, b, c, p, q, x, y)
                    window[j] = x, y
            lx, ly, lf = frozen_lattice_best(np, corners, window, lattice, power)
            # the first pass seeds the best, even where all its values are inf
            if k == 0 or lf < best_f:
                best_x, best_y, best_f = lx, ly, lf
    x, y = ldexp(best_x, -shift), ldexp(best_y, -shift)
    return Point(x, y), _value(frozen_powers(_frame(tri.a, tri.b, tri.c), x, y, n))


def frozen_newton(a, b, c, n, x, y, max_iters):
    ldexp = math.ldexp
    frame = _frame(a, b, c)
    k = frozen_powers(frame, x, y, n)
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
            nk = frozen_powers(frame, nx, ny, n)
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
        if ds[i] < -0.9 * r[i] or ds[j] < -0.9 * r[j]:
            # the step that moves s_i and s_j as Newton's does, but
            # shrinks neither below a tenth of itself
            (uix, uiy), (ujx, ujy) = u[i], u[j]
            di, dj = max(ds[i], -0.9 * r[i]), max(ds[j], -0.9 * r[j])
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
            if dsi < 0.0:
                step = min(step, -0.99 * ri / dsi)
        while True:
            nx, ny = x + step * top * dx, y + step * top * dy
            nk = frozen_powers(frame, nx, ny, n)
            ratio = _over(nk, k) if nk[6] is not None else math.inf
            # a step too short to move the point ends the run below
            if ratio <= 1.0 + 1e-4 * step * slope or (nx == x and ny == y):
                break
            step *= 0.5
        x, y, k = nx, ny, nk
        it += 1
        if 1.0 - ratio <= 1e-13:
            break
    return x, y, _value(k), it


def frozen_projected_gradient(
    tri: CanonicalTriangle, n, start=None, config: Optional[OracleConfig] = None
) -> PgResult:
    n = _check_exponent(n)
    if (1.0 - _EPS) ** (n - 1.0) < _TINY:
        raise InvalidExponent(
            f"exponent {n!r} is beyond the descent oracle, which needs "
            "(1 - eps)^(n-1) to be a normal double (n below about 3.2e18)"
        )
    cfg = config if config is not None else OracleConfig()
    if start is None:
        start = _incenter(tri.a, tri.b, tri.c)
    x, y, f, iters = frozen_newton(
        tri.a, tri.b, tri.c, n, float(start[0]), float(start[1]), cfg.pg_max_iters
    )
    return PgResult(Point(x, y), f, iters)


def frozen_log_F(tri: CanonicalTriangle, n, point) -> float:
    frame = _frame(tri.a, tri.b, tri.c)
    _, _, top, _, total, _, _, _ = frozen_powers(frame, float(point[0]), float(point[1]), n)
    return n * math.log(top) + math.log(total)


def frozen_compare(
    tri: CanonicalTriangle,
    n,
    config: Optional[OracleConfig] = None,
    point_tol: float = 1e-6,
    value_tol: float = 1e-9,
) -> DiscrepancyReport:
    closed = frozen_minimize_closed_form(tri, n)
    grid_point, grid_value = frozen_grid_search(tri, n, config)
    pg = frozen_projected_gradient(tri, n, None, config)
    grid_log, pg_log = frozen_log_F(tri, n, grid_point), frozen_log_F(tri, n, pg.point)
    if grid_log <= pg_log:
        oracle = grid_point, grid_value, grid_log
    else:
        oracle = pg.point, pg.value, pg_log
    return _discrepancy(
        closed.point_canonical, closed.value, closed.log_value, *oracle,
        point_tol, value_tol,
    )


def frozen_powers(frame, x, y, n):
    unit, a, b, c, p, q, normals = frame
    s1, s2, s3 = _slacks(a, b, c, p, q, x * unit, y * unit)
    d1, d2, d3 = abs(s1), abs(s2), abs(s3)
    top = max(d1, d2, d3)
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


def frozen_minimize_closed_form(tri: CanonicalTriangle, n):
    n = _check_exponent(n)
    a, b, c = tri.a, tri.b, tri.c
    inv = 1.0 / (n - 1.0)
    x, y, h, tot = _trilinear_point(a, b, c, _side_lengths(a, b, c), inv)
    if not -math.inf < x < math.inf > y > -math.inf:  # both finite, neither NaN
        raise OverflowError(
            f"minimizer ({x}, {y}) of a={a}, b={b}, c={c} is not finite"
        )
    point = _point((x, y))
    return SimpleNamespace(
        point_canonical=point, value=_pow_or_inf(h, n) * tot,
        log_value=frozen_log_value(tri, n),
    )


def frozen_log_value(tri, n):
    # MinimizerResult.log_value
    lengths = _side_lengths(tri.a, tri.b, tri.c)
    _, _, h, tot = _trilinear_point(tri.a, tri.b, tri.c, lengths, 1.0 / (n - 1.0))
    return n * math.log(h) + math.log(tot)

