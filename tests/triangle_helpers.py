"""Helpers shared by the test modules: random triangles in the apex frame,
a seeded set of thin and regular ones, a stream of extreme ones, the
nearest point of the closed triangle, side slacks, membership of it, the
gradient of F as the descent reads it, the inverse of
``Isometry.to_original``, a reference copy of the KKT certificate and a
frozen copy of the closed form as it was before its answer's kernel read was
handed back."""

import math
from itertools import compress
from types import SimpleNamespace

import numpy as np

from tripowmin.closed_form import _pow_or_inf, minimize_closed_form
from tripowmin.errors import PointNotFeasible, _check_exponent
from tripowmin.geometry import (
    CanonicalTriangle, GeneralTriangle, Point, _point, _side_lengths, _slacks,
    _trilinear_point, canonicalize,
)
from tripowmin.kkt import (
    _ROUNDING, KktReport, Verdict, _band, _frame, _hessian, _log_value, _powers,
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


def extreme_case(rng):
    """One case of the extreme stream from a ``random.Random``: scales
    1e-12..1e12; regular shapes, flat ones with apex height down to 1e-8
    and needles with base down to 1e-6 of the height; n - 1 log-uniform
    from 1e-4 to 59."""
    scale = 10.0 ** rng.uniform(-12.0, 12.0)
    kind = rng.randrange(3)
    if kind == 0:
        a, b, c = rng.uniform(0.2, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
    elif kind == 1:
        a, b, c = 10.0 ** rng.uniform(-8.0, 0.0), rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
    else:
        width = 10.0 ** rng.uniform(-6.0, 0.0)
        a, b, c = 1.0, width * rng.uniform(0.05, 1.0), width * rng.uniform(0.05, 1.0)
    n = 1.0 + 10.0 ** rng.uniform(-4.0, math.log10(59.0))
    return CanonicalTriangle(scale * a, scale * b, scale * c), n


def _seg_closest(px, py, ax, ay, bx, by):
    vx = bx - ax
    vy = by - ay
    length_sq = vx * vx + vy * vy
    if not length_sq > 0.0:  # too short to square: its start is nearest
        return ax, ay
    t = ((px - ax) * vx + (py - ay) * vy) / length_sq
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return ax + t * vx, ay + t * vy


def _projector(a, b, c):
    """``project(x, y)``: the nearest point of the closed triangle as an
    (x, y) pair; ties go to the first edge tried.

    Points inside by a roundoff-level margin are returned unchanged, which
    makes repeated projection bit-stable. The work runs on a, b, c, x, y
    scaled by the power of two that puts the largest of a, b, c in [0.5, 1),
    so that products such as b * y do not overflow; the scale is found once
    here, not per point. A side below about 1e-154 of that squares to 0 and
    projects to its start. The scaling and the scaling back are exact, but
    for a coordinate hundreds of orders of magnitude below the triangle's
    size, which is 0 against it anyway.
    """
    ldexp = math.ldexp
    shift = -math.frexp(max(a, b, c))[1]
    a, b, c = ldexp(a, shift), ldexp(b, shift), ldexp(c, shift)
    ab, ac = a * b, a * c

    def project(ox, oy):
        x, y = ldexp(ox, shift), ldexp(oy, shift)
        g1 = a * x - b * y + ab
        g2 = -a * x - c * y + ac
        e1 = 1e-14 * (ab + abs(a * x) + abs(b * y))
        e2 = 1e-14 * (ac + abs(a * x) + abs(c * y))
        if g1 >= -e1 and g2 >= -e2 and y >= 0.0:
            return ox, oy
        bx, by = _seg_closest(x, y, 0.0, a, -b, 0.0)
        bd = (bx - x) * (bx - x) + (by - y) * (by - y)
        cx, cy = _seg_closest(x, y, 0.0, a, c, 0.0)
        d = (cx - x) * (cx - x) + (cy - y) * (cy - y)
        if d < bd:
            bx, by, bd = cx, cy, d
        cx, cy = _seg_closest(x, y, -b, 0.0, c, 0.0)
        d = (cx - x) * (cx - x) + (cy - y) * (cy - y)
        if d < bd:
            bx, by, bd = cx, cy, d
        return ldexp(bx, -shift), ldexp(by, -shift)

    return project


def side_slacks(a, b, c, x, y):
    """Signed distances from (x, y) to the three side lines, positive inside.

    The first line runs through (0, a) and (-b, 0), the second through
    (0, a) and (c, 0), the third is the base y = 0.
    """
    p, q, _ = _side_lengths(a, b, c)
    return _slacks(a, b, c, p, q, x, y)


def grid_meets(tri, n, point):
    """Whether an oracle's point and its value meet the closed form's at
    ``verify``'s tolerances: within 1e-5 diameter, and log F there, read by
    the kernel, within 1e-8 relative of the closed form's, so that a value
    of 0 or inf is judged too."""
    truth = minimize_closed_form(tri, n)
    x, y = float(point[0]), float(point[1])
    log_f = _log_value(_powers(_frame(tri.a, tri.b, tri.c), x, y, n))
    return (
        math.dist(point, truth.point_canonical) <= 1e-5 * tri.diameter()
        and -math.expm1(-abs(log_f - truth.log_value)) <= 1e-8
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


# The closed form as it was before its answer's kernel read was handed back:
# verbatim but for its docstring, the name of the frozen function it calls
# and ``log_value``, which ``frozen_minimize_closed_form`` returns beside the
# point and value. The package's must give the same bits and raise the same
# errors. The descent's bits are pinned by a digest instead
# (``descent_digest.py``).

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

