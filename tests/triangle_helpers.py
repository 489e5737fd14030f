"""Helpers shared by the test modules: random triangles in the apex frame,
a seeded set of thin and regular ones, a stream of extreme ones, the
nearest point of the closed triangle, side slacks, membership of it, the
gradient of F as the descent reads it and the inverse of
``Isometry.to_original``."""

import math

import numpy as np

from tripowmin.closed_form import minimize_closed_form
from tripowmin.geometry import (
    CanonicalTriangle, GeneralTriangle, Point, _side_lengths, _slacks, canonicalize,
)
from tripowmin.kkt import _frame, _log_value, _powers


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
                t = rng.uniform(0.0, 2.0 * math.pi)
                cos, sin = math.cos(t), math.sin(t)
                # in plain floats: a matrix product's BLAS kernel, picked at
                # run time, may fuse the multiply-adds
                v = [(x * cos - y * sin, x * sin + y * cos)
                     for x, y in ((0.0, 0.0), (1.0, 0.0), (foot, tau))]
            else:
                v = rng.uniform(-1.0, 1.0, size=(3, 2)).tolist()
                if _thinness(v) < 1e-2:
                    continue
            s = 10.0 ** rng.uniform(-3.0, 3.0)
            tri = GeneralTriangle(*((x * s, y * s) for x, y in v))
            out.append((thin, canonicalize(tri)[0]))
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
