"""Helpers shared by the test modules: random triangles in the apex frame,
side slacks, membership of the closed triangle, the gradient of F as the
descent reads it and the inverse of ``Isometry.to_original``."""

import math

from tripowmin.geometry import CanonicalTriangle, Point, _side_lengths, _slacks
from tripowmin.kkt import _frame, _powers


def side_slacks(a, b, c, x, y):
    """Signed distances from (x, y) to the three side lines, positive inside.

    The first line runs through (0, a) and (-b, 0), the second through
    (0, a) and (c, 0), the third is the base y = 0.
    """
    p, q, _ = _side_lengths(a, b, c)
    return _slacks(a, b, c, p, q, x, y)


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
