"""Helpers shared by the test modules: random triangles in the apex frame
and membership of the closed triangle."""

from tripowmin.geometry import CanonicalTriangle, _side_slacks


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
    return min(_side_slacks(tri.a, tri.b, tri.c, x, y)) >= -eps
