"""Seeded random triangles for randomized checks, drawn from a
``numpy.random.Generator`` through its ``uniform`` alone."""

from __future__ import annotations

import math

from .geometry import GeneralTriangle


def random_general_triangle(rng) -> GeneralTriangle:
    """Vertices uniform in [-10, 10]^2, rejecting numerically degenerate
    slivers: draws whose doubled area is at most 1e-3 * longest edge^2."""
    for _ in range(10000):
        v = rng.uniform(-10.0, 10.0, size=(3, 2))
        e = [v[1] - v[0], v[2] - v[1], v[0] - v[2]]
        longest = max(math.hypot(d[0], d[1]) for d in e)
        doubled_area = abs(
            (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
            - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        )
        if doubled_area > 1e-3 * longest * longest:
            return GeneralTriangle(v[0], v[1], v[2])
    raise RuntimeError("rejection sampling failed to produce a triangle")

