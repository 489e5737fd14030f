"""Seeded random triangles for randomized checks, drawn through a
generator's ``uniform(low, high)`` alone: a ``random.Random``, as
``verify`` uses, or a ``numpy.random.Generator``, whose stream is the same
as one ``size=(3, 2)`` draw gives."""

from __future__ import annotations

import math

from .geometry import GeneralTriangle


def random_general_triangle(rng) -> GeneralTriangle:
    """Vertices uniform in [-10, 10]^2, rejecting numerically degenerate
    slivers: draws whose doubled area is at most 1e-3 * longest edge^2."""
    uniform = rng.uniform
    for _ in range(10000):
        v1, v2, v3 = v = [(uniform(-10.0, 10.0), uniform(-10.0, 10.0)) for _ in range(3)]
        longest = max(math.dist(v[i], v[i - 1]) for i in range(3))
        doubled_area = abs(
            (v2[0] - v1[0]) * (v3[1] - v1[1]) - (v2[1] - v1[1]) * (v3[0] - v1[0])
        )
        if doubled_area > 1e-3 * longest * longest:
            return GeneralTriangle(v1, v2, v3)
    raise RuntimeError("rejection sampling failed to produce a triangle")
