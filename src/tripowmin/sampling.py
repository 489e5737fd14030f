"""Seeded random triangle generators for randomized checks.

Each takes a ``numpy.random.Generator`` and calls only its ``uniform``.
"""

from __future__ import annotations

import math

from .geometry import CanonicalTriangle, GeneralTriangle


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


def random_canonical_triangle(rng) -> CanonicalTriangle:
    """Apex-frame triangle with a in [0.2, 5] and b, c in [0.1, 4], uniform."""
    return CanonicalTriangle(
        rng.uniform(0.2, 5.0), rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
    )
