"""Seeded benchmark inputs and their expected answers.

Every input is made here from the seed alone, with the standard library's
``random`` so the same seed gives the same triangles on any numpy version.
The expected answer is worked out from the original vertices without
calling tripowmin: at the interior minimizer of d1^n + d2^n + d3^n the
stationarity condition sum_i d_i^(n-1) * (unit inward normal of side i) = 0
holds, and since sum_i L_i * normal_i = 0 for any triangle, d_i is
proportional to L_i^(1/(n-1)). The barycentric weight of the vertex
opposite side i is L_i * d_i / (2 * area), so it is proportional to
L_i^(n/(n-1)).
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass

EXPONENTS = (1.01, 2.0, 5.0, 10.0)
SCALE_RANGE = (1e-3, 1e3)
THIN_SHARE = 0.25
# min-altitude / longest-edge; the floor is the one `tripowmin verify` uses
THIN_RANGE = (1e-3, 1e-2)


@dataclass(frozen=True)
class Case:
    """One triangle and exponent, with the answer the program must give."""

    vertices: tuple  # ((x1, y1), (x2, y2), (x3, y3)), original frame
    n: float
    scale: float
    thin: bool
    diameter: float
    point: tuple  # expected minimizer, original frame
    value: float  # expected minimum of F


def _sides(verts):
    """Lengths of the sides opposite each vertex, and the doubled area."""
    (x1, y1), (x2, y2), (x3, y3) = verts
    lengths = [math.dist(verts[(i + 1) % 3], verts[(i + 2) % 3]) for i in range(3)]
    return lengths, abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))


def thinness(verts) -> float:
    """Min-altitude over longest edge, i.e. doubled area / longest^2."""
    lengths, doubled_area = _sides(verts)
    return doubled_area / max(lengths) ** 2


def expected_answer(verts, n):
    """Minimizer (original frame) and minimum value for exponent n > 1."""
    lengths, doubled_area = _sides(verts)
    longest = max(lengths)
    rel = [length / longest for length in lengths]
    # rel ** (n/(n-1)) written so that n = 1.01 (power 101) cannot overflow
    weights = [r * r ** (1.0 / (n - 1.0)) for r in rel]
    total = sum(weights)
    bary = [w / total for w in weights]
    x = sum(b * v[0] for b, v in zip(bary, verts))
    y = sum(b * v[1] for b, v in zip(bary, verts))
    dists = [doubled_area * b / length for b, length in zip(bary, lengths)]
    return (x, y), sum(d ** n for d in dists)


def _regular(rng):
    while True:
        verts = tuple((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3))
        if thinness(verts) >= THIN_RANGE[1]:
            return verts


def _thin(rng):
    # base along x is the longest edge as long as the apex foot stays
    # inside it, so the thinness comes out as exactly tau
    tau = 10.0 ** rng.uniform(math.log10(THIN_RANGE[0]), math.log10(THIN_RANGE[1]))
    length = rng.uniform(0.5, 1.0)
    foot = rng.uniform(0.05, 0.95) * length
    local = [(0.0, 0.0), (length, 0.0), (foot, tau * length)]
    angle = rng.uniform(0.0, 2.0 * math.pi)
    ca, sa = math.cos(angle), math.sin(angle)
    cx, cy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    mx, my = (length + foot) / 3.0, tau * length / 3.0
    verts = [
        (cx + ca * (x - mx) - sa * (y - my), cy + sa * (x - mx) + ca * (y - my))
        for x, y in local
    ]
    rng.shuffle(verts)
    return tuple(verts)


def make_cases(seed: int, count: int) -> list[Case]:
    """The first ``count`` cases of the stream for ``seed``.

    Exponent and thinness are stratified rather than drawn: every run of 16
    consecutive cases holds each exponent four times, once on a thin
    triangle, so the mix, and with it the cost of a run, does not depend on
    the seed. Shape, size, position and vertex order are drawn.
    """
    rng = random.Random(seed)
    lo, hi = (math.log10(s) for s in SCALE_RANGE)
    per_thin = round(1 / THIN_SHARE)
    cases = []
    for i in range(count):
        n = EXPONENTS[i % len(EXPONENTS)]
        thin = (i // len(EXPONENTS)) % per_thin == 0
        scale = 10.0 ** rng.uniform(lo, hi)
        unit = _thin(rng) if thin else _regular(rng)
        verts = tuple((scale * x, scale * y) for x, y in unit)
        point, value = expected_answer(verts, n)
        cases.append(Case(verts, n, scale, thin, max(_sides(verts)[0]), point, value))
    return cases


def input_hash(cases) -> str:
    """sha256 over the exact bits of every vertex and exponent, in order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(struct.pack("<7d", *case.vertices[0], *case.vertices[1],
                             *case.vertices[2], case.n))
    return h.hexdigest()


def input_mix(cases) -> dict:
    count = len(cases)
    return {
        "count": count,
        "n_share": {repr(n): sum(c.n == n for c in cases) / count for n in EXPONENTS},
        "thin_share": sum(c.thin for c in cases) / count,
        "thinness_range": [min(thinness(c.vertices) for c in cases),
                           max(thinness(c.vertices) for c in cases)],
        "scale_range": [min(c.scale for c in cases), max(c.scale for c in cases)],
    }
