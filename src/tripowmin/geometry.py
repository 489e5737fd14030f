"""Planar triangle primitives in the apex frame.

The apex frame puts one vertex on the positive y-axis at (0, a) and the
opposite side on the x-axis running from (-b, 0) to (c, 0), with a, b, c
all positive. In that frame each side line has a fixed linear equation, so
point-to-side distances, containment and projection are all closed-form.
``canonicalize`` carries an arbitrary triangle into the frame with a
rotation plus translation (never a reflection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from .errors import DegenerateTriangle

# doubled area below this fraction of the squared longest side is collinear
DEGENERACY_REL_TOL = 1e-12

# Veltkamp's splitter for doubles: 2^27 + 1
_SPLIT = 134217729.0


class Point(NamedTuple):
    """A planar point. It adds and subtracts elementwise with any pair of
    numbers, scales by a number and negates; ``numpy.asarray(point)`` gives
    the 2-vector."""

    x: float
    y: float

    def __add__(self, other):
        ox, oy = other
        return Point(self.x + ox, self.y + oy)

    __radd__ = __add__

    def __sub__(self, other):
        ox, oy = other
        return Point(self.x - ox, self.y - oy)

    def __rsub__(self, other):
        ox, oy = other
        return Point(ox - self.x, oy - self.y)

    def __mul__(self, k):
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self):
        return Point(-self.x, -self.y)


def _as_point(value, name: str) -> Point:
    """Any pair of numbers as a Point of floats, or ValueError naming it."""
    try:
        x, y = value
        return Point(float(x), float(y))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be two numbers, got {value!r}") from None


@dataclass(frozen=True)
class CanonicalTriangle:
    """Triangle with vertices (0, a), (-b, 0), (c, 0)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def p(self) -> float:
        """Length of the side from (0, a) to (-b, 0)."""
        return _kernels.side_lengths(self.a, self.b, self.c)[0]

    @property
    def q(self) -> float:
        """Length of the side from (0, a) to (c, 0)."""
        return _kernels.side_lengths(self.a, self.b, self.c)[1]

    def vertices(self) -> tuple[Point, Point, Point]:
        return Point(0.0, self.a), Point(-self.b, 0.0), Point(self.c, 0.0)

    def diameter(self) -> float:
        return max(_kernels.side_lengths(self.a, self.b, self.c))


@dataclass(frozen=True)
class GeneralTriangle:
    """Three vertices in arbitrary position, kept in input order."""

    v1: Point
    v2: Point
    v3: Point

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            x, y = point = _as_point(getattr(self, name), f"vertex {name}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"vertex {name} must be finite, got {(x, y)!r}")
            object.__setattr__(self, name, point)

    def vertex_array(self) -> tuple[Point, Point, Point]:
        return self.v1, self.v2, self.v3


@dataclass(frozen=True)
class Isometry:
    """Rigid motion (rotation by ``angle`` then translation), det = +1.

    ``to_canonical`` maps original coordinates into the apex frame,
    ``to_original`` is the exact inverse. ``apex_index`` records which input
    vertex became (0, a).
    """

    angle: float
    translation: Point
    apex_index: int

    def __post_init__(self):
        object.__setattr__(
            self, "translation", _as_point(self.translation, "translation")
        )

    def to_canonical(self, point) -> Point:
        x, y = float(point[0]), float(point[1])
        tx, ty = self.translation
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return Point(ca * x - sa * y + tx, sa * x + ca * y + ty)

    def to_original(self, point) -> Point:
        tx, ty = self.translation
        x = float(point[0]) - tx
        y = float(point[1]) - ty
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return Point(ca * x + sa * y, -sa * x + ca * y)


class SideDistances(NamedTuple):
    d1: float  # to the line through (0, a) and (-b, 0)
    d2: float  # to the line through (0, a) and (c, 0)
    d3: float  # to the base line y = 0


class Altitudes(NamedTuple):
    h_a: float
    h_b: float
    h_c: float


def _two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker's TwoProduct: ``p = fl(a*b)`` and ``e`` with ``p + e == a*b``
    exactly, barring overflow and underflow (Ogita, Rump and Oishi,
    "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dot(u, v) -> float:
    """``fma(u1, v1, u0*v0)``, rounded once: the bits of the fused
    multiply-add that OpenBLAS's 2-vector dot computes, which the frame's
    projections have always had (see tests/test_geometry.py). Not the
    correctly rounded dot: verdicts at n near 1 hinge on these last bits.
    The arguments must be scaled so that no product leaves the normal
    range, as ``canonicalize`` scales them."""
    (u0, u1), (v0, v1) = u, v
    p, e = _two_product(u1, v1)
    return math.fsum((u0 * v0, p, e))


def _obtuse_or_right(ux, uy, wx, wy) -> bool:
    """Sign test ``u . w <= 0`` as the fused ``_dot`` decides it.

    The float dot has the same sign whenever it is clear of roundoff; at a
    right angle the sign is roundoff, and the float and the fused result can
    disagree, so that case takes ``_dot``.
    """
    uw = ux * wx + uy * wy
    if abs(uw) > 1e-15 * (abs(ux * wx) + abs(uy * wy)):
        return uw < 0.0
    return _dot((ux, uy), (wx, wy)) <= 0.0


def canonicalize(triangle: GeneralTriangle) -> tuple[CanonicalTriangle, Isometry]:
    """Move a triangle into the apex frame with an orientation-preserving motion.

    The apex is the vertex of a right or obtuse angle when one exists (that
    angle is the maximum, and only that choice keeps both base offsets
    positive); for acute triangles every vertex is admissible and the first
    input vertex is kept, so an already-canonical triangle maps to itself
    under the identity.
    """
    (x1, y1), (x2, y2), (x3, y3) = triangle.v1, triangle.v2, triangle.v3
    # Everything below runs on the vertices scaled by a power of two, which
    # is exact: the sign tests (collinearity, apex, orientation) do not
    # depend on the unit of length, no square overflows or underflows, and
    # neither do the split products of ``_dot``. a, b, c and the translation
    # are scaled back at the end, exactly again.
    shift = -math.frexp(max(abs(x1), abs(y1), abs(x2), abs(y2), abs(x3), abs(y3)))[1]
    x1, y1, x2, y2, x3, y3 = (math.ldexp(u, shift) for u in (x1, y1, x2, y2, x3, y3))
    verts = ((x1, y1), (x2, y2), (x3, y3))
    # edge i runs from vertex i to vertex i + 1
    edges = ((x2 - x1, y2 - y1), (x3 - x2, y3 - y2), (x1 - x3, y1 - y3))
    longest_sq = max(ux * ux + uy * uy for ux, uy in edges)
    doubled_area = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    if longest_sq == 0.0 or abs(doubled_area) <= DEGENERACY_REL_TOL * longest_sq:
        raise DegenerateTriangle("vertices are collinear within tolerance")

    apex = 0
    for i in range(3):
        # the angle at vertex i lies between edge i and edge i - 1 reversed
        (ux, uy), (wx, wy) = edges[i], edges[i - 1]
        if _obtuse_or_right(ux, uy, -wx, -wy):
            apex = i
            break

    i2, i3 = (apex + 1) % 3, (apex + 2) % 3
    # (apex, left, right) must wind counterclockwise for the frame to come
    # out with a > 0 without reflecting. It winds as (v1, v2, v3) do, and the
    # sign of their doubled area is clear of roundoff once the collinearity
    # test has passed.
    if doubled_area > 0.0:
        i_left, i_right = i2, i3
    else:
        i_left, i_right = i3, i2

    (px, py), (lx, ly), (rx, ry) = verts[apex], verts[i_left], verts[i_right]
    h = math.hypot(rx - lx, ry - ly)
    ex0, ex1 = (rx - lx) / h, (ry - ly) / h
    ex, ey = (ex0, ex1), (-ex1, ex0)
    t = _dot((px - lx, py - ly), ex)
    fx, fy = lx + t * ex0, ly + t * ex1
    a = _dot((px - fx, py - fy), ey)
    b = _dot((fx - lx, fy - ly), ex)
    c = _dot((rx - fx, ry - fy), ex)
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        # can only happen when a base angle is right/obtuse at float
        # precision, i.e. the triangle is degenerate for this frame
        raise DegenerateTriangle("altitude foot falls outside the base segment")

    angle = math.atan2(-ex1, ex0)
    a, b, c, tx, ty = (
        math.ldexp(u, -shift)
        for u in (a, b, c, -_dot((fx, fy), ex), -_dot((fx, fy), ey))
    )
    return CanonicalTriangle(a, b, c), Isometry(angle, (tx, ty), apex)


def side_distances(tri: CanonicalTriangle, point) -> SideDistances:
    """Unsigned distances from a point to the three side lines."""
    s1, s2, s3 = _kernels.side_slacks(
        tri.a, tri.b, tri.c, float(point[0]), float(point[1])
    )
    return SideDistances(abs(s1), abs(s2), abs(s3))


def contains(tri: CanonicalTriangle, point) -> bool:
    """Closed-triangle membership with a roundoff-level cushion.

    The cushion (~1e-12 of the local scale) admits points whose half-plane
    expressions sit an ulp below zero, which is exactly what projected
    boundary points look like.
    """
    x, y = float(point[0]), float(point[1])
    eps = 1e-12 * (tri.a + tri.b + tri.c + abs(x) + abs(y))
    s1, s2, s3 = _kernels.side_slacks(tri.a, tri.b, tri.c, x, y)
    return s1 >= -eps and s2 >= -eps and s3 >= -eps


def project_to_triangle(tri: CanonicalTriangle, point) -> Point:
    """Nearest point of the closed triangle (idempotent)."""
    return Point(
        *_kernels.project_point(tri.a, tri.b, tri.c, float(point[0]), float(point[1]))
    )


def incenter(tri: CanonicalTriangle) -> Point:
    """The point at equal distance from all three sides: trilinears 1:1:1."""
    a, b, c = tri.a, tri.b, tri.c
    x, y, _, _ = _kernels.trilinear_point(a, b, c, _kernels.side_lengths(a, b, c), 0.0)
    return Point(x, y)


def altitudes(tri: CanonicalTriangle) -> Altitudes:
    """Altitudes dropped from (0, a), (-b, 0) and (c, 0) respectively."""
    a, b, c = tri.a, tri.b, tri.c
    return Altitudes(a, a * (b + c) / tri.q, a * (b + c) / tri.p)
