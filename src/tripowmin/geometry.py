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

import numpy as np

from . import _kernels
from .errors import DegenerateTriangle

# doubled area below this fraction of the squared longest side is collinear
DEGENERACY_REL_TOL = 1e-12


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

    def vertices(self) -> np.ndarray:
        return np.array([[0.0, self.a], [-self.b, 0.0], [self.c, 0.0]])

    def diameter(self) -> float:
        return max(_kernels.side_lengths(self.a, self.b, self.c))


@dataclass(frozen=True)
class GeneralTriangle:
    """Three vertices in arbitrary position, kept in input order."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(2)
            x, y = v.tolist()
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"vertex {name} must be finite, got {(x, y)!r}")
            object.__setattr__(self, name, v)

    def vertex_array(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v3])


@dataclass(frozen=True)
class Isometry:
    """Rigid motion (rotation by ``angle`` then translation), det = +1.

    ``to_canonical`` maps original coordinates into the apex frame,
    ``to_original`` is the exact inverse. ``apex_index`` records which input
    vertex became (0, a).
    """

    angle: float
    translation: np.ndarray
    apex_index: int

    def __post_init__(self):
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(2)
        )

    def to_canonical(self, point) -> np.ndarray:
        x, y = float(point[0]), float(point[1])
        tx, ty = self.translation.tolist()
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return np.array((ca * x - sa * y + tx, sa * x + ca * y + ty))

    def to_original(self, point) -> np.ndarray:
        tx, ty = self.translation.tolist()
        x = float(point[0]) - tx
        y = float(point[1]) - ty
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return np.array((ca * x + sa * y, -sa * x + ca * y))


class SideDistances(NamedTuple):
    d1: float  # to the line through (0, a) and (-b, 0)
    d2: float  # to the line through (0, a) and (c, 0)
    d3: float  # to the base line y = 0


class Altitudes(NamedTuple):
    h_a: float
    h_b: float
    h_c: float


def _dot(u, v) -> float:
    """numpy's dot of two 2-vectors, not ``u0*v0 + u1*v1``: the BLAS kernel
    behind it may fuse the multiply-add, and the frame's projections keep
    the bits they have always had (see tests/test_geometry.py)."""
    return float(np.array(u).dot(v))


def _obtuse_or_right(ux, uy, wx, wy) -> bool:
    """Sign test ``u . w <= 0`` as numpy's dot decides it.

    The float dot has the same sign whenever it is clear of roundoff; at a
    right angle the sign is roundoff, and the float and the fused result can
    disagree, so that case asks numpy.
    """
    uw = ux * wx + uy * wy
    if abs(uw) > 1e-15 * (abs(ux * wx) + abs(uy * wy)):
        return uw < 0.0
    return _dot((ux, uy), np.array((wx, wy))) <= 0.0


def canonicalize(triangle: GeneralTriangle) -> tuple[CanonicalTriangle, Isometry]:
    """Move a triangle into the apex frame with an orientation-preserving motion.

    The apex is the vertex of a right or obtuse angle when one exists (that
    angle is the maximum, and only that choice keeps both base offsets
    positive); for acute triangles every vertex is admissible and the first
    input vertex is kept, so an already-canonical triangle maps to itself
    under the identity.
    """
    verts = (triangle.v1.tolist(), triangle.v2.tolist(), triangle.v3.tolist())
    (x1, y1), (x2, y2), (x3, y3) = verts
    # The sign tests (collinearity, apex, orientation) run on the vertices
    # scaled by a power of two, which is exact: their verdicts do not depend
    # on the unit of length, and no square overflows or underflows.
    shift = -math.frexp(max(abs(x1), abs(y1), abs(x2), abs(y2), abs(x3), abs(y3)))[1]
    x1, y1, x2, y2, x3, y3 = (math.ldexp(u, shift) for u in (x1, y1, x2, y2, x3, y3))
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
    ex, ey = np.array((ex0, ex1)), np.array((-ex1, ex0))
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
    translation = (-_dot((fx, fy), ex), -_dot((fx, fy), ey))
    return CanonicalTriangle(a, b, c), Isometry(angle, translation, apex)


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


def project_to_triangle(tri: CanonicalTriangle, point) -> np.ndarray:
    """Nearest point of the closed triangle (idempotent)."""
    px, py = _kernels.project_point(
        tri.a, tri.b, tri.c, float(point[0]), float(point[1])
    )
    return np.array([px, py])


def incenter(tri: CanonicalTriangle) -> np.ndarray:
    """The point at equal distance from all three sides: trilinears 1:1:1."""
    a, b, c = tri.a, tri.b, tri.c
    x, y, _, _ = _kernels.trilinear_point(a, b, c, _kernels.side_lengths(a, b, c), 0.0)
    return np.array([x, y])


def altitudes(tri: CanonicalTriangle) -> Altitudes:
    """Altitudes dropped from (0, a), (-b, 0) and (c, 0) respectively."""
    a, b, c = tri.a, tri.b, tri.c
    return Altitudes(a, a * (b + c) / tri.q, a * (b + c) / tri.p)
