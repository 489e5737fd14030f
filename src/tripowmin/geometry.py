"""Planar triangle primitives in the apex frame.

The apex frame puts one vertex on the positive y-axis at (0, a) and the
opposite side on the x-axis running from (-b, 0) to (c, 0), with a, b, c
all positive. In that frame each side line has a fixed linear equation, so
point-to-side distances and containment are closed-form.
``canonicalize`` carries an arbitrary triangle into the frame with a
rotation plus translation (never a reflection).

``_normals`` is the one source of the sides' unit inward normals: the
objective's gradient, the KKT multipliers and the Hessian are all written
in them. It and ``_slacks`` take the side lengths, so callers form them once.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateTriangle

# doubled area below this fraction of the squared longest side is collinear
DEGENERACY_REL_TOL = 1e-12

_INF = math.inf
_TINY = sys.float_info.min


class Point(NamedTuple):
    """A planar point. It adds and subtracts elementwise with any pair of
    numbers, scales by a number and negates; ``numpy.asarray(point)`` gives
    the 2-vector."""

    x: float
    y: float

    def __add__(self, other):
        ox, oy = other
        return _point((self.x + ox, self.y + oy))

    __radd__ = __add__

    def __sub__(self, other):
        ox, oy = other
        return _point((self.x - ox, self.y - oy))

    def __rsub__(self, other):
        ox, oy = other
        return _point((ox - self.x, oy - self.y))

    def __mul__(self, k):
        return _point((self.x * k, self.y * k))

    __rmul__ = __mul__

    def __neg__(self):
        return _point((-self.x, -self.y))


# ``_point((x, y))`` is ``Point(x, y)`` built by one C-level tuple
# construction, without the NamedTuple's Python-level ``__new__``
_point = functools.partial(tuple.__new__, Point)


def _finite_point(value, name: str) -> Point:
    """Any pair of finite numbers as a Point of floats, or ValueError
    naming it (also for an int beyond the doubles, where ``float``
    overflows)."""
    try:
        x, y = value
        x, y = float(x), float(y)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be two numbers, got {value!r}") from None
    except OverflowError:
        raise ValueError(
            f"{name} must be finite, got a coordinate beyond the doubles"
        ) from None
    if not -_INF < x < _INF > y > -_INF:  # both finite, neither NaN
        raise ValueError(f"{name} must be finite, got {(x, y)!r}")
    return _point((x, y))


def _finite(value, name: str) -> float:
    """``float(value)``, or ValueError naming it unless a finite number."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None
    except OverflowError:  # an int beyond the doubles
        raise ValueError(
            f"{name} must be finite, got a number beyond the doubles"
        ) from None
    if not -_INF < v < _INF:
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


def _positive(value, name: str) -> float:
    """``float(value)``, or ValueError naming it unless finite and > 0."""
    try:
        v = float(value)
    except OverflowError:  # an int beyond the doubles
        raise ValueError(
            f"{name} must be finite and positive, got a number beyond the doubles"
        ) from None
    if not 0.0 < v < _INF:
        raise ValueError(f"{name} must be finite and positive, got {v!r}")
    return v


# The frozen dataclasses below write their own __init__, which checks and
# stores each field once, in the instance dict. A generated __init__ would
# store each field through object.__setattr__, and a __post_init__ coerce
# and store it again.


@dataclass(frozen=True, init=False)
class CanonicalTriangle:
    """Triangle with vertices (0, a), (-b, 0), (c, 0)."""

    a: float
    b: float
    c: float

    def __init__(self, a, b, c):
        fields = self.__dict__
        fields["a"] = _positive(a, "a")
        fields["b"] = _positive(b, "b")
        fields["c"] = _positive(c, "c")

    def vertices(self) -> tuple[Point, Point, Point]:
        return _point((0.0, self.a)), _point((-self.b, 0.0)), _point((self.c, 0.0))

    def diameter(self) -> float:
        p, q, base = _side_lengths(self.a, self.b, self.c)
        # max(p, q, base) inlined, as in _trilinear_point
        longest = q if q > p else p
        return base if base > longest else longest


@dataclass(frozen=True, init=False)
class GeneralTriangle:
    """Three vertices in arbitrary position, kept in input order."""

    v1: Point
    v2: Point
    v3: Point

    def __init__(self, v1, v2, v3):
        fields = self.__dict__
        fields["v1"] = _finite_point(v1, "vertex v1")
        fields["v2"] = _finite_point(v2, "vertex v2")
        fields["v3"] = _finite_point(v3, "vertex v3")


@dataclass(frozen=True, init=False)
class Isometry:
    """Rigid motion (rotation by ``angle`` then translation), det = +1.

    ``to_original`` maps apex-frame coordinates back to the original ones.
    ``apex_index`` records which input vertex became (0, a).
    """

    angle: float
    translation: Point
    apex_index: int

    def __init__(self, angle, translation, apex_index):
        t = translation
        if type(t) is not Point or not (type(t[0]) is type(t[1]) is float) or not (
            -_INF < t[0] < _INF > t[1] > -_INF
        ):
            t = _finite_point(t, "translation")  # a finite Point of floats is kept
        if type(angle) is not float or not -_INF < angle < _INF:
            angle = _finite(angle, "angle")
        if type(apex_index) is not int or not 0 <= apex_index <= 2:
            raise ValueError(f"apex_index must be 0, 1 or 2, got {apex_index!r}")
        fields = self.__dict__
        fields["angle"] = angle
        fields["translation"] = t
        fields["apex_index"] = apex_index

    def to_original(self, point) -> Point:
        tx, ty = self.translation
        x = float(point[0]) - tx
        y = float(point[1]) - ty
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return _point((ca * x + sa * y, -sa * x + ca * y))


class Altitudes(NamedTuple):
    h_a: float
    h_b: float
    h_c: float


def canonicalize(triangle: GeneralTriangle) -> tuple[CanonicalTriangle, Isometry]:
    """Move a triangle into the apex frame with an orientation-preserving motion.

    The apex is the vertex of a right or obtuse angle when one exists (that
    angle is the maximum, and only that choice keeps both base offsets
    positive); a right angle counts within the rounding of the coordinates.
    For acute triangles every vertex is admissible and the first input
    vertex is kept, so an already-canonical triangle maps to itself under
    the identity.
    """
    ldexp = math.ldexp
    (x1, y1), (x2, y2), (x3, y3) = triangle.v1, triangle.v2, triangle.v3
    # Everything below runs on the vertices scaled by the power of two that
    # puts the largest |coordinate| in [0.5, 1). The scaling is exact, so the
    # sign tests (collinearity, apex, orientation) do not depend on the unit
    # of length, and no square overflows or underflows. a, b, c and the
    # translation are scaled back at the end, exactly again.
    # max of the six |coordinates| and, below, of the three squares inlined,
    # each as max takes it: the first of equal values is kept, and no operand
    # is NaN, since GeneralTriangle refuses a coordinate that is not finite
    ax1, ay1, ax2, ay2, ax3, ay3 = abs(x1), abs(y1), abs(x2), abs(y2), abs(x3), abs(y3)
    big = ay1 if ay1 > ax1 else ax1
    big = ax2 if ax2 > big else big
    big = ay2 if ay2 > big else big
    big = ax3 if ax3 > big else big
    big = ay3 if ay3 > big else big
    shift = -math.frexp(big)[1]
    x1, y1 = ldexp(x1, shift), ldexp(y1, shift)
    x2, y2 = ldexp(x2, shift), ldexp(y2, shift)
    x3, y3 = ldexp(x3, shift), ldexp(y3, shift)
    # edge i runs from vertex i to vertex i + 1
    e1x, e1y = x2 - x1, y2 - y1
    e2x, e2y = x3 - x2, y3 - y2
    e3x, e3y = x1 - x3, y1 - y3
    s1, s2, s3 = e1x * e1x + e1y * e1y, e2x * e2x + e2y * e2y, e3x * e3x + e3y * e3y
    longest_sq = s2 if s2 > s1 else s1
    longest_sq = s3 if s3 > longest_sq else longest_sq
    doubled_area = e1x * (y3 - y1) - e1y * (x3 - x1)
    if longest_sq == 0.0 or abs(doubled_area) <= DEGENERACY_REL_TOL * longest_sq:
        raise DegenerateTriangle("vertices are collinear within tolerance")

    # The angle at vertex i lies between u = edge i and w = edge i - 1
    # reversed, and faces edge i + 1. Only the angle facing the longest edge
    # can be right or obtuse, so that vertex alone is tested.
    if s2 == longest_sq:
        apex, ux, uy, wx, wy = 0, e1x, e1y, -e3x, -e3y
    elif s3 == longest_sq:
        apex, ux, uy, wx, wy = 1, e2x, e2y, -e1x, -e1y
    else:
        apex, ux, uy, wx, wy = 2, e3x, e3y, -e2x, -e2y
    # u . w <= 0 at a right or obtuse angle. Rounding each coordinate (by up
    # to 2^-53 at this scale) moves u . w by up to 2^-52 times |ux| + |uy| +
    # |wx| + |wy|, so the angle counts as right within 1e-15 times that sum,
    # about 4.5 times the rounding.
    if ux * wx + uy * wy > 1e-15 * (abs(ux) + abs(uy) + abs(wx) + abs(wy)):
        apex = 0  # acute

    verts = ((x1, y1), (x2, y2), (x3, y3))
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
    # the frame's unit axes are (ex0, ex1) and (-ex1, ex0)
    ex0, ex1 = (rx - lx) / h, (ry - ly) / h
    t = (px - lx) * ex0 + (py - ly) * ex1
    fx, fy = lx + t * ex0, ly + t * ex1
    a = (py - fy) * ex0 - (px - fx) * ex1
    b = (fx - lx) * ex0 + (fy - ly) * ex1
    c = (rx - fx) * ex0 + (ry - fy) * ex1
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        # can only happen when a base angle is right/obtuse at float
        # precision, i.e. the triangle is degenerate for this frame
        raise DegenerateTriangle("altitude foot falls outside the base segment")

    a, b, c = ldexp(a, -shift), ldexp(b, -shift), ldexp(c, -shift)
    translation = _point((
        ldexp(-(fx * ex0 + fy * ex1), -shift),
        ldexp(fx * ex1 - fy * ex0, -shift),
    ))
    if not (a and b and c):  # one rounded to 0 scaling back
        raise ValueError(
            f"apex frame (a, b, c) = ({a!r}, {b!r}, {c!r}) underflows below "
            "the least subnormal double, 5e-324"
        )
    # a, b, c > 0 were tested above and ldexp raises where they overflow,
    # so both records are stored as their constructors would store them,
    # without checking each field again
    tri = object.__new__(CanonicalTriangle)
    fields = tri.__dict__
    fields["a"] = a
    fields["b"] = b
    fields["c"] = c
    iso = object.__new__(Isometry)
    fields = iso.__dict__
    fields["angle"] = math.atan2(-ex1, ex0)
    fields["translation"] = translation
    fields["apex_index"] = apex
    return tri, iso


def _side_lengths(a, b, c):
    """Lengths of the sides AB, AC and BC, A = (0, a), B = (-b, 0),
    C = (c, 0). hypot neither overflows nor underflows where a*a + b*b
    would, and scaling a, b, c by a power of two scales it exactly."""
    return math.hypot(a, b), math.hypot(a, c), b + c


def _trilinear_point(a, b, c, lengths, root):
    """The point at distances h * w_i from the sides AB, AC, BC, with
    w_i = rho_i^root and rho_i = L_i / L_max for the side ``lengths``,
    the powered-sum minimizer for root 1/(n-1) (the closed form's alone).
    Returns (x, y, h, tot), tot = sum rho_i * w_i. Each rho_i and w_i is
    at most 1, and h solves sum L_i * d_i = 2 * area = a * (b + c) in the
    ratios, so no term leaves the triangle's scale."""
    l1, l2, l3 = lengths
    # max(lengths) inlined, keeping the first of equal lengths; no length
    # is NaN, and an infinite b + c stays the longest
    longest = l2 if l2 > l1 else l1
    longest = l3 if l3 > longest else longest
    r1, r2, r3 = l1 / longest, l2 / longest, l3 / longest
    w1, w2, w3 = r1 ** root, r2 ** root, r3 ** root
    tot = r1 * w1 + r2 * w2 + r3 * w3
    h = a * r3 / tot
    return (c * r1 * w1 - b * r2 * w2) / tot, h * w3, h, tot


def _slacks(a, b, c, p, q, x, y):
    return (a * x - b * y + a * b) / p, (-a * x - c * y + a * c) / q, y


def _normals(a, b, c, p, q):
    return (a / p, -b / p), (-a / q, -c / q), (0.0, 1.0)


def _incenter(a, b, c):
    """The incenter, from vertex weights proportional to the opposite
    sides' lengths, each divided by their sum before it multiplies a
    coordinate: c * p itself overflows from side lengths of about 1e154.
    Where the sum overflows but no side does, the weights come from the
    quarter sides, whose sum is a double. Its height is the inradius."""
    p, q, base = _side_lengths(a, b, c)
    per = p + q + base
    if per == _INF:
        p, q, base = 0.25 * p, 0.25 * q, 0.25 * base
        per = p + q + base
    return c * (p / per) - b * (q / per), a * (base / per)


def incenter(tri: CanonicalTriangle) -> Point:
    """The point at equal distance from all three sides: trilinears 1:1:1.
    The descent oracle starts from the same formula, which shares no code
    with the closed form."""
    return _point(_incenter(tri.a, tri.b, tri.c))


def _altitude(a, base, side):
    """Twice the area over ``side``, a * base / side, as a * (base / side),
    since a * base leaves the doubles beyond scales of about 1e+-154; where
    that quotient is not a normal double, as base * (a / side), a / side
    being at most 1."""
    ratio = base / side
    return a * ratio if _TINY <= ratio < _INF else base * (a / side)


def altitudes(tri: CanonicalTriangle) -> Altitudes:
    """Altitudes dropped from (0, a), (-b, 0) and (c, 0) respectively."""
    a = tri.a
    p, q, base = _side_lengths(a, tri.b, tri.c)
    return Altitudes(a, _altitude(a, base, q), _altitude(a, base, p))
