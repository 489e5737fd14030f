"""Planar triangle primitives in the apex frame.

The apex frame puts one vertex on the positive y-axis at (0, a) and the
opposite side on the x-axis running from (-b, 0) to (c, 0), with a, b, c
all positive. In that frame each side line has a fixed linear equation, so
point-to-side distances, containment and projection are all closed-form.
``canonicalize`` carries an arbitrary triangle into the frame with a
rotation plus translation (never a reflection).

``_normals`` is the one source of the sides' unit inward normals: the
objective's gradient, the KKT multipliers and the Hessian are all written
in them. It and ``_slacks`` take the side lengths, so callers form them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateTriangle

# doubled area below this fraction of the squared longest side is collinear
DEGENERACY_REL_TOL = 1e-12

# Veltkamp's splitter for doubles: 2^27 + 1
_SPLIT = 134217729.0

_INF = math.inf


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


def _as_point(value, name: str) -> Point:
    """Any pair of numbers as a Point of floats, or ValueError naming it
    (also for an int beyond the doubles, where ``float`` overflows)."""
    try:
        x, y = value
        return _point((float(x), float(y)))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be two numbers, got {value!r}") from None
    except OverflowError:
        raise ValueError(
            f"{name} must be finite, got a coordinate beyond the doubles"
        ) from None


def _finite_point(value, name: str) -> Point:
    """``_as_point``, refused unless both coordinates are finite."""
    x, y = point = _as_point(value, name)
    if not -_INF < x < _INF > y > -_INF:  # both finite, neither NaN
        raise ValueError(f"{name} must be finite, got {(x, y)!r}")
    return point


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

    @property
    def p(self) -> float:
        """Length of the side from (0, a) to (-b, 0)."""
        return _side_lengths(self.a, self.b, self.c)[0]

    @property
    def q(self) -> float:
        """Length of the side from (0, a) to (c, 0)."""
        return _side_lengths(self.a, self.b, self.c)[1]

    def vertices(self) -> tuple[Point, Point, Point]:
        return _point((0.0, self.a)), _point((-self.b, 0.0)), _point((self.c, 0.0))

    def diameter(self) -> float:
        return max(_side_lengths(self.a, self.b, self.c))


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

    def vertex_array(self) -> tuple[Point, Point, Point]:
        return self.v1, self.v2, self.v3


@dataclass(frozen=True, init=False)
class Isometry:
    """Rigid motion (rotation by ``angle`` then translation), det = +1.

    ``to_canonical`` maps original coordinates into the apex frame,
    ``to_original`` is the exact inverse. ``apex_index`` records which input
    vertex became (0, a).
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

    def to_canonical(self, point) -> Point:
        x, y = float(point[0]), float(point[1])
        tx, ty = self.translation
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return _point((ca * x - sa * y + tx, sa * x + ca * y + ty))

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


def _dot(u0, u1, v0, v1) -> float:
    """``fma(u1, v1, u0*v0)``, rounded once: the bits of the fused
    multiply-add that OpenBLAS's 2-vector dot computes, which the frame's
    projections have always had (see tests/test_geometry.py). Not the
    correctly rounded dot: verdicts at n near 1 hinge on these last bits.
    The arguments must be scaled so that no product leaves the normal
    range, as ``canonicalize`` scales them.

    ``p + e == u1*v1`` exactly, by Dekker's TwoProduct (Ogita, Rump and
    Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005),
    and ``fsum`` rounds ``u0*v0 + p + e`` once.
    """
    p = u1 * v1
    t = _SPLIT * u1
    uh = t - (t - u1)
    ul = u1 - uh
    t = _SPLIT * v1
    vh = t - (t - v1)
    vl = v1 - vh
    return math.fsum((u0 * v0, p, ((uh * vh - p) + uh * vl + ul * vh) + ul * vl))


def _obtuse_or_right(ux, uy, wx, wy) -> bool:
    """Sign test ``u . w <= 0`` as the fused ``_dot`` decides it.

    The float dot has the same sign whenever it is clear of roundoff; at a
    right angle the sign is roundoff, and the float and the fused result can
    disagree, so that case takes ``_dot``.
    """
    uw = ux * wx + uy * wy
    if abs(uw) > 1e-15 * (abs(ux * wx) + abs(uy * wy)):
        return uw < 0.0
    return _dot(ux, uy, wx, wy) <= 0.0


def canonicalize(triangle: GeneralTriangle) -> tuple[CanonicalTriangle, Isometry]:
    """Move a triangle into the apex frame with an orientation-preserving motion.

    The apex is the vertex of a right or obtuse angle when one exists (that
    angle is the maximum, and only that choice keeps both base offsets
    positive); for acute triangles every vertex is admissible and the first
    input vertex is kept, so an already-canonical triangle maps to itself
    under the identity.
    """
    ldexp = math.ldexp
    (x1, y1), (x2, y2), (x3, y3) = triangle.v1, triangle.v2, triangle.v3
    # Everything below runs on the vertices scaled by a power of two, which
    # is exact: the sign tests (collinearity, apex, orientation) do not
    # depend on the unit of length, no square overflows or underflows, and
    # neither do the split products of ``_dot``. a, b, c and the translation
    # are scaled back at the end, exactly again.
    shift = -math.frexp(max(abs(x1), abs(y1), abs(x2), abs(y2), abs(x3), abs(y3)))[1]
    x1, y1 = ldexp(x1, shift), ldexp(y1, shift)
    x2, y2 = ldexp(x2, shift), ldexp(y2, shift)
    x3, y3 = ldexp(x3, shift), ldexp(y3, shift)
    # edge i runs from vertex i to vertex i + 1
    e1x, e1y = x2 - x1, y2 - y1
    e2x, e2y = x3 - x2, y3 - y2
    e3x, e3y = x1 - x3, y1 - y3
    longest_sq = max(e1x * e1x + e1y * e1y, e2x * e2x + e2y * e2y, e3x * e3x + e3y * e3y)
    doubled_area = e1x * (y3 - y1) - e1y * (x3 - x1)
    if longest_sq == 0.0 or abs(doubled_area) <= DEGENERACY_REL_TOL * longest_sq:
        raise DegenerateTriangle("vertices are collinear within tolerance")

    # the angle at vertex i lies between edge i and edge i - 1 reversed
    if _obtuse_or_right(e1x, e1y, -e3x, -e3y):
        apex = 0
    elif _obtuse_or_right(e2x, e2y, -e1x, -e1y):
        apex = 1
    elif _obtuse_or_right(e3x, e3y, -e2x, -e2y):
        apex = 2
    else:
        apex = 0

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
    t = _dot(px - lx, py - ly, ex0, ex1)
    fx, fy = lx + t * ex0, ly + t * ex1
    a = _dot(px - fx, py - fy, -ex1, ex0)
    b = _dot(fx - lx, fy - ly, ex0, ex1)
    c = _dot(rx - fx, ry - fy, ex0, ex1)
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        # can only happen when a base angle is right/obtuse at float
        # precision, i.e. the triangle is degenerate for this frame
        raise DegenerateTriangle("altitude foot falls outside the base segment")

    a, b, c = ldexp(a, -shift), ldexp(b, -shift), ldexp(c, -shift)
    translation = _point((
        ldexp(-_dot(fx, fy, ex0, ex1), -shift),
        ldexp(-_dot(fx, fy, -ex1, ex0), -shift),
    ))
    return (
        CanonicalTriangle(a, b, c),
        Isometry(math.atan2(-ex1, ex0), translation, apex),
    )


def _side_lengths(a, b, c):
    """Lengths of the sides AB, AC and BC, A = (0, a), B = (-b, 0),
    C = (c, 0). hypot neither overflows nor underflows where a*a + b*b
    would, and scaling a, b, c by a power of two scales it exactly."""
    return math.hypot(a, b), math.hypot(a, c), b + c


def _trilinear_point(a, b, c, lengths, root):
    """The point at distances h * w_i from the sides AB, AC, BC, with
    w_i = rho_i^root and rho_i = L_i / L_max for the side ``lengths``:
    the incenter for root 0, the powered-sum minimizer for root 1/(n-1).
    Returns (x, y, h, tot), tot = sum rho_i * w_i. Each rho_i and w_i is
    at most 1, and h solves sum L_i * d_i = 2 * area = a * (b + c) in the
    ratios, so no term leaves the triangle's scale."""
    l1, l2, l3 = lengths
    longest = max(lengths)
    r1, r2, r3 = l1 / longest, l2 / longest, l3 / longest
    w1, w2, w3 = r1 ** root, r2 ** root, r3 ** root
    tot = r1 * w1 + r2 * w2 + r3 * w3
    h = a * r3 / tot
    return (c * r1 * w1 - b * r2 * w2) / tot, h * w3, h, tot


def _slacks(a, b, c, p, q, x, y):
    return (a * x - b * y + a * b) / p, (-a * x - c * y + a * c) / q, y


def _normals(a, b, c, p, q):
    return (a / p, -b / p), (-a / q, -c / q), (0.0, 1.0)


def _side_slacks(a, b, c, x, y):
    """Signed distances from (x, y) to the three side lines, positive inside.

    The first line runs through (0, a) and (-b, 0), the second through
    (0, a) and (c, 0), the third is the base y = 0.
    """
    p, q, _ = _side_lengths(a, b, c)
    return _slacks(a, b, c, p, q, x, y)


def _seg_closest(px, py, ax, ay, bx, by):
    vx = bx - ax
    vy = by - ay
    t = ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)
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
    scaled by a power of two, as in ``canonicalize``, so that products
    such as b * y neither overflow nor underflow; the scale is found once
    here, not per point. The scaling and the scaling back are exact, but
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


def incenter(tri: CanonicalTriangle) -> Point:
    """The point at equal distance from all three sides: trilinears 1:1:1."""
    a, b, c = tri.a, tri.b, tri.c
    x, y, _, _ = _trilinear_point(a, b, c, _side_lengths(a, b, c), 0.0)
    return _point((x, y))


def altitudes(tri: CanonicalTriangle) -> Altitudes:
    """Altitudes dropped from (0, a), (-b, 0) and (c, 0) respectively."""
    a, b, c = tri.a, tri.b, tri.c
    return Altitudes(a, a * (b + c) / tri.q, a * (b + c) / tri.p)
