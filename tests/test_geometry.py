import itertools
import math
import random
import warnings

import numpy as np
import pytest

from tripowmin.errors import DegenerateTriangle
from tripowmin.geometry import (
    DEGENERACY_REL_TOL,
    CanonicalTriangle,
    GeneralTriangle,
    Isometry,
    Point,
    altitudes,
    canonicalize,
    incenter,
)
from tripowmin.kkt import _frame
from triangle_helpers import _projector, contains, side_slacks, to_canonical

WORKED = CanonicalTriangle(3.0, 1.0, 2.0)


def random_vertices(rng, count):
    out = []
    while len(out) < count:
        v = rng.uniform(-10.0, 10.0, size=(3, 2))
        area2 = abs(
            (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
            - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        )
        longest = max(np.linalg.norm(v[i] - v[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        if area2 > 1e-2 * longest**2:
            out.append(v)
    return out


# canonicalize ---------------------------------------------------------------

def rotated_right_triangle(corner, legs, th):
    """Vertices of the right triangle with its right angle at ``corner``
    and legs of the given lengths along the axes turned by ``th``."""
    (px, py), (l1, l2) = corner, legs
    ct, st = math.cos(th), math.sin(th)
    return (px, py), (px + l1 * ct, py + l1 * st), (px - l2 * st, py + l2 * ct)


@pytest.mark.parametrize("degrees", range(360))
def test_canonicalize_right_triangle_lands_apex_on_right_angle(degrees):
    # the 3-4-5 triangle at (1, 1), turned: at a right angle the sign of
    # u . w is the coordinates' rounding, which must not move the apex
    verts = rotated_right_triangle((1.0, 1.0), (3.0, 4.0), math.radians(degrees))
    for order in itertools.permutations(range(3)):
        tri, iso = canonicalize(GeneralTriangle(*(verts[i] for i in order)))
        assert iso.apex_index == order.index(0), order
        assert tri.a == pytest.approx(2.4, rel=1e-15)
        assert sorted((tri.b, tri.c)) == pytest.approx([1.8, 3.2], rel=1e-15)


def test_canonicalize_rotated_right_triangles_at_extreme_scales():
    # legs 0.1..1 turned anywhere, off the origin by up to 1e6 legs, then
    # scaled by 1e-150..1e150
    rng = random.Random(19)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        offset = 10.0 ** rng.uniform(-1.0, 6.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        legs = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        verts = rotated_right_triangle(
            (offset * math.cos(phi), offset * math.sin(phi)), legs,
            rng.uniform(0.0, 2.0 * math.pi),
        )
        verts = [(x * scale, y * scale) for x, y in verts]
        order = rng.sample(range(3), 3)
        case = [verts[i] for i in order]
        tri, iso = canonicalize(GeneralTriangle(*case))
        assert iso.apex_index == order.index(0), case
        assert tri.b + tri.c == pytest.approx(math.hypot(*legs) * scale, rel=1e-8)


def test_canonicalize_obtuse_triangle_lands_apex_on_obtuse_angle():
    tri, iso = canonicalize(
        GeneralTriangle(np.array([0.0, 1.0]), np.array([-3.0, 0.0]), np.array([3.0, 0.0]))
    )
    assert iso.apex_index == 0
    assert tri.a == pytest.approx(1.0, rel=1e-14)
    assert tri.b == pytest.approx(3.0, rel=1e-14)
    assert tri.c == pytest.approx(3.0, rel=1e-14)


def test_canonicalize_acute_triangle_uses_first_vertex():
    tri, iso = canonicalize(
        GeneralTriangle(np.array([1.0, 3.0]), np.array([-2.0, 1.0]), np.array([2.0, -1.0]))
    )
    assert iso.apex_index == 0
    assert tri.a > 0 and tri.b > 0 and tri.c > 0


def test_canonicalize_recovers_frame_parameters_under_motion():
    # the worked triangle rotated and shifted must give the same (a, b, c)
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    shift = np.array([5.0, -2.0])
    vs = [rot @ np.array(v) + shift for v in ([0, 3], [-1, 0], [2, 0])]
    tri, _ = canonicalize(GeneralTriangle(*vs))
    assert tri.a == pytest.approx(3.0, rel=1e-13)
    assert tri.b == pytest.approx(1.0, rel=1e-13)
    assert tri.c == pytest.approx(2.0, rel=1e-13)


def test_canonicalize_vertices_map_onto_frame_positions():
    g = GeneralTriangle(np.array([1.0, 3.0]), np.array([-2.0, 1.0]), np.array([2.0, -1.0]))
    tri, iso = canonicalize(g)
    frame = np.array([[0.0, tri.a], [-tri.b, 0.0], [tri.c, 0.0]])
    mapped = np.array([to_canonical(iso, v) for v in (g.v1, g.v2, g.v3)])
    # apex goes to (0, a); base vertices to (-b, 0) and (c, 0) in some order
    diam = tri.diameter()
    assert np.linalg.norm(mapped[iso.apex_index] - frame[0]) < 1e-10 * diam
    others = sorted(i for i in range(3) if i != iso.apex_index)
    got = {tuple(np.round(mapped[i], 8)) for i in others}
    want = {tuple(np.round(frame[1], 8)), tuple(np.round(frame[2], 8))}
    assert got == want


def test_canonicalize_roundtrip_is_identity():
    rng = np.random.default_rng(42)
    for v in random_vertices(rng, 25):
        tri, iso = canonicalize(GeneralTriangle(v[0], v[1], v[2]))
        diam = tri.diameter()
        for pt in v:
            back = iso.to_original(to_canonical(iso, pt))
            assert np.linalg.norm(back - pt) < 1e-12 * diam
        # isometry: pairwise distances preserved
        mapped = [to_canonical(iso, x) for x in v]
        for i in range(3):
            for j in range(i):
                d0 = np.linalg.norm(v[i] - v[j])
                d1 = np.linalg.norm(mapped[i] - mapped[j])
                assert abs(d0 - d1) < 1e-12 * diam


def test_canonicalize_parameters_always_positive():
    rng = np.random.default_rng(7)
    for v in random_vertices(rng, 50):
        tri, _ = canonicalize(GeneralTriangle(v[0], v[1], v[2]))
        assert tri.a > 0 and tri.b > 0 and tri.c > 0


@pytest.mark.parametrize(
    "v1,v2,v3",
    [
        ([0, 0], [1, 1], [2, 2]),
        ([0, 0], [1, 0], [2, 0]),
        ([1, 1], [1, 1], [3, 2]),
        ([0, 0], [1e-15, 0], [0.5, 1e-16]),
    ],
)
def test_canonicalize_rejects_degenerate_input(v1, v2, v3):
    g = GeneralTriangle(np.array(v1, float), np.array(v2, float), np.array(v3, float))
    with pytest.raises(DegenerateTriangle):
        canonicalize(g)


def canonicalize_reference(triangle):
    """canonicalize as it was written on numpy 2-vectors, kept as the
    reference for the float version: same frame, same bits. Its dots are
    plain two-term sums, not numpy's ``@``, which a BLAS may fuse."""
    verts = np.asarray((triangle.v1, triangle.v2, triangle.v3))
    # the power of two just above the largest |coordinate|
    unit = math.ldexp(1.0, math.frexp(float(np.abs(verts).max()))[1])

    def dot(u, v):
        return float(u[0] * v[0] + u[1] * v[1])

    def cross(u, v):
        return float(u[0] * v[1] - u[1] * v[0])

    edges = [verts[1] - verts[0], verts[2] - verts[1], verts[0] - verts[2]]
    longest_sq = max(dot(e, e) for e in edges)
    doubled_area = cross(verts[1] - verts[0], verts[2] - verts[0])
    if longest_sq == 0.0 or abs(doubled_area) <= DEGENERACY_REL_TOL * longest_sq:
        raise DegenerateTriangle("vertices are collinear within tolerance")
    # only the angle facing the longest edge can be right or obtuse; it
    # counts as right within 1e-15 of the coordinates' unit per unit of
    # edge length
    facing = [dot(edges[(i + 1) % 3], edges[(i + 1) % 3]) for i in range(3)]
    apex = facing.index(max(facing))
    u = verts[(apex + 1) % 3] - verts[apex]
    w = verts[(apex + 2) % 3] - verts[apex]
    if dot(u, w) > 1e-15 * unit * float(abs(u[0]) + abs(u[1]) + abs(w[0]) + abs(w[1])):
        apex = 0
    i2, i3 = (apex + 1) % 3, (apex + 2) % 3
    if cross(verts[i2] - verts[apex], verts[i3] - verts[apex]) > 0.0:
        left, right = verts[i2], verts[i3]
    else:
        left, right = verts[i3], verts[i2]
    base = right - left
    ex = base / math.hypot(base[0], base[1])
    ey = np.array([-ex[1], ex[0]])
    foot = left + dot(verts[apex] - left, ex) * ex
    a = dot(verts[apex] - foot, ey)
    b = dot(foot - left, ex)
    c = dot(right - foot, ex)
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        raise DegenerateTriangle("altitude foot falls outside the base segment")
    angle = math.atan2(-ex[1], ex[0])
    translation = np.array([-dot(foot, ex), -dot(foot, ey)])
    return CanonicalTriangle(a, b, c), Isometry(angle, translation, apex)


def reference_triangles(rng, count):
    """Regular, thin (thinness 1e-3..1e-2) and right-angled triangles in
    every vertex order, at scales 1e-3..1e3 and random positions, as
    (kind, order, vertices): kind 0, 1, 2 respectively, and input vertex i
    is vertex order[i] of the triangle as built (vertex 0 is the right
    angle of kind 2)."""
    for k in range(count):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        kind = k % 3
        if kind == 0:
            local = rng.uniform(-1.0, 1.0, size=(3, 2))
        elif kind == 1:
            tau = 10.0 ** rng.uniform(-3.0, -2.0)
            foot = rng.uniform(0.05, 0.95)
            local = np.array([[0.0, 0.0], [1.0, 0.0], [foot, tau]])
        else:
            # a right angle at the origin, legs along the rotated axes
            local = np.array([[0.0, 0.0], [rng.uniform(0.1, 1.0), 0.0],
                              [0.0, rng.uniform(0.1, 1.0)]])
        th = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        verts = scale * (local @ rot.T + rng.uniform(-1.0, 1.0, size=2))
        for order in itertools.permutations(range(3)):
            yield kind, order, verts[list(order)]


def canonical_outcome(fn, verts):
    try:
        tri, iso = fn(GeneralTriangle(*verts))
    except DegenerateTriangle as exc:
        return str(exc)
    return (tri.a, tri.b, tri.c, iso.angle, iso.apex_index, *list(iso.translation))


def test_canonicalize_matches_array_reference_bit_for_bit():
    # plain float dots on both sides, so the bits do not depend on the BLAS;
    # the reference works unscaled, so this also checks that scaling by a
    # power of two is exact
    rng = np.random.default_rng(2024)
    checked = 0
    for kind, order, verts in reference_triangles(rng, 1800):
        got = canonical_outcome(canonicalize, verts)
        want = canonical_outcome(canonicalize_reference, verts)
        assert got == want, verts.tolist()
        if kind == 2:  # framed at the right angle, never refused
            assert isinstance(got, tuple) and got[4] == order.index(0), verts.tolist()
        checked += 1
    assert checked == 10_800


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e305, 1e-305])
def test_canonicalize_is_scale_free(scale):
    # squares of these coordinates overflow (underflow) a double
    tri, iso = canonicalize(GeneralTriangle((scale, 0.0), (0.0, scale), (0.0, 0.0)))
    assert iso.apex_index == 2
    half_diag = scale / math.sqrt(2.0)
    for v in (tri.a, tri.b, tri.c):
        assert v == pytest.approx(half_diag, rel=1e-15)


def test_canonicalize_stores_what_the_constructors_would():
    # canonicalize stores its records without running their checks again;
    # repr tells the bits of each float and the type of each field
    rng = np.random.default_rng(23)
    for verts in random_vertices(rng, 300):
        verts = verts * 10.0 ** rng.uniform(-300.0, 300.0)
        tri, iso = canonicalize(GeneralTriangle(*verts))
        assert repr(tri) == repr(CanonicalTriangle(tri.a, tri.b, tri.c))
        assert repr(iso) == repr(Isometry(iso.angle, iso.translation, iso.apex_index))


def test_canonicalize_refuses_a_frame_beyond_the_doubles():
    # the base, about 3.4e308, overflows scaling back to the triangle's units
    with pytest.raises(OverflowError):
        canonicalize(
            GeneralTriangle((0.0, 1.7e308), (-1.7e308, -1.7e308), (1.7e308, -1.7e308))
        )


def test_canonicalize_refuses_a_height_that_underflows_to_zero():
    # a is about 1e-12 of the base here, and below the least subnormal
    verts = ((-5.4930016e-317, -1.490926e-317), (-8.43071785e-316, 8.71187984e-316),
             (-4.490009e-316, 4.28139364e-316))
    # the refusal names the frame, not a parameter the caller never gave
    with pytest.raises(
        ValueError,
        match=r"^apex frame \(a, b, c\) = \(0\.0, 5\.92945143e-316, 5\.9294515e-316\) "
        r"underflows below the least subnormal double",
    ):
        canonicalize(GeneralTriangle(*verts))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_general_triangle_rejects_non_finite_vertex(bad, position):
    verts = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    verts[position] = (bad, 0.0) if position != 1 else (0.0, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"vertex v{position + 1} must be finite"):
            GeneralTriangle(*verts)


@pytest.mark.parametrize(
    "vertex",
    [(0.0, 1.0), [0, 1], np.array([0.0, 1.0]), (np.float64(0.0), np.int64(1))],
)
def test_points_are_built_from_any_pair_of_numbers(vertex):
    tri = GeneralTriangle((1.0, 0.0), vertex, (0.0, 0.0))
    iso = Isometry(0.0, vertex, 0)
    for point in (tri.v2, iso.translation):
        assert type(point) is Point
        assert type(point.x) is float and type(point.y) is float
        assert point == (0.0, 1.0)


@pytest.mark.parametrize(
    "bad", [(1, 2, 3), (1,), np.array([[0.0, 1.0], [2.0, 3.0]]), "ab", 5.0]
)
def test_vertex_that_is_not_two_numbers_is_rejected_by_name(bad):
    with pytest.raises(ValueError, match="vertex v2 must be two numbers"):
        GeneralTriangle((1.0, 0.0), bad, (0.0, 0.0))
    with pytest.raises(ValueError, match="translation must be two numbers"):
        Isometry(0.0, bad, 0)


def test_point_arithmetic_is_elementwise():
    p = Point(1.0, 2.0)
    assert p + [0.5, 0.0] == Point(1.5, 2.0)
    assert [0.5, 0.0] + p == Point(1.5, 2.0)
    assert p - (1.0, 1.0) == Point(0.0, 1.0)
    assert (1.0, 1.0) - p == Point(0.0, -1.0)
    assert 2.0 * p == p * 2.0 == Point(2.0, 4.0)
    assert -p == Point(-1.0, -2.0)
    assert np.array_equal(np.asarray(p), [1.0, 2.0])


def test_canonical_triangle_validates_parameters():
    with pytest.raises(ValueError, match="a must be finite and positive"):
        CanonicalTriangle(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="b must be finite and positive"):
        CanonicalTriangle(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="c must be finite and positive"):
        CanonicalTriangle(1.0, 1.0, float("nan"))


@pytest.mark.parametrize(
    "big", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_int_beyond_the_doubles_is_rejected_by_name(big, position):
    # float(10**400) raises OverflowError; the constructors name the field,
    # and do not print the int (repr refuses one of 5000 digits)
    abc = [1.0, 1.0, 1.0]
    abc[position] = big
    name = "abc"[position]
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        CanonicalTriangle(*abc)
    verts = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    verts[position] = (big, 0.0) if position != 1 else (0.0, big)
    with pytest.raises(ValueError, match=f"^vertex v{position + 1} must be finite"):
        GeneralTriangle(*verts)
    with pytest.raises(ValueError, match="^translation must be finite"):
        Isometry(0.0, (0.0, big) if position else (big, 0.0), 0)


def test_isometry_keeps_a_point_of_floats_and_coerces_the_rest():
    iso = Isometry(0.0, Point(1, 2), 0)
    assert type(iso.translation) is Point
    assert type(iso.translation.x) is float and type(iso.translation.y) is float
    assert iso.translation == (1.0, 2.0)
    exact = Point(1.0, 2.0)
    assert Isometry(0.0, exact, 0).translation is exact
    assert Isometry(0.0, (1, 2), 0) == Isometry(0.0, exact, 0)


@pytest.mark.parametrize(
    "angle, translation, apex_index, field",
    [
        ("x", (1, 1), 0, "^angle must be a finite number"),
        (None, (1, 1), 0, "^angle must be a finite number"),
        (math.nan, (1, 1), 0, "^angle must be finite"),
        (math.inf, (1, 1), 0, "^angle must be finite"),
        (10**400, (1, 1), 0, "^angle must be finite"),
        (0.5, (math.nan, 0.0), 0, "^translation must be finite"),
        (0.5, Point(0.0, math.inf), 0, "^translation must be finite"),
        (0.5, (1, 1), None, "^apex_index must be 0, 1 or 2"),
        (0.5, (1, 1), 3, "^apex_index must be 0, 1 or 2"),
        (0.5, (1, 1), -1, "^apex_index must be 0, 1 or 2"),
        (0.5, (1, 1), 1.0, "^apex_index must be 0, 1 or 2"),
        (0.5, (1, 1), True, "^apex_index must be 0, 1 or 2"),
    ],
    ids=[
        "angle-str", "angle-none", "angle-nan", "angle-inf", "angle-1e400",
        "translation-nan", "translation-inf", "apex-none", "apex-3", "apex--1",
        "apex-float", "apex-bool",
    ],
)
def test_isometry_rejects_each_bad_field_by_name(angle, translation, apex_index, field):
    with pytest.raises(ValueError, match=field):
        Isometry(angle, translation, apex_index)


def test_isometry_keeps_its_fields_as_floats_and_int():
    iso = Isometry(1, (1, 2), 2)
    assert type(iso.angle) is float and iso.angle == 1.0
    assert iso.apex_index == 2
    assert Isometry(1, (1, 2), 2) == Isometry(1.0, Point(1.0, 2.0), 2)


def test_points_from_every_constructor_behave_as_point_x_y():
    # canonicalize, the closed form and Point arithmetic build their points
    # without Point.__new__; they must equal, hash and print as Point(x, y)
    tri, iso = canonicalize(GeneralTriangle((0, 3), (-1, 0), (2, 0)))
    built = [
        iso.translation,
        iso.to_original((0.5, 0.25)),
        Point(1.0, 2.0) + (0.5, 0.0),
        incenter(tri),
        GeneralTriangle((0.5, 0.25), (1, 0), (0, 1)).v1,
    ]
    for point in built:
        plain = Point(point[0], point[1])
        assert type(point) is Point
        assert point == plain and hash(point) == hash(plain)
        assert repr(point) == repr(plain) == f"Point(x={point.x!r}, y={point.y!r})"
        assert point._asdict() == plain._asdict()


# side distances -------------------------------------------------------------

def side_distances(tri, point):
    return [abs(s) for s in side_slacks(tri.a, tri.b, tri.c, *point)]


def test_side_distances_at_vertices():
    d1, d2, d3 = side_distances(WORKED, (0.0, 3.0))
    assert d1 == pytest.approx(0.0, abs=1e-15)
    assert d2 == pytest.approx(0.0, abs=1e-15)
    assert d3 == pytest.approx(3.0)

    d1, d2, d3 = side_distances(WORKED, (-1.0, 0.0))
    assert d1 == pytest.approx(0.0, abs=1e-15)
    assert d3 == pytest.approx(0.0, abs=1e-15)
    # distance from B to line AC: altitude h_b = a(b+c) / q
    assert d2 == pytest.approx(9.0 / np.sqrt(13.0), rel=1e-14)


def test_side_distances_match_direct_line_formulas():
    rng = np.random.default_rng(3)
    a, b, c = WORKED.a, WORKED.b, WORKED.c
    p, q = math.hypot(a, b), math.hypot(a, c)
    for _ in range(50):
        x = rng.uniform(-2.0, 3.0)
        y = rng.uniform(-1.0, 4.0)
        d1, d2, d3 = side_distances(WORKED, (x, y))
        assert d1 == pytest.approx(abs(a * x - b * y + a * b) / p, rel=1e-14)
        assert d2 == pytest.approx(abs(-a * x - c * y + a * c) / q, rel=1e-14)
        assert d3 == pytest.approx(abs(y), rel=1e-14)


# projection -----------------------------------------------------------------

def project_to_triangle(tri, point):
    return _projector(tri.a, tri.b, tri.c)(float(point[0]), float(point[1]))


@pytest.mark.parametrize(
    "point,expected",
    [
        ([0.0, -2.0], [0.0, 0.0]),
        ([-3.0, 0.5], [-1.0, 0.0]),  # snaps to vertex B
        ([0.5, 0.1], [0.5, 0.1]),  # interior points are fixed
    ],
)
def test_project_known_points(point, expected):
    got = project_to_triangle(WORKED, np.array(point, float))
    assert np.allclose(got, expected, atol=1e-14)


def test_project_is_idempotent_and_feasible():
    rng = np.random.default_rng(5)
    for v in random_vertices(rng, 10):
        tri, _ = canonicalize(GeneralTriangle(v[0], v[1], v[2]))
        diam = tri.diameter()
        for _ in range(40):
            pt = rng.uniform(-3.0 * diam, 3.0 * diam, size=2)
            pr = project_to_triangle(tri, pt)
            assert contains(tri, pr)
            again = project_to_triangle(tri, pr)
            assert np.array_equal(pr, again)


def test_project_is_nearest_among_dense_boundary_samples():
    # exterior points only: the projection must beat every sampled
    # boundary point up to sampling resolution
    tri = WORKED
    verts = tri.vertices()
    edges = [(verts[0], verts[1]), (verts[0], verts[2]), (verts[1], verts[2])]
    ws = np.linspace(0.0, 1.0, 2001)
    samples = np.vstack([(1 - ws)[:, None] * e0 + ws[:, None] * e1 for e0, e1 in edges])
    rng = np.random.default_rng(17)
    for _ in range(60):
        pt = rng.uniform(-6.0, 6.0, size=2)
        if contains(tri, pt):
            continue
        pr = project_to_triangle(tri, pt)
        best = np.min(np.linalg.norm(samples - pt, axis=1))
        assert np.linalg.norm(pr - pt) <= best + 1e-6


# incenter and altitudes -----------------------------------------------------

def test_incenter_is_equidistant_from_all_sides():
    rng = np.random.default_rng(23)
    for v in random_vertices(rng, 25):
        tri, _ = canonicalize(GeneralTriangle(v[0], v[1], v[2]))
        d1, d2, d3 = side_distances(tri, incenter(tri))
        assert abs(d1 - d2) < 1e-12 * tri.a
        assert abs(d1 - d3) < 1e-12 * tri.a


def test_incenter_matches_area_over_semiperimeter():
    # inradius = area / s with s the semiperimeter
    tri = WORKED
    inc = incenter(tri)
    area = 0.5 * tri.a * (tri.b + tri.c)
    s = 0.5 * (math.hypot(tri.a, tri.b) + math.hypot(tri.a, tri.c) + tri.b + tri.c)
    assert side_distances(tri, inc)[2] == pytest.approx(area / s, rel=1e-13)
    assert inc[1] == pytest.approx(area / s, rel=1e-13)


def test_frame_and_incenter_where_the_perimeter_overflows():
    # the perimeter of (1, 1, 1e308) is 2e308, beyond the doubles, so the
    # frame read its inradius, 0.5, as 0 and refused the triangle, and the
    # incenter came out (0, 0), a point on the base
    tri = CanonicalTriangle(1.0, 1.0, 1e308)
    unit, *_ = _frame(tri.a, tri.b, tri.c)
    assert unit == 1.0
    x, y = incenter(tri)
    assert math.isfinite(x) and math.isfinite(y)
    for slack in side_slacks(tri.a, tri.b, tri.c, x, y):
        assert slack == pytest.approx(0.5, rel=1e-12)


def test_incenter_worked_values():
    inc = incenter(WORKED)
    denom = np.sqrt(10.0) + np.sqrt(13.0) + 3.0
    assert inc[0] == pytest.approx((2.0 * np.sqrt(10.0) - np.sqrt(13.0)) / denom, rel=1e-14)
    assert inc[1] == pytest.approx(9.0 / denom, rel=1e-14)
    assert inc[1] == pytest.approx(0.9213920574682279, rel=1e-12)


def test_altitudes_worked_values():
    h = altitudes(WORKED)
    assert h.h_a == pytest.approx(3.0, rel=1e-14)
    assert h.h_b == pytest.approx(9.0 / np.sqrt(13.0), rel=1e-14)
    assert h.h_c == pytest.approx(9.0 / np.sqrt(10.0), rel=1e-14)


def test_altitudes_satisfy_area_identity():
    # every altitude times its side length equals twice the area
    rng = np.random.default_rng(31)
    for v in random_vertices(rng, 25):
        tri, _ = canonicalize(GeneralTriangle(v[0], v[1], v[2]))
        h = altitudes(tri)
        area2 = tri.a * (tri.b + tri.c)
        assert h.h_a * (tri.b + tri.c) == pytest.approx(area2, rel=1e-12)
        assert h.h_b * math.hypot(tri.a, tri.c) == pytest.approx(area2, rel=1e-12)
        assert h.h_c * math.hypot(tri.a, tri.b) == pytest.approx(area2, rel=1e-12)


@pytest.mark.parametrize(
    "abc, want",
    [
        # base / q underflowed: the least altitude, from B, read 0
        ((1e300, 1e-300, 1e-300), (1e300, 2e-300, 2e-300)),
        # base / q overflowed: the altitude from B, about 7.1e299, read inf
        ((1e-300, 1e300, 1e-300), (1e-300, 1e300 / math.sqrt(2.0), 1e-300)),
    ],
)
def test_altitudes_are_normal_where_base_over_side_leaves_the_doubles(abc, want):
    h = altitudes(CanonicalTriangle(*abc))
    assert h == pytest.approx(want, rel=1e-15, abs=0.0)
