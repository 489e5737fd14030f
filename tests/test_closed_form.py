import math

import numpy as np
import pytest

from tripowmin.closed_form import minimize_closed_form
from tripowmin.errors import InvalidExponent
from tripowmin.geometry import (
    CanonicalTriangle,
    GeneralTriangle,
    altitudes,
    canonicalize,
    incenter,
)
from tripowmin.kkt import Verdict, evaluate_F, kkt_residual
from tripowmin.sampling import random_general_triangle
from triangle_helpers import random_canonical_triangle, side_slacks, to_canonical

WORKED = CanonicalTriangle(3.0, 1.0, 2.0)

# reference values computed independently at 40 digits: for each n the
# gradient system was solved by a root finder started away from the
# closed-form answer, and both agreed to all printed digits
WORKED_REFERENCE = {
    1.5: (0.15520541675611187, 0.76780931442096915, 2.6287418720347425),
    2.0: (7.0 / 32.0, 27.0 / 32.0, 81.0 / 32.0),
    3.0: (0.24909592911953662, 0.88240426243793735, 2.3359118471059207),
    3.5: (0.25503851923228845, 0.89017809623148698, 2.2429186091882717),
    5.0: (0.26386990534396315, 0.90186224458661802, 1.9846415482106088),
    10.0: (0.27195705657999725, 0.91270401176408267, 1.3185326544409701),
}


@pytest.mark.parametrize("n", sorted(WORKED_REFERENCE))
def test_minimizer_matches_reference_values(n):
    x, y, value = WORKED_REFERENCE[n]
    res = minimize_closed_form(WORKED, n)
    assert res.point_canonical[0] == pytest.approx(x, rel=1e-14, abs=1e-15)
    assert res.point_canonical[1] == pytest.approx(y, rel=1e-14)
    assert res.value == pytest.approx(value, rel=1e-14)


def test_isosceles_n2_exact_fractions():
    res = minimize_closed_form(CanonicalTriangle(2.0, 1.0, 1.0), 2.0)
    assert res.point_canonical[0] == 0.0
    assert res.point_canonical[1] == pytest.approx(4.0 / 7.0, rel=1e-15)
    assert res.value == pytest.approx(8.0 / 7.0, rel=1e-15)


def test_derived_constants_structure_at_half_power():
    # at n = 1.5 the 1/(n-1) power is a plain square
    k = minimize_closed_form(WORKED, 1.5).constants
    assert k.t == pytest.approx(10.0 / 13.0, rel=1e-15)
    assert k.r == pytest.approx(9.0 / 13.0, rel=1e-15)
    assert k.p == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert k.q == pytest.approx(math.sqrt(13.0), rel=1e-15)


def test_constants_satisfy_power_sum_identity():
    # t^n + r^n + 1 = lambda / q, for any triangle and exponent
    rng = np.random.default_rng(2)
    ns = [1.01, 1.5, 2.0, 3.0, 4.5, 8.0, 16.0, 50.0]
    for _ in range(30):
        tri = random_canonical_triangle(rng)
        for n in ns:
            k = minimize_closed_form(tri, n).constants
            assert k.t**n + k.r**n + 1.0 == pytest.approx(k.lam / k.q, rel=1e-13)


def test_value_groupings_agree():
    # two algebraic forms of the minimum and a direct evaluation
    rng = np.random.default_rng(4)
    for _ in range(30):
        tri = random_canonical_triangle(rng)
        for n in (1.2, 2.0, 3.0, 7.0, 20.0):
            res = minimize_closed_form(tri, n)
            k = res.constants
            s = tri.a * (tri.b + tri.c)
            alt = s**n / (k.lam ** (n - 1.0) * k.q)
            assert res.value == pytest.approx(alt, rel=1e-12)
            direct = evaluate_F(tri, n, res.point_canonical)
            assert res.value == pytest.approx(direct, rel=1e-12)


def test_minimizer_side_distances_have_ratio_structure():
    # d1 = t * d2, d3 = r * d2, d2 = a(b+c)/lambda
    rng = np.random.default_rng(6)
    for _ in range(30):
        tri = random_canonical_triangle(rng)
        for n in (1.5, 2.0, 5.0, 12.0):
            res = minimize_closed_form(tri, n)
            k = res.constants
            d1, d2, d3 = side_slacks(tri.a, tri.b, tri.c, *res.point_canonical)
            base = tri.a * (tri.b + tri.c) / k.lam
            assert d2 == pytest.approx(base, rel=1e-11)
            assert d1 == pytest.approx(k.t * base, rel=1e-11)
            assert d3 == pytest.approx(k.r * base, rel=1e-11)


def test_minimizer_is_strictly_interior():
    rng = np.random.default_rng(8)
    for _ in range(40):
        tri = random_canonical_triangle(rng)
        for n in (1.1, 2.0, 10.0, 100.0):
            res = minimize_closed_form(tri, n)
            assert min(side_slacks(tri.a, tri.b, tri.c, *res.point_canonical)) > 0.0


def test_minimum_dominates_other_points():
    rng = np.random.default_rng(10)
    for _ in range(15):
        tri = random_canonical_triangle(rng)
        verts = tri.vertices()
        for n in (1.5, 2.0, 4.0):
            res = minimize_closed_form(tri, n)
            vv = [evaluate_F(tri, n, v) for v in verts]
            assert res.value <= min(vv) + 1e-12 * abs(min(vv))
            assert res.value <= evaluate_F(tri, n, incenter(tri)) * (1 + 1e-12)
            for _ in range(25):
                w = rng.dirichlet([1.0, 1.0, 1.0])
                pt = w @ verts
                assert res.value <= evaluate_F(tri, n, pt) * (1 + 1e-12)


def test_reflection_equivariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        tri = random_canonical_triangle(rng)
        mirror = CanonicalTriangle(tri.a, tri.c, tri.b)
        for n in (1.5, 2.0, 6.0):
            res = minimize_closed_form(tri, n)
            ref = minimize_closed_form(mirror, n)
            assert ref.point_canonical[0] == pytest.approx(
                -res.point_canonical[0], abs=1e-12 * tri.diameter()
            )
            assert ref.point_canonical[1] == pytest.approx(
                res.point_canonical[1], rel=1e-12
            )
            assert ref.value == pytest.approx(res.value, rel=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(14)
    for _ in range(20):
        tri = random_canonical_triangle(rng)
        s = float(10.0 ** rng.uniform(-2.0, 2.0))
        scaled = CanonicalTriangle(s * tri.a, s * tri.b, s * tri.c)
        for n in (1.5, 2.0, 6.0):
            res = minimize_closed_form(tri, n)
            big = minimize_closed_form(scaled, n)
            assert np.allclose(
                big.point_canonical, s * res.point_canonical,
                rtol=1e-11, atol=1e-11 * s * tri.diameter(),
            )
            assert big.value == pytest.approx(s**n * res.value, rel=1e-11)


def test_point_original_uses_the_supplied_isometry():
    g = GeneralTriangle(
        np.array([0.0, 3.0]), np.array([-1.0, 0.0]), np.array([2.0, 0.0])
    )
    tri, iso = canonicalize(g)
    res = minimize_closed_form(tri, 2.0, isometry=iso)
    back = to_canonical(iso, res.point_original)
    assert np.allclose(back, res.point_canonical, atol=1e-13)
    # same triangle already in frame position: original equals canonical
    plain = minimize_closed_form(WORKED, 2.0)
    assert np.array_equal(plain.point_original, plain.point_canonical)


def test_n1_gives_the_smallest_altitude_vertex():
    res = minimize_closed_form(WORKED, 1.0)
    assert res.point_canonical == (-1.0, 0.0)
    assert res.value == altitudes(WORKED).h_b
    assert res.value == pytest.approx(9.0 / math.sqrt(13.0), rel=1e-14)
    # the n -> 1+ limits: only AC, the longest side, keeps a distance
    assert res.constants[2:4] == (0.0, 0.0)


def test_n1_on_the_equilateral_gives_the_incenter():
    # every altitude is equal and F is constant: all three sides weigh 1
    tri = CanonicalTriangle(math.sqrt(3.0), 1.0, 1.0)
    res = minimize_closed_form(tri, 1.0)
    assert res.point_canonical == incenter(tri)
    assert res.value == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert kkt_residual(tri, 1.0, res.point_canonical).verdict is Verdict.SATISFIED


def test_n1_tie_gives_the_bisector_foot_on_the_minimizing_base():
    # AB and AC tie for longest, so B and C tie for the smallest altitude
    # and all of BC minimizes: the point is the foot of the apex's bisector
    tri = CanonicalTriangle(2.0, 1.0, 1.0)
    res = minimize_closed_form(tri, 1.0)
    assert res.point_canonical == (0.0, 0.0)
    assert res.value == altitudes(tri).h_b == altitudes(tri).h_c
    assert res.constants[2:4] == (1.0, 0.0)
    assert kkt_residual(tri, 1.0, res.point_canonical).verdict is Verdict.SATISFIED


@pytest.mark.parametrize("s", [1e-200, 1e-160, 1e160, 1e200])
def test_n1_at_the_ends_of_the_scale(s):
    # the altitudes were a * base / side, and a * base left the doubles:
    # at 1e-200 the value read 0, at 1e-160 it was wrong in the fifth
    # digit, and at 1e200 vertex A won against infinite altitudes
    res = minimize_closed_form(CanonicalTriangle(3.0 * s, s, 2.0 * s), 1.0)
    assert res.point_canonical == (-s, 0.0)
    assert res.value == pytest.approx(s * 2.4961508830135313, rel=1e-15, abs=0.0)


def test_n1_value_is_the_least_altitude_where_base_over_side_underflows():
    # base / side is 2e-600, below the doubles: the altitude is read as
    # base * (a / side), not as a * 0
    tri = CanonicalTriangle(1e300, 1e-300, 1e-300)
    res = minimize_closed_form(tri, 1.0)
    assert res.value == min(altitudes(tri)) == 2e-300
    assert res.point_canonical == (0.0, 0.0)


def test_n1_agrees_with_dense_evaluation():
    rng = np.random.default_rng(16)
    for _ in range(10):
        tri = random_canonical_triangle(rng)
        res = minimize_closed_form(tri, 1.0)
        assert res.value == min(altitudes(tri))
        assert res.point_canonical in tri.vertices()
        verts = tri.vertices()
        for _ in range(200):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            pt = w @ verts
            assert res.value <= evaluate_F(tri, 1.0, pt) + 1e-12


@pytest.mark.parametrize(
    "bad", [math.nextafter(1.0, 0.0), 0.5, 0.0, -3.0, float("inf"), float("nan")]
)
def test_invalid_exponents_raise(bad):
    with pytest.raises(InvalidExponent):
        minimize_closed_form(WORKED, bad)


def test_minimizers_approach_incenter_as_n_grows():
    rng = np.random.default_rng(20)
    for _ in range(10):
        tri = random_canonical_triangle(rng)
        inc = incenter(tri)
        dists = []
        for k in range(6, 15):
            pt = minimize_closed_form(tri, float(2**k)).point_canonical
            dists.append(float(np.hypot(*(pt - inc))))
        for prev, nxt in zip(dists, dists[1:]):
            assert nxt <= 0.7 * prev or prev == 0.0
        assert dists[-1] <= 1e-3 * tri.diameter()


def test_value_overflow_reports_infinity_with_finite_point():
    big = CanonicalTriangle(300.0, 100.0, 100.0)
    res = minimize_closed_form(big, float(2**14))
    assert math.isinf(res.value)
    assert np.all(np.isfinite(res.point_canonical))
    assert min(side_slacks(big.a, big.b, big.c, *res.point_canonical)) > 0.0


@pytest.mark.parametrize(
    "abc", [(1.0, 1e308, 1e308), (1e308, 1e308, 1e308), (1.5e308, 1.5e308, 1.0)]
)
@pytest.mark.parametrize("n", [1.0, 1.01, 2.0, 10.0])
def test_minimizer_where_a_side_overflows_is_twice_the_half_triangles(abc, n):
    # b + c or a hypot leaves the doubles: the ratios come from the half
    # triangle, whose sides are doubles, and halving is exact
    res = minimize_closed_form(CanonicalTriangle(*abc), n)
    half = minimize_closed_form(CanonicalTriangle(*(0.5 * v for v in abc)), n)
    assert res.point_canonical == 2.0 * half.point_canonical
    assert res.constants[2:4] == half.constants[2:4]


def test_constants_where_the_base_overflows_are_the_points_ratios():
    # b + c = inf; t = d1/d2 and r = d3/d2 come from the half triangle's
    # sides, as the point does, and not from inf / q
    tri = CanonicalTriangle(1.0, 1e308, 1e308)
    res = minimize_closed_form(tri, 2.0)
    p, q, t, r, lam = res.constants
    assert (p, q, t, r, lam) == (1e308, 1e308, 1.0, 2.0, math.inf)
    s1, s2, s3 = side_slacks(0.5, 5e307, 5e307, *(0.5 * res.point_canonical))
    assert s1 / s2 == pytest.approx(t, rel=1e-15)
    assert s3 / s2 == pytest.approx(r, rel=1e-15)


# the trilinear form over the whole double range ------------------------------

def draw_exponent(rng):
    """n with n - 1 log-uniform in [1e-12, 1e6]."""
    return 1.0 + 10.0 ** rng.uniform(-12.0, 6.0)


def barycentric_minimizer(verts, n):
    """Minimizer from the vertices alone: the barycentric weight of the
    vertex opposite side i is proportional to L_i^(n/(n-1)), taken relative
    to the longest side so no power overflows."""
    lengths = [math.dist(verts[(i + 1) % 3], verts[(i + 2) % 3]) for i in range(3)]
    rel = [length / max(lengths) for length in lengths]
    weights = [r * r ** (1.0 / (n - 1.0)) for r in rel]
    total = sum(weights)
    return [sum(w * v[k] for w, v in zip(weights, verts)) / total for k in (0, 1)]


def test_minimizer_matches_barycentric_reference_at_any_scale():
    rng = np.random.default_rng(30)
    for _ in range(200):
        s = 10.0 ** rng.uniform(-150.0, 150.0)
        g = random_general_triangle(rng)
        verts = [tuple(s * v) for v in (g.v1, g.v2, g.v3)]
        tri, iso = canonicalize(GeneralTriangle(*verts))
        n = draw_exponent(rng)
        res = minimize_closed_form(tri, n, isometry=iso)
        gap = math.dist(res.point_original, barycentric_minimizer(verts, n))
        assert gap <= 1e-12 * tri.diameter(), (s, n)


def test_minimizer_is_exactly_equivariant_under_power_of_two_scaling():
    rng = np.random.default_rng(31)
    for _ in range(200):
        s = 10.0 ** rng.uniform(-150.0, 150.0)
        tri = random_canonical_triangle(rng)
        tri = CanonicalTriangle(s * tri.a, s * tri.b, s * tri.c)
        k = int(rng.integers(-100, 101))
        scaled = CanonicalTriangle(*(math.ldexp(v, k) for v in (tri.a, tri.b, tri.c)))
        n = draw_exponent(rng)
        res = minimize_closed_form(tri, n)
        big = minimize_closed_form(scaled, n)
        assert list(big.point_canonical) == [
            math.ldexp(v, k) for v in res.point_canonical
        ], (s, k, n)

