import math

import numpy as np
import pytest

from tripowmin.closed_form import minimize_closed_form
from tripowmin.errors import InvalidExponent, PointNotFeasible, PointNotInterior
from tripowmin.geometry import CanonicalTriangle, altitudes, incenter
from tripowmin.kkt import Verdict, evaluate_F, kkt_residual
from tripowmin.oracle import projected_gradient
from digest import EXPONENTS, certificate_points
from triangle_helpers import (
    kernel_gradient, random_canonical_triangle, seeded_triangles, side_slacks,
)

WORKED = CanonicalTriangle(3.0, 1.0, 2.0)


def interior_points(tri, rng, count):
    verts = tri.vertices()
    # Dirichlet weights bounded away from the boundary
    ws = 0.9 * rng.dirichlet([1.0, 1.0, 1.0], size=count) + 0.1 / 3.0
    return ws @ verts


def reference_hessian(tri, n, point):
    """fxx, fyy and fxy of F at an interior point, from the Hessian
    n (n-1) sum_i d_i^(n-2) u_i u_i^T over the unit normals u_i."""
    a, b, c = tri.a, tri.b, tri.c
    u = np.array([[a, -b], [-a, -c], [0.0, 1.0]])
    u /= np.hypot(u[:, 0], u[:, 1])[:, None]
    d = np.array(side_slacks(a, b, c, float(point[0]), float(point[1])))
    hess = n * (n - 1.0) * (d ** (n - 2.0) * u.T) @ u
    return hess[0, 0], hess[1, 1], hess[0, 1]


# evaluate_F -----------------------------------------------------------------

def test_evaluate_at_reference_points():
    assert evaluate_F(WORKED, 2.0, np.array([7.0 / 32.0, 27.0 / 32.0])) == pytest.approx(
        81.0 / 32.0, rel=1e-14
    )
    assert evaluate_F(WORKED, 2.0, np.array([0.0, 3.0])) == pytest.approx(9.0, rel=1e-14)
    # at the incenter all three distances equal the inradius
    inc = incenter(WORKED)
    assert evaluate_F(WORKED, 1.0, inc) == pytest.approx(2.7641761724046843, rel=1e-13)
    assert evaluate_F(WORKED, 1.0, inc) == pytest.approx(3.0 * inc[1], rel=1e-13)


def test_evaluate_allows_exterior_points():
    # powered distances are defined everywhere
    v = evaluate_F(WORKED, 2.0, np.array([0.0, -1.0]))
    assert v > 0.0 and math.isfinite(v)


def test_evaluate_rejects_subunit_exponent():
    with pytest.raises(InvalidExponent):
        evaluate_F(WORKED, 0.5, np.array([0.0, 1.0]))


# gradient, as the certificate reads it from the kernel ---------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(8):
        tri = random_canonical_triangle(rng)
        h = 1e-6 * tri.diameter()
        for n in (1.5, 2.0, 3.0, 7.5):
            for pt in interior_points(tri, rng, 6):
                g = kernel_gradient(tri, n, pt)
                fd = np.array(
                    [
                        (evaluate_F(tri, n, pt + e) - evaluate_F(tri, n, pt - e)) / (2 * h)
                        for e in (np.array([h, 0.0]), np.array([0.0, h]))
                    ]
                )
                # compare against the whole gradient's scale: a single
                # component can pass through zero at a regular point
                scale = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(g - fd) < 1e-5 * scale


def test_gradient_vanishes_at_closed_form_minimizer():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tri = random_canonical_triangle(rng)
        for n in (2.0, 5.0):
            res = minimize_closed_form(tri, n)
            g = kernel_gradient(tri, n, res.point_canonical)
            # gradient scale at distance ~a from the minimizer
            ref = n * evaluate_F(tri, n, res.point_canonical) / tri.a
            assert np.linalg.norm(g) < 1e-9 * max(ref, 1e-300)


@pytest.mark.parametrize(
    "scale", [1e160, 1e-160], ids=["slacks-overflow", "subnormal-products"]
)
def test_gradient_and_hessian_answer_at_the_ends_of_the_scale(scale):
    # in raw units the slanted sides' slacks were NaN at 3e160, and their
    # products subnormal at 1e-160, so both refused; in ratio units each
    # is the unit-scale answer times scale^(n-1), or scale^(n-2)
    tri = CanonicalTriangle(3.0 * scale, scale, 2.0 * scale)
    point = (0.1 * scale, scale)
    for n in (1.5, 2.0):
        g = kernel_gradient(tri, n, point)
        want = kernel_gradient(WORKED, n, (0.1, 1.0))
        assert g == pytest.approx(scale ** (n - 1.0) * np.asarray(want), rel=1e-13)
        h, unit = kkt_residual(tri, n, point), kkt_residual(WORKED, n, (0.1, 1.0))
        k = scale ** (n - 2.0)
        assert h.hessian_fxx == pytest.approx(k * unit.hessian_fxx, rel=1e-13)
        assert h.hessian_det == pytest.approx(k * k * unit.hessian_det, rel=1e-13)


def test_kkt_judges_a_subnormal_gradient_scale_in_ratio_units():
    # n * max d_i^(n-1) = 3.6e-321 here: judged against it, a residual of
    # 1.5e-323 read as stationarity_failed at the exact minimizer, and the
    # certificate then refused; in ratio units the scale never enters
    tri = CanonicalTriangle(1e-80, 2e-80, 3e-80)
    point = minimize_closed_form(tri, 5.0).point_canonical
    rep = kkt_residual(tri, 5.0, point)
    assert rep.verdict is Verdict.SATISFIED
    assert rep.multipliers == (0.0, 0.0, 0.0)
    # (1e-80)^5 underflows: the value and the residual in raw units read 0
    assert evaluate_F(tri, 5.0, point) == 0.0
    assert rep.stationarity_residual < 1e-320


def test_a_power_beyond_the_doubles_reads_inf():
    # float ** raised OverflowError(34, 'Numerical result out of range');
    # F reads inf, and the certificate answers with its fields at +-inf
    tri = CanonicalTriangle(1e50, 1e50, 1e50)
    point = minimize_closed_form(tri, 7.5).point_canonical
    assert evaluate_F(tri, 7.5, point) == math.inf
    rep = kkt_residual(tri, 7.5, point)
    assert rep.verdict is Verdict.SATISFIED
    assert rep.multipliers == (0.0, 0.0, 0.0)
    # the band admits the point, so the residual is an exact 0 and stays 0
    assert rep.stationarity_residual == 0.0 and rep.hessian_det == math.inf
    # the Hessian's scale n max d^(n-2) leaves the doubles
    assert kkt_residual(tri, 12.5, point).hessian_fxx == math.inf
    # so does the weight (n-1) r_3^(n-2) of a slack of 1e-320
    assert kkt_residual(WORKED, 1.01, (0.1, 1e-320)).hessian_det == math.inf


# the Hessian fields of kkt_residual's report -------------------------------

def test_hessian_quadratic_case_is_constant():
    # n = 2 makes every weight 1, so the entries depend only on the frame
    h = kkt_residual(WORKED, 2.0, np.array([7.0 / 32.0, 27.0 / 32.0]))
    assert h.hessian_fxx == pytest.approx(18.0 * (1.0 / 10.0 + 1.0 / 13.0), rel=1e-14)
    h2 = kkt_residual(WORKED, 2.0, np.array([0.1, 1.7]))
    assert h2.hessian_fxx == pytest.approx(h.hessian_fxx, rel=1e-14)
    assert h2.hessian_det == pytest.approx(h.hessian_det, rel=1e-14)


def test_hessian_determinant_grouping_matches_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tri = random_canonical_triangle(rng)
        for n in (1.5, 2.0, 3.0, 6.0):
            for pt in interior_points(tri, rng, 5):
                rep = kkt_residual(tri, n, pt)
                fxx, fyy, fxy = reference_hessian(tri, n, pt)
                assert rep.hessian_fxx == pytest.approx(fxx, rel=1e-12)
                assert rep.hessian_det == pytest.approx(fxx * fyy - fxy**2, rel=1e-10)


def test_hessian_positive_definite_at_minimizers():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tri = random_canonical_triangle(rng)
        for n in (1.5, 2.0, 4.0, 9.0):
            res = minimize_closed_form(tri, n)
            rep = kkt_residual(tri, n, res.point_canonical)
            assert rep.hessian_fxx > 0.0
            assert rep.hessian_det > 0.0


# kkt_residual ---------------------------------------------------------------

# so flat that the squared side lengths overflow, and that a band of
# 8 eps * diameter, 3.6e145, would hold all three sides of a point inside
FLAT = CanonicalTriangle(1.0, 1e160, 1e160)


def test_report_at_closed_form_minimizer_is_clean():
    rng = np.random.default_rng(9)
    cases = [
        (random_canonical_triangle(rng), n)
        for _ in range(20)
        for n in (1.5, 2.0, 5.0, 10.0)
    ]
    cases += [(FLAT, 2.0), (FLAT, 5.0)]
    for tri, n in cases:
        res = minimize_closed_form(tri, n)
        rep = kkt_residual(tri, n, res.point_canonical)
        assert rep.verdict is Verdict.SATISFIED
        assert rep.active_set == ()
        assert np.all(np.asarray(rep.multipliers) == 0.0)
        assert rep.stationarity_residual < 1e-9
        assert rep.complementary_slackness_residual < 1e-9
        assert rep.hessian_fxx > 0.0 and rep.hessian_det > 0.0
        assert math.isfinite(rep.hessian_det)


def test_base_point_flags_negative_multiplier():
    # slacks (3/sqrt(10), 6/sqrt(13), 0); mu is AC's, n s_AC / L_AC = 12/13,
    # and nu_i = n s_i - mu L_i
    rep = kkt_residual(WORKED, 2.0, np.array([0.0, 0.0]))
    assert rep.active_set == ("BC",)
    assert rep.multipliers[2] == pytest.approx(-36.0 / 13.0, rel=1e-13)
    assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE
    # second-order fields are undefined on the boundary
    assert math.isnan(rep.hessian_fxx) and math.isnan(rep.hessian_det)


def test_edge_midpoint_flags_negative_multiplier():
    rep = kkt_residual(WORKED, 2.0, np.array([1.0, 1.5]))
    assert rep.active_set == ("AC",)
    # slacks (4.5/sqrt(10), 0, 1.5); mu is BC's, n s_BC / L_BC = 1, and
    # nu_i = n s_i - mu L_i
    assert rep.multipliers[1] == pytest.approx(-math.sqrt(13.0), rel=1e-13)
    assert rep.multipliers[0] == pytest.approx(-1.0 / math.sqrt(10.0), rel=1e-13)
    assert rep.multipliers[2] == 0.0
    assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE


def test_negative_multiplier_outranks_stationarity():
    # at the base AB, off the active set, falls short of mu as well, but
    # the verdict reports the sign failure, which is the stronger diagnosis
    rep = kkt_residual(WORKED, 2.0, np.array([0.0, 0.0]))
    # nu_AB = n s_AB - mu L_AB = 6/sqrt(10) - 12 sqrt(10)/13
    assert rep.stationarity_residual == pytest.approx(42.0 / (13.0 * math.sqrt(10.0)),
                                                      rel=1e-13)
    assert rep.multipliers[0] == -rep.stationarity_residual
    assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE


def test_vertices_have_two_active_independent_constraints():
    rng = np.random.default_rng(11)
    for _ in range(15):
        tri = random_canonical_triangle(rng)
        labels = [("AB", "AC"), ("AB", "BC"), ("AC", "BC")]
        for vert, expect in zip(tri.vertices(), labels):
            rep = kkt_residual(tri, 2.0, vert)
            assert rep.active_set == expect
            # the one side off the active set sets mu, so it leaves no
            # stationarity residual, and both active slacks are exact zeros
            assert rep.stationarity_residual == 0.0
            assert rep.complementary_slackness_residual == 0.0
            assert all(rep.multipliers[i] < 0.0 for i, side in
                       enumerate(("AB", "AC", "BC")) if side in expect)
            assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE


# extreme shapes and scales that the kernel's frame admits: slivers,
# needles, flat triangles and the ends of the double range
N1_EXTREMES = [
    CanonicalTriangle(*abc) for abc in (
        (3.0, 1.0, 2.0), (1.0, 1.0, 1.0), (1e-300, 1.0, 1.0), (1e-150, 1e150, 1e150),
        (1e300, 1e300, 1e299), (1e-300, 1e-300, 2e-300), (1.0, 1e160, 1e160),
        (1e-160, 1.0, 1.0), (1.0, 1e-200, 1e-200), (1.0, 1.0, 1e308),
        (6.299436429988343e-11, 5.633277347381022e-07, 2.3132742654516685e-06),
    )
]


def test_certificate_at_n1_accepts_the_answer_and_refuses_every_other_vertex():
    # at n = 1 the band test reads: the sides off the active set are
    # longest sides. The closed form's vertex passes it; another vertex
    # passes only where its altitude ties the least one in doubles
    triangles = [tri for _, tri in seeded_triangles(per_class=256)] + N1_EXTREMES
    refused = 0
    for tri in triangles:
        res = minimize_closed_form(tri, 1.0)
        assert kkt_residual(tri, 1.0, res.point_canonical).verdict is Verdict.SATISFIED, tri
        for vertex, altitude in zip(tri.vertices(), altitudes(tri)):
            if altitude != res.value:
                rep = kkt_residual(tri, 1.0, vertex)
                assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE, (tri, vertex)
                refused += 1
    # only the needle (1, 1e-200, 1e-200) and (1, 1, 1e308) tie two vertices
    assert refused == 2 * len(triangles) - 2


def test_interior_non_minimizer_fails_stationarity():
    rep = kkt_residual(WORKED, 2.0, incenter(WORKED))
    assert rep.active_set == ()
    assert rep.verdict is Verdict.STATIONARITY_FAILED
    assert rep.stationarity_residual > 1e-3


def trilinear_point(tri, root):
    """The point whose distances to the sides are proportional to
    L_i^root: the minimizer for root = 1/(n-1)."""
    a, b, c = tri.a, tri.b, tri.c
    lengths = np.array([math.hypot(a, b), math.hypot(a, c), b + c])
    w = (lengths / lengths.max()) ** root
    d = a * (b + c) * w / np.dot(lengths, w)
    # barycentric weight L_i * d_i / (2 * area) on the vertex opposite side i
    return np.array([(c * lengths[0] * d[0] - b * lengths[1] * d[1]) / (a * (b + c)), d[2]])


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [1.5, 2.0, 5.0, 10.0])
def test_verdicts_do_not_depend_on_the_unit(scale, n):
    tri = CanonicalTriangle(3.0 * scale, 1.0 * scale, 2.0 * scale)
    assert kkt_residual(tri, n, trilinear_point(tri, 1.0 / (n - 1.0))).verdict is (
        Verdict.SATISFIED
    )
    mirrored = CanonicalTriangle(tri.a, tri.c, tri.b)
    mutants = {
        "root 1/n": trilinear_point(tri, 1.0 / n),
        "b and c swapped": trilinear_point(mirrored, 1.0 / (n - 1.0)),
    }
    for name, pt in mutants.items():
        assert kkt_residual(tri, n, pt).verdict is not Verdict.SATISFIED, name


def test_tolerance_controls_active_set():
    # the base's band is the point's rounding in y, 8 eps a = 5.33e-15
    # here; the slack to the base is y
    assert kkt_residual(WORKED, 2.0, (0.5, 0.05)).active_set == ()
    assert kkt_residual(WORKED, 2.0, (0.5, 5.4e-15)).active_set == ()
    for y in (5.3e-15, 0.0, -5.3e-15, -2.9e-9):
        rep = kkt_residual(WORKED, 2.0, (0.5, y))
        assert rep.active_set == ("BC",)
        assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE
    # feasibility keeps its tolerance, 1e-9 * a
    with pytest.raises(PointNotFeasible):
        kkt_residual(WORKED, 2.0, (0.5, -3.1e-9))
    # ten times as tall, ten times the band
    tall = CanonicalTriangle(30.0, 1.0, 2.0)
    assert kkt_residual(tall, 2.0, (0.5, 5.3e-14)).active_set == ("BC",)
    assert kkt_residual(tall, 2.0, (0.5, 5.4e-14)).active_set == ()


def test_infeasible_point_raises():
    with pytest.raises(PointNotFeasible):
        kkt_residual(WORKED, 2.0, np.array([0.0, -1e-6]))
    with pytest.raises(PointNotFeasible):
        kkt_residual(WORKED, 2.0, np.array([4.0, 1.0]))


@pytest.mark.parametrize(
    "point", [(math.nan, math.nan), (math.nan, 0.5), (0.1, math.nan)]
)
def test_nan_point_is_not_feasible(point):
    # NaN < -tol is False, and min() skips a NaN that is not first, so
    # such a point was certified SATISFIED with a residual of 0
    with pytest.raises(PointNotFeasible):
        kkt_residual(WORKED, 2.0, point)
    # the kernel's largest slack keeps max()'s rule, a NaN first slack
    # stays and a later one is passed over: F reads NaN, and the descent
    # refuses the point as a start
    assert math.isnan(evaluate_F(WORKED, 2.0, point))
    with pytest.raises(PointNotInterior):
        projected_gradient(WORKED, 2.0, point)


def test_certificate_points_reach_every_verdict_and_active_set():
    # the digest pins kkt_residual's reports at these points, so they must
    # reach both failing verdicts and every active set
    verdicts, active_sets = set(), set()
    for _, tri in seeded_triangles():
        for n in EXPONENTS:
            for point in certificate_points(tri, n):
                report = kkt_residual(tri, n, point)
                verdicts.add(report.verdict)
                active_sets.add(report.active_set)
    assert verdicts == set(Verdict)
    assert len(active_sets) == 7
