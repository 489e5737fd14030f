import math

import numpy as np
import pytest

from tripowmin.closed_form import minimize_closed_form
from tripowmin.errors import InvalidExponent, PointNotFeasible, PointNotInterior
from tripowmin.geometry import CanonicalTriangle, _side_slacks, incenter
from tripowmin.kkt import (
    Verdict,
    evaluate_F,
    gradient,
    hessian,
    kkt_residual,
)
from triangle_helpers import random_canonical_triangle

WORKED = CanonicalTriangle(3.0, 1.0, 2.0)


def interior_points(tri, rng, count):
    verts = tri.vertices()
    # Dirichlet weights bounded away from the boundary
    ws = 0.9 * rng.dirichlet([1.0, 1.0, 1.0], size=count) + 0.1 / 3.0
    return ws @ verts


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


# gradient -------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(8):
        tri = random_canonical_triangle(rng)
        h = 1e-6 * tri.diameter()
        for n in (1.5, 2.0, 3.0, 7.5):
            for pt in interior_points(tri, rng, 6):
                g = gradient(tri, n, pt)
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
            g = gradient(tri, n, res.point_canonical)
            # gradient scale at distance ~a from the minimizer
            ref = n * evaluate_F(tri, n, res.point_canonical) / tri.a
            assert np.linalg.norm(g) < 1e-9 * max(ref, 1e-300)


def test_gradient_requires_strict_interior():
    with pytest.raises(PointNotInterior):
        gradient(WORKED, 2.0, np.array([0.0, 0.0]))
    with pytest.raises(PointNotInterior):
        gradient(WORKED, 2.0, np.array([0.0, 4.0]))


@pytest.mark.parametrize(
    "abc, error",
    [((3e160, 1e160, 2e160), OverflowError), ((1e-160, 1e-160, 1e-160), FloatingPointError)],
    ids=["slacks-overflow", "subnormal-products"],
)
def test_gradient_refuses_slacks_beyond_the_doubles_like_hessian(abc, error):
    # at 3e160 the slanted sides' slacks are NaN, which the clamp s > 0
    # would read as 0, and at 1e-160 their products are subnormal: the
    # gradient refuses both, as hessian and kkt_residual do
    tri = CanonicalTriangle(*abc)
    for f in (gradient, hessian):
        with pytest.raises(error):
            f(tri, 2.0, incenter(tri))


def test_kkt_refuses_a_subnormal_gradient_scale():
    # n * max d_i^(n-1) = 3.6e-321 here: judged against it, a residual of
    # 1.5e-323 read as stationarity_failed at the exact minimizer
    tri = CanonicalTriangle(1e-80, 2e-80, 3e-80)
    point = minimize_closed_form(tri, 5.0).point_canonical
    with pytest.raises(FloatingPointError, match="gradient scale"):
        kkt_residual(tri, 5.0, point)


def test_a_power_beyond_the_doubles_is_named():
    # float ** raised OverflowError(34, 'Numerical result out of range');
    # the Hessian's determinant overflows by multiplication and reads inf
    tri = CanonicalTriangle(1e50, 1e50, 1e50)
    point = minimize_closed_form(tri, 7.5).point_canonical
    for f, power in ((gradient, 6.5), (kkt_residual, 6.5), (evaluate_F, 7.5)):
        with pytest.raises(OverflowError, match=rf"to the power {power} is beyond"):
            f(tri, 7.5, point)
    assert hessian(tri, 7.5, point).det == math.inf
    with pytest.raises(OverflowError, match=r"to the power 10\.5 is beyond"):
        hessian(tri, 12.5, point)
    with pytest.raises(OverflowError, match=r"1e-320 to the power -0\.99 is beyond"):
        hessian(WORKED, 1.01, (0.1, 1e-320))


# hessian --------------------------------------------------------------------

def test_hessian_quadratic_case_is_constant():
    # n = 2 makes every weight 1, so the entries depend only on the frame
    h = hessian(WORKED, 2.0, np.array([7.0 / 32.0, 27.0 / 32.0]))
    assert h.fxx == pytest.approx(18.0 * (1.0 / 10.0 + 1.0 / 13.0), rel=1e-14)
    h2 = hessian(WORKED, 2.0, np.array([0.1, 1.7]))
    assert h2.fxx == pytest.approx(h.fxx, rel=1e-14)
    assert h2.fyy == pytest.approx(h.fyy, rel=1e-14)
    assert h2.fxy == pytest.approx(h.fxy, rel=1e-14)


def test_hessian_determinant_grouping_matches_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tri = random_canonical_triangle(rng)
        for n in (1.5, 2.0, 3.0, 6.0):
            for pt in interior_points(tri, rng, 5):
                h = hessian(tri, n, pt)
                direct = h.fxx * h.fyy - h.fxy**2
                assert h.det == pytest.approx(direct, rel=1e-10)


def test_hessian_positive_definite_at_minimizers():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tri = random_canonical_triangle(rng)
        for n in (1.5, 2.0, 4.0, 9.0):
            res = minimize_closed_form(tri, n)
            h = hessian(tri, n, res.point_canonical)
            assert h.fxx > 0.0
            assert h.det > 0.0


# kkt_residual ---------------------------------------------------------------

# so flat that the squared side lengths overflow
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
        h = hessian(tri, n, res.point_canonical)
        assert (rep.hessian_fxx, rep.hessian_det) == (h.fxx, h.det)


def test_base_point_flags_negative_multiplier():
    rep = kkt_residual(WORKED, 2.0, np.array([0.0, 0.0]))
    assert rep.active_set == ("BC",)
    assert rep.multipliers[2] == pytest.approx(-159.0 / 65.0, rel=1e-13)
    assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE
    # second-order fields are undefined on the boundary
    assert math.isnan(rep.hessian_fxx) and math.isnan(rep.hessian_det)


def test_edge_midpoint_flags_negative_multiplier():
    rep = kkt_residual(WORKED, 2.0, np.array([1.0, 1.5]))
    assert rep.active_set == ("AC",)
    # per unit normal: the raw constraint's multiplier times |AC| = sqrt(13)
    assert rep.multipliers[1] == pytest.approx(-123.0 / 130.0 * math.sqrt(13.0), rel=1e-13)
    assert rep.multipliers[0] == 0.0 and rep.multipliers[2] == 0.0
    assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE


def test_negative_multiplier_outranks_stationarity():
    # at the base the gradient also has a tangential part, but the verdict
    # reports the sign failure, which is the stronger diagnosis
    rep = kkt_residual(WORKED, 2.0, np.array([0.0, 0.0]))
    g = np.array(
        [
            2 * (3 / math.sqrt(10)) * (3 / math.sqrt(10))
            - 2 * (3 / math.sqrt(13)) * (6 / math.sqrt(13)),
        ]
    )
    assert abs(g[0]) > 1e-3  # tangential gradient really is nonzero
    assert rep.stationarity_residual == pytest.approx(abs(g[0]), rel=1e-12)
    assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE


def test_vertices_have_two_active_independent_constraints():
    rng = np.random.default_rng(11)
    for _ in range(15):
        tri = random_canonical_triangle(rng)
        labels = [("AB", "AC"), ("AB", "BC"), ("AC", "BC")]
        grads = {
            "AB": np.array([tri.a, -tri.b]),
            "AC": np.array([-tri.a, -tri.c]),
            "BC": np.array([0.0, 1.0]),
        }
        for vert, expect in zip(tri.vertices(), labels):
            rep = kkt_residual(tri, 2.0, vert)
            assert rep.active_set == expect
            m = np.column_stack([grads[s] for s in expect])
            assert abs(np.linalg.det(m)) > 1e-12  # solvable two-by-two system
            # the exact solve leaves no stationarity residual
            assert rep.stationarity_residual < 1e-10 * tri.a
            assert rep.complementary_slackness_residual < 1e-12
            assert rep.verdict is Verdict.MULTIPLIER_NEGATIVE


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
    pt = np.array([0.5, 0.05])
    assert kkt_residual(WORKED, 2.0, pt).active_set == ()
    assert kkt_residual(WORKED, 2.0, pt, tolerance=0.1).active_set == ("BC",)


def test_infeasible_point_raises():
    with pytest.raises(PointNotFeasible):
        kkt_residual(WORKED, 2.0, np.array([0.0, -1e-6]))
    with pytest.raises(PointNotFeasible):
        kkt_residual(WORKED, 2.0, np.array([4.0, 1.0]))


# kkt_residual against the numpy solve it replaced ---------------------------

def kkt_reference(tri, n, point, tol):
    """Active set, multipliers, stationarity and complementary-slackness
    residuals as kkt_residual computed them with numpy's solve and lstsq,
    kept as the reference for its closed forms. Each is judged in its own
    units: multipliers (times their normal's length) and stationarity
    against 1e-9 of the gradient scale n * max d_i^(n-1), complementary
    slackness over that scale against the slack tolerance."""
    x, y = float(point[0]), float(point[1])
    a, b, c = tri.a, tri.b, tri.c
    slacks = _side_slacks(a, b, c, x, y)
    constraint_grads = np.array([[a, -b], [-a, -c], [0.0, 1.0]])
    normal_lengths = np.hypot(constraint_grads[:, 0], constraint_grads[:, 1])
    # grad F = n * sum_i s_i^(n-1) * u_i over the unit normals u_i, a slack
    # an ulp outside its side counting as 0
    powers = np.array([max(s, 0.0) ** (n - 1.0) for s in slacks])
    grad_obj = n * (powers / normal_lengths) @ constraint_grads
    raw_slacks = np.array([slacks[0] * tri.p, slacks[1] * tri.q, slacks[2]])
    active = [i for i in range(3) if slacks[i] <= tol]
    multipliers = np.zeros(3)
    if active:
        cols = constraint_grads[active].T
        if len(active) == 2:
            sol = np.linalg.solve(cols, grad_obj)
        else:
            sol, *_ = np.linalg.lstsq(cols, grad_obj, rcond=None)
        multipliers[active] = sol
    residual_vec = grad_obj - constraint_grads.T @ multipliers
    stationarity = float(np.hypot(residual_vec[0], residual_vec[1]))
    comp_slack = float(np.max(np.abs(multipliers * raw_slacks)))
    scale = n * max(slacks) ** (n - 1.0)
    if np.any(multipliers * normal_lengths < -1e-9 * scale):
        verdict = Verdict.MULTIPLIER_NEGATIVE
    elif stationarity > 1e-9 * scale or comp_slack > tol * scale:
        verdict = Verdict.STATIONARITY_FAILED
    else:
        verdict = Verdict.SATISFIED
    return active, multipliers, stationarity, comp_slack, verdict, float(np.hypot(*grad_obj))


def reference_points(tri, rng):
    """Interior points, points on each side (one active constraint) and
    the three vertices (two active)."""
    verts = tri.vertices()
    yield from interior_points(tri, rng, 4)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for w in rng.uniform(0.05, 0.95, size=2):
            yield (1.0 - w) * verts[i] + w * verts[j]
    yield from verts


# a needle whose apex is the sharp tip: its short base lies within the
# default tolerance of all three sides
NEEDLE = CanonicalTriangle(1.0, 1e-10, 2e-10)


@pytest.mark.parametrize("n", [1.01, 2.0, 5.0, 10.0])
def test_kkt_residual_matches_numpy_reference(n):
    rng = np.random.default_rng(int(100 * n))
    cases = [(random_canonical_triangle(rng), None) for _ in range(30)]
    cases = [(tri, pt) for tri, _ in cases for pt in reference_points(tri, rng)]
    cases += [(NEEDLE, pt) for pt in NEEDLE.vertices()[1:]]
    counts = [0, 0, 0, 0]
    for tri, pt in cases:
        rep = kkt_residual(tri, n, pt)
        active, mult, stat, comp, verdict, gnorm = kkt_reference(tri, n, pt, 1e-9 * tri.a)
        counts[len(active)] += 1
        assert rep.verdict is verdict
        assert rep.active_set == tuple(("AB", "AC", "BC")[i] for i in active)
        # kkt_residual reports multipliers per unit normal: the reference's
        # raw-constraint multipliers times the length of their normal
        mult = mult * np.array([tri.p, tri.q, 1.0])
        # multipliers relative to the largest; residuals relative to the
        # gradient, whose terms cancel in them
        assert np.allclose(rep.multipliers, mult, rtol=0.0,
                           atol=1e-12 * np.max(np.abs(mult)) + 1e-300)
        assert abs(rep.stationarity_residual - stat) <= 1e-12 * gnorm + 1e-300
        assert abs(rep.complementary_slackness_residual - comp) <= 1e-12 * comp + 1e-300
        if not active:
            h = hessian(tri, n, pt)
            assert (rep.hessian_fxx, rep.hessian_det) == (h.fxx, h.det)
    assert all(counts), counts
