"""Grid and descent oracles: accuracy against the closed form, determinism,
and honest failure when an iteration budget is too small."""

import math
import random
import sys
import threading
import warnings

import numpy as np
import pytest

from tripowmin import oracle
from tripowmin.closed_form import minimize_closed_form
from tripowmin.errors import (
    DidNotConverge, InvalidExponent, PointNotInterior
)
from tripowmin.geometry import CanonicalTriangle, _side_lengths, canonicalize
from tripowmin.kkt import _frame, _log_value, _powers, evaluate_F, kkt_residual
from tripowmin.oracle import (
    OracleConfig, _discrepancy, compare, grid_search, projected_gradient,
)
from tripowmin.sampling import random_general_triangle
from triangle_helpers import (
    _projector, contains, extreme_case, grid_meets, seeded_triangles,
)

WORKED = CanonicalTriangle(3.0, 1.0, 2.0)
ISOSCELES = CanonicalTriangle(2.0, 1.0, 1.0)


def _log_F(tri, n, point):
    # log F at a point from the kernel, finite where F leaves the doubles
    return _log_value(_powers(_frame(tri.a, tri.b, tri.c), point[0], point[1], n))


# grid_search ----------------------------------------------------------------

def test_grid_finds_worked_minimizer():
    pt, value = grid_search(WORKED, 2.0)
    assert np.hypot(pt[0] - 7.0 / 32.0, pt[1] - 27.0 / 32.0) < 1e-6
    assert value == pytest.approx(81.0 / 32.0, rel=1e-9)


def test_grid_handles_n1_vertex_minimum():
    # for n = 1 F is affine, so the minimum sits at the smallest-altitude
    # vertex, and each line search's end check returns that end exactly
    pt, value = grid_search(WORKED, 1.0)
    assert pt[0] == -1.0 and pt[1] == 0.0
    assert value == pytest.approx(9.0 / math.sqrt(13.0), rel=1e-12)


@pytest.mark.parametrize("n", [math.nan, math.inf, 0.5, -1.0])
def test_grid_rejects_exponents_outside_its_domain(n):
    # unchecked, nan finds no point, inf gives a value of 0 or inf and -1
    # divides by zero in numpy
    with pytest.raises(InvalidExponent, match=">= 1"):
        grid_search(WORKED, n, OracleConfig(grid_resolution=8, zoom_iterations=1))


def test_grid_keeps_isosceles_symmetry():
    # the fraction's line search lands on t = 1/2, the axis, only to
    # roundoff, not bitwise
    pt, _ = grid_search(ISOSCELES, 2.0)
    assert abs(pt[0]) < 1e-15
    assert abs(pt[1] - 4.0 / 7.0) < 1e-6


def test_grid_point_is_feasible():
    rng = np.random.default_rng(21)
    for _ in range(10):
        tri, _ = canonicalize(random_general_triangle(rng))
        pt, _ = grid_search(tri, 3.0)
        assert contains(tri, pt)


def test_grid_ties_go_to_lowest_lattice_index():
    # for n = 1 every point of an isosceles triangle's base ties exactly;
    # a line search checks its upper end first, so the search keeps to the
    # right-hand vertex (c, 0)
    pt, _ = grid_search(ISOSCELES, 1.0)
    assert pt[0] > 0.0 and pt[1] == 0.0


def test_grid_is_bit_deterministic():
    a = grid_search(WORKED, 3.0)
    b = grid_search(WORKED, 3.0)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def _bits(result):
    (x, y), f = result
    return x.hex(), y.hex(), f.hex()


def test_grid_search_is_reentrant():
    # a short switch interval interleaves the threads mid-search, so two
    # searches that shared any state would overwrite each other's values
    jobs = ((WORKED, 3.0), (CanonicalTriangle(1.0, 0.3, 2.5), 5.0))
    serial = [_bits(grid_search(tri, n)) for tri, n in jobs]
    results = [[], []]

    def run(k):
        tri, n = jobs[k]
        for _ in range(20):
            results[k].append(_bits(grid_search(tri, n)))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial[0]] * 20, [serial[1]] * 20]


def test_grid_on_a_sliver_of_scale_1e160_stays_in_the_triangle():
    # the window corners' projection used to form b * y, which overflows
    # here: its inside test then accepted far corners, and the lattice
    # multiplied inf by 0
    tri = CanonicalTriangle(1.0, 1e160, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt, value = grid_search(tri, 5.0)
    assert contains(tri, pt) and math.isfinite(value)
    # windows squeezed to 2e-160 of their height resolve it as finely as
    # the base
    truth = minimize_closed_form(tri, 5.0).value
    assert truth <= value < truth * (1.0 + 1e-8)


@pytest.mark.parametrize("abc", [(1e-300, 1.0, 1.0), (1e-150, 1e150, 1e150)])
@pytest.mark.parametrize("n", [1.01, 2.0, 5.0])
def test_grid_on_a_sliver_of_aspect_1e_300_stays_in_the_triangle(abc, n):
    # a / max(b, c) = 1e-300: the windows are 2e-300 times as tall as wide
    tri = CanonicalTriangle(*abc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt, value = grid_search(tri, n)
    assert contains(tri, pt)
    # F underflows to 0 at n = 2 and 5 on the first sliver, log F does not
    truth = minimize_closed_form(tri, n)
    assert value == truth.value or abs(value - truth.value) <= 1e-8 * truth.value
    assert abs(_log_F(tri, n, pt) - truth.log_value) <= 1e-8


def test_grid_follows_the_valley_of_a_thin_triangle():
    # perfbench seed 0: windows centred on the running best stayed on a
    # stale point while they shrank, and missed by 2.7e-5 * diameter
    tri = CanonicalTriangle(
        1.635462734213484e-06, 0.001230795720216599, 0.00025014204315872255
    )
    (x, y), value = grid_search(tri, 2.0)
    truth = minimize_closed_form(tri, 2.0)
    assert math.dist((x, y), truth.point_canonical) <= 1e-6 * tri.diameter()
    assert truth.value <= value <= truth.value * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "abc, n",
    [
        # a sliver on which the lattice's stretched windows lost the
        # valley, ending 2.3e-3 of the diameter off
        ((6.299436429988343e-11, 5.633277347381022e-07, 2.3132742654516685e-06), 1.1),
        # perfbench seed 0 case 144: the minimizer sits just below the apex
        # and the lattice's winner stayed on a window corner pass after pass
        ((1.537007197584256e-05, 0.00023584811747257996, 0.0018617735313103158), 1.01),
    ],
)
def test_grid_meets_the_cases_the_lattice_missed(abc, n):
    tri = CanonicalTriangle(*abc)
    assert grid_meets(tri, n, grid_search(tri, n)[0])


def test_grid_misses_few_thin_triangles():
    # thinness (height over base) 1e-3..1e-2; at verify's tolerances,
    # applied to the grid alone, none of these 800 misses, against 27 for
    # the lattice scan with stretched windows and 92 with equilateral ones
    rng = random.Random(15)
    misses = 0
    for k in range(800):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        tau = 10.0 ** rng.uniform(-3.0, -2.0)
        b = rng.uniform(0.05, 0.95)
        tri = CanonicalTriangle(scale * tau, scale * b, scale * (1.0 - b))
        n = (1.01, 2.0, 5.0, 10.0)[k % 4]
        misses += not grid_meets(tri, n, grid_search(tri, n)[0])
    assert misses == 0


@pytest.mark.parametrize("scale", [1e-100, 1e-60, 1e60, 1e100])
@pytest.mark.parametrize("n", [5.0, 10.0])
def test_grid_does_not_depend_on_the_unit_of_length(scale, n):
    # the lattice ran in the triangle's own units: where every F underflowed
    # to 0 the scan returned its first lattice point, the vertex (2s, 0),
    # and where the block power overflowed numpy warned and gave garbage
    tri = CanonicalTriangle(3.0 * scale, scale, 2.0 * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt, value = grid_search(tri, n)
    truth = minimize_closed_form(tri, n)
    assert math.dist(pt, truth.point_canonical) <= 1e-5 * tri.diameter()
    # 0 or inf where F leaves the doubles, as the closed form's value does
    assert value == truth.value or abs(value - truth.value) <= 1e-8 * truth.value


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n", [600.0, 1000.0])
def test_grid_finds_the_minimizer_at_large_n(scale, n):
    # with the largest altitude scaled into [0.5, 1), every lattice value
    # near the minimizer underflowed to 0 from about n = 500 and the scan
    # took its first lattice point; with the inradius scaled into [0.5, 1)
    # none does, since F >= inradius^n
    tri = CanonicalTriangle(3.0 * scale, scale, 2.0 * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt, value = grid_search(tri, n)
    truth = minimize_closed_form(tri, n)
    assert math.dist(pt, truth.point_canonical) <= 1e-5 * tri.diameter()
    # 0 or inf where F leaves the doubles, as the closed form's value does
    assert value == truth.value or abs(value - truth.value) <= 1e-8 * truth.value
    assert abs(_log_F(tri, n, pt) - truth.log_value) <= 1e-8


EXTREMES = (
    (3.0, 1.0, 2.0), (1.0, 1.0, 1.0), (1e-300, 1.0, 1.0), (1e-150, 1e150, 1e150),
    (1e300, 1e300, 1e299), (1e-300, 1e-300, 2e-300),
)


@pytest.mark.parametrize("abc", EXTREMES)
@pytest.mark.parametrize("n", [1e6, 1e9, 1e15, 1e300, sys.float_info.max])
def test_grid_point_is_right_at_huge_n(abc, n):
    # the nested search measured each chord's F in a unit of its own and
    # read inf wherever that overflowed, a short way from the chord's
    # minimizer at large n: its searches stood on plateaus of inf and ended
    # 7.6e-4 to 6.8e-2 of the diameter off on every one of these. Only the
    # point is checked: a line search ends within delta = 1e-7 of its
    # interval, and at large n that moves F by about n^2 delta^2 relative,
    # beyond any fixed value tolerance. The searches compare log F / n, so
    # that nothing leaves the doubles even at the largest n
    tri = CanonicalTriangle(*abc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt, _ = grid_search(tri, n)
    truth = minimize_closed_form(tri, n)
    assert math.dist(pt, truth.point_canonical) <= 1e-5 * tri.diameter()


@pytest.mark.parametrize("n", [1.01, 2.0, 5.0, 10.0])
def test_every_chord_has_its_least_F_at_the_same_fraction(n):
    # grid_search rests on this: s1 and s2 both scale with a chord's
    # length, so every chord's minimizer lies the same fraction of the way
    # along it. Searched independently on chords at five heights, reading
    # F through evaluate_F, the fractions agree to the searches' tolerance.
    # The heights are below the minimizer's: far above it y^n swamps the
    # chord's s1^n + s2^n, and F's rounding hides the fraction
    for _, tri in seeded_triangles(8):
        a, b, c = tri.a, tri.b, tri.c
        top = minimize_closed_form(tri, n).point_canonical[1]
        fractions = []
        for y in (0.0, 0.2 * top, 0.4 * top, 0.6 * top, 0.8 * top):
            xl, xr = b * ((y - a) / a), c * ((a - y) / a)
            x, _ = oracle._line_min(lambda x: evaluate_F(tri, n, (x, y)), xl, xr)
            fractions.append((x - xl) / (xr - xl))
        spread = max(fractions) - min(fractions)
        assert spread <= 4.0 * oracle._LINE_TOL, (tri, n, fractions)


@pytest.mark.parametrize("n", [1.01, 2.0, 5.0, 10.0])
def test_grid_point_scales_exactly_with_the_triangle(n):
    # the scan's one scale is the power of two that puts the inradius in
    # [0.5, 1), so a triangle scaled by 2^k is scanned in the same units
    # and its point is 2^k times the unit-scale point, bit for bit
    (x, y), _ = grid_search(WORKED, n)
    for k in (-600, -30, 30, 600):
        tri = CanonicalTriangle(
            math.ldexp(WORKED.a, k), math.ldexp(WORKED.b, k), math.ldexp(WORKED.c, k)
        )
        (sx, sy), _ = grid_search(tri, n)
        assert (sx.hex(), sy.hex()) == (math.ldexp(x, k).hex(), math.ldexp(y, k).hex())


def test_grid_zoom_prefixes_never_get_worse():
    # the search reads no zoom setting, so every zoom_iterations gives the
    # same value; a search that read it again must not get worse with more
    values = []
    for k in range(9):
        _, v = grid_search(WORKED, 3.0, OracleConfig(zoom_iterations=k))
        values.append(v)
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier
    # and the deepest zoom is close to the truth
    truth = minimize_closed_form(WORKED, 3.0).value
    assert values[-1] == pytest.approx(truth, rel=1e-9)


def test_grid_coarse_run_matches_lattice_resolution():
    # the config is accepted and not read: a coarse one gives the default's
    # bits, so also a point within two steps of a 64-step lattice
    cfg = OracleConfig(zoom_iterations=0, grid_resolution=64)
    default, coarse = grid_search(WORKED, 2.0), grid_search(WORKED, 2.0, cfg)
    assert _bits(coarse) == _bits(default)
    spacing = WORKED.diameter() / 64.0
    assert np.linalg.norm(coarse[0] - default[0]) < 2.0 * spacing


def _count_line_searches(monkeypatch):
    # the F evaluations of each line search grid_search runs, in the order
    # they end: the fraction's search, then the height's
    seen = []
    line_min = oracle._line_min

    def recording(f, lo, hi):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return f(x)

        result = line_min(counted, lo, hi)
        seen.append(calls[0])
        return result

    monkeypatch.setattr(oracle, "_line_min", recording)
    return seen


@pytest.mark.parametrize(
    "tri, passes",
    [
        (WORKED, [13, 13]),
        (CanonicalTriangle(0.4, 3.5, 4.5), [12, 13]),
        (CanonicalTriangle(math.nextafter(0.4, 0.0), 3.5, 4.5), [12, 13]),
        (CanonicalTriangle(1.0, 1e160, 1e160), [10, 13]),
    ],
)
def test_grid_pass_schedule(monkeypatch, tri, passes):
    # the F evaluations of each line search at n = 2: a change that adds
    # work fails here. Two searches, not one per chord: every chord has its
    # least F at the same fraction
    seen = _count_line_searches(monkeypatch)
    grid_search(tri, 2.0)
    assert seen == passes


def _reference_grid_search(tri, n):
    # grid_search as its docstring tells it, written plainly: on a, b, c
    # scaled by the power of two that puts the inradius in [0.5, 1), one
    # line search finds the fraction t that minimizes
    # phi(t) = (t a / p)^n + ((1 - t) a / q)^n and another the height y
    # along the cevian through it, where F = (k (a - y))^n + y^n with
    # k = phi(t)^(1/n) (b + c) / a; each compares the log of its sum's
    # n-th root, log top + log(1 + (low / top)^n) / n. The point is taken
    # from the chord's nearer end, scaled back, and F there is evaluated in
    # the triangle's own units.
    p, q, base = _side_lengths(tri.a, tri.b, tri.c)
    shift = -math.frexp(tri.a * (base / (p + q + base)))[1]
    a, b, c = (math.ldexp(v, shift) for v in (tri.a, tri.b, tri.c))
    p, q, base = _side_lengths(a, b, c)

    def log_root(u, v):
        top, low = max(u, v), min(u, v)
        return math.log(top) + math.log1p((low / top) ** n) / n

    t, log_root_phi = oracle._line_min(
        lambda t: log_root(t * (a / p), (1.0 - t) * (a / q)), 0.0, 1.0
    )
    k = math.exp(log_root_phi) * (base / a)
    y, _ = oracle._line_min(lambda y: log_root(k * (a - y), y), 0.0, a)
    xl, xr = b * ((y - a) / a), c * ((a - y) / a)
    x = xl + t * (xr - xl) if t <= 0.5 else xr - (1.0 - t) * (xr - xl)
    x, y = math.ldexp(x, -shift), math.ldexp(y, -shift)
    return (x, y), evaluate_F(tri, n, (x, y))


def test_grid_matches_its_plain_reference_bit_for_bit():
    # grid_search reads the value from the kernel, the reference through
    # evaluate_F. Neither may move a bit, on the seeded triangles, slivers
    # and triangles scaled 2^-600 and 2^600
    cases = [(tri, n) for _, tri in seeded_triangles(8) for n in (1.01, 2.0, 5.0, 10.0)]
    for abc in ((1.0, 1e160, 1e160), (1e-160, 1.0, 1.0)):
        cases += [(CanonicalTriangle(*abc), n) for n in (1.0, 1.01, 5.0)]
    for k in (-600, 600):
        scaled = CanonicalTriangle(*(math.ldexp(v, k) for v in (3.0, 1.0, 2.0)))
        cases += [(scaled, n) for n in (2.0, 10.0)]
    for tri, n in cases:
        assert _bits(grid_search(tri, n)) == _bits(_reference_grid_search(tri, n)), (tri, n)


def _dense_grid_search(tri, n):
    # the search with each line search a thousand times tighter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_LINE_TOL", oracle._LINE_TOL / 1000.0)
        return grid_search(tri, n)


def test_coarse_zoom_lattice_misses_nothing_the_dense_one_meets():
    # thinness 2 * area / diameter^2 from 1e-3 to 0.85, with the base the
    # longest side, so the thinness is the height over the base: line
    # searches to 1e-7 of their interval lose no case that searches a
    # thousand times tighter meet
    rng = random.Random(16)
    lost = []
    for low, high in ((1e-3, 0.05), (0.05, 0.85)):
        for k in range(400):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            tau = 10.0 ** rng.uniform(math.log10(low), math.log10(high))
            half = math.sqrt(1.0 - tau * tau)
            b = rng.uniform(1.0 - half, half)
            tri = CanonicalTriangle(scale * tau, scale * b, scale * (1.0 - b))
            n = (1.01, 2.0, 5.0, 10.0)[k % 4]
            if grid_meets(tri, n, _dense_grid_search(tri, n)[0]) and not grid_meets(
                tri, n, grid_search(tri, n)[0]
            ):
                lost.append((tri, n))
    assert not lost, lost


def test_lattice_value_is_inf_where_the_winners_power_overflows():
    # the winner's value is read in the triangle's own units, where Python's
    # float power raises OverflowError bare; the search must return inf
    # instead, and warn nothing
    tri = CanonicalTriangle(3e100, 1e100, 2e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (x, y), f = grid_search(tri, 5.0, OracleConfig(grid_resolution=8, zoom_iterations=1))
    assert f == math.inf and math.isfinite(x) and math.isfinite(y)


def test_projection_onto_a_side_too_short_to_square():
    # in the projector's units the base of this needle squares to 0, and
    # projecting onto it divided by that: ZeroDivisionError
    project = _projector(1.0, 1e-200, 1e-200)
    x, y = project(0.0, -1.0)
    assert y == 0.0 and -1e-200 <= x <= 1e-200


def test_projection_of_a_far_point_beyond_the_products_range():
    # b * y = 1e320 overflowed, the inside test's margin became inf and
    # accepted the point unchanged
    project = _projector(1.0, 1e160, 1e160)
    assert project(0.0, 1e160) == (0.0, 1.0)
    assert project(3e159, -5.0) == (3e159, 0.0)


# projected_gradient ---------------------------------------------------------

def test_descent_reaches_worked_minimizer():
    res = projected_gradient(WORKED, 2.0)
    assert np.hypot(res.point[0] - 7.0 / 32.0, res.point[1] - 27.0 / 32.0) < 1e-8
    assert res.value == pytest.approx(81.0 / 32.0, rel=1e-12)
    assert res.iterations > 0


def test_descent_from_near_vertex_start():
    res = projected_gradient(WORKED, 2.0, start=np.array([1.9, 0.05]))
    assert np.hypot(res.point[0] - 7.0 / 32.0, res.point[1] - 27.0 / 32.0) < 1e-8


def test_descent_refuses_an_exterior_start():
    # Newton's steps stay inside the open triangle, so they need an
    # interior start; nothing is projected
    with pytest.raises(PointNotInterior):
        projected_gradient(WORKED, 2.0, start=np.array([50.0, -30.0]))


def test_descent_keeps_isosceles_symmetry_exactly():
    res = projected_gradient(ISOSCELES, 3.0, start=np.array([0.0, 0.9]))
    assert float(res.point[0]) == 0.0
    truth = minimize_closed_form(ISOSCELES, 3.0)
    assert abs(res.point[1] - truth.point_canonical[1]) < 1e-7


def test_descent_never_returns_worse_than_start():
    rng = np.random.default_rng(23)
    for _ in range(15):
        tri, _ = canonicalize(random_general_triangle(rng))
        start = np.mean(tri.vertices(), axis=0) + rng.uniform(-0.1, 0.1, 2) * tri.a
        f0 = evaluate_F(tri, 4.0, start)
        res = projected_gradient(tri, 4.0, start=start)
        assert res.value <= f0 * (1 + 1e-12)


def test_descent_is_bit_deterministic():
    a = projected_gradient(WORKED, 3.0)
    b = projected_gradient(WORKED, 3.0)
    assert np.array_equal(a.point, b.point)
    assert a.value == b.value and a.iterations == b.iterations


def test_descent_converged_result_stable_under_longer_budget():
    short = projected_gradient(WORKED, 3.0, config=OracleConfig(pg_max_iters=10))
    long = projected_gradient(WORKED, 3.0, config=OracleConfig(pg_max_iters=50))
    assert np.array_equal(short.point, long.point)
    assert short.value == long.value


# A sliver at n = 1.01 (perfbench seed 204, case 668) on which the
# spectral projected gradient descent locked into a period-2 roundoff cycle
CYCLING = CanonicalTriangle(36.29203748228868, 7.013765963112165, 277.6955932065455)


def test_descent_converges_on_a_sliver_near_n1():
    res = projected_gradient(CYCLING, 1.01)
    truth = minimize_closed_form(CYCLING, 1.01).value
    assert res.iterations <= 20
    assert abs(res.value - truth) <= 1e-12 * truth


def test_descent_does_not_stop_on_a_slack_far_below_its_minimizer():
    # near n = 1 Newton's decrement bounds no gap: started 1e-12 off a vertex
    # of an equilateral triangle, whose minimizer is the incenter, the
    # descent read lambda^2 / F = 7.6e-14 at n = 1.0001 and stopped after
    # one step with F 1.1e-4 above the minimum
    tri = CanonicalTriangle(math.sqrt(3.0), 1.0, 1.0)
    for n in (1.0001, 1.001, 1.01):
        truth = minimize_closed_form(tri, n).value
        for d in (1e-6, 1e-9, 1e-12):
            res = projected_gradient(tri, n, start=(-1.0 + 2.0 * d, d))
            assert res.value <= truth * (1.0 + 1e-12), (n, d)
            assert res.iterations <= 10, (n, d)


def test_descent_rejects_subunit_exponent():
    with pytest.raises(InvalidExponent):
        projected_gradient(WORKED, 1.0)
    with pytest.raises(InvalidExponent):
        projected_gradient(WORKED, 0.5)


def test_descent_answers_up_to_the_exponent_it_can_represent():
    # at the incenter of 1,1,1 every ratio is 1 within rounding, and a
    # weight (1 - eps)^(n-1) is still a normal double at n = 1e18
    tri = CanonicalTriangle(1.0, 1.0, 1.0)
    res = projected_gradient(tri, 1e18)
    assert math.dist(res.point, minimize_closed_form(tri, 1e18).point_canonical) <= 1e-12
    # from about 3.2e18 it is not, and the Newton determinant read 0 or inf
    for n in (3.3e18, 1e300):
        with pytest.raises(InvalidExponent, match="beyond the descent") as exc:
            projected_gradient(tri, n)
        assert str(exc.value).startswith(f"exponent {n!r} ")


def test_descent_reports_exhausted_budget():
    with pytest.raises(DidNotConverge):
        projected_gradient(
            WORKED, 3.0,
            start=np.array([1.9, 0.05]),
            config=OracleConfig(pg_max_iters=1),
        )


@pytest.mark.parametrize(
    "abc, n",
    [
        # F at the centroid was subnormal, so 1 / F overflowed, and compare
        # took the NaN the descent returned as its reference value
        ((1e-160, 1e-160, 1e-160), 2.0),
        # F at the centroid was (1e-80)^5 = 0: the run normalized by 1
        # instead and returned the centroid as the minimizer
        ((1e-80, 2e-80, 3e-80), 5.0),
        # F is inf everywhere in the triangle
        ((300.0, 100.0, 200.0), 200.0),
    ],
)
def test_descent_answers_where_F_leaves_the_doubles(abc, n):
    tri = CanonicalTriangle(*abc)
    res = projected_gradient(tri, n)
    truth = minimize_closed_form(tri, n)
    assert res.value == truth.value
    assert math.dist(res.point, truth.point_canonical) <= 1e-9 * tri.diameter()
    assert compare(tri, n).passed


@pytest.mark.parametrize("scale", [1e-20, 1e-150])
def test_descent_step_clamps_follow_the_triangles_scale(scale):
    # the step, a length squared, was clamped to [1e-30, 1e30] absolute:
    # at 1e-20 the lower clamp kept it far too large and the descent cycled
    # for 103 728 iterations, and at 1e-150 it ran for minutes
    tri = CanonicalTriangle(scale, scale, scale)
    res = projected_gradient(tri, 2.0)
    truth = minimize_closed_form(tri, 2.0)
    assert res.iterations < 100
    assert math.dist(res.point, truth.point_canonical) < 1e-8 * scale


def test_descent_does_not_spin_on_a_sliver_of_huge_aspect():
    # the minimizer is 1e48 along the valley from the centroid; a step
    # clamped in units of a * a stopped short of it, and one clamped in
    # units of the squared diameter was halved back on every iteration
    tri = CanonicalTriangle(1.0, 1e50, 0.7e50)
    res = projected_gradient(tri, 5.0)
    cf = minimize_closed_form(tri, 5.0)
    assert res.iterations < 1000
    assert cf.value * (1.0 - 1e-14) <= res.value <= cf.value * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "abc, n",
    [
        # perfbench oracle-compare seed 210 case 56, seed 1 case 100 and
        # seed 214 case 964, canonicalized: the spectral descent locked into
        # exact cycles far from the minimizer and raised DidNotConverge
        ((38.49906135225482, 199.14124018550305, 13.903690280291988), 1.01),
        ((0.059645666874670294, 0.016446450689584207, 0.08389681925202555), 1.01),
        ((29.618396818977242, 34.63880014220831, 7.615272445374764), 1.01),
        # a first step of 0.1 * diameter, a length where the step is a
        # length squared, returned the centroid after 0 iterations
        ((3e10, 1e10, 2e10), 2.0),
        # step clamps in units of a * a stopped at F = 0.12548 against 0.08630
        ((1.0, 1e10, 0.7e10), 5.0),
    ],
)
def test_descent_reaches_the_closed_form(abc, n):
    tri = CanonicalTriangle(*abc)
    res = projected_gradient(tri, n)
    truth = minimize_closed_form(tri, n)
    assert abs(res.value - truth.value) <= 1e-12 * truth.value
    assert math.dist(res.point, truth.point_canonical) <= 1e-10 * tri.diameter()


def test_descent_on_extreme_inputs_is_right_or_refuses():
    # from the incenter every case answers; from the centroid 19 refused
    # (F or the Newton determinant beyond the normal doubles) and needles
    # at large n took up to 689 steps. F itself reads 0 or inf on some,
    # so values are compared in logs.
    rng = random.Random(1707)
    for _ in range(1000):
        tri, n = extreme_case(rng)
        res = projected_gradient(tri, n)
        truth = minimize_closed_form(tri, n)
        assert res.iterations <= 25, (tri, n)
        assert abs(_log_F(tri, n, res.point) - truth.log_value) <= 1e-8, (tri, n)
        assert math.dist(res.point, truth.point_canonical) <= 1e-5 * tri.diameter(), (tri, n)


@pytest.mark.parametrize(
    "abc, n",
    [
        # from the centroid, one slack's power dominated F and each Newton
        # step cut that slack by about 1 / (n - 1): 671 steps
        ((0.13738607314284296, 2.7359565835068926e-07, 4.067634838284864e-07), 57.02),
        # at the centroid the Hessian weights of both long sides underflowed
        # and the Newton determinant was 0 (FloatingPointError)
        ((0.9718849431406602, 5.011054610712012e-07, 1.0191052309573957e-06),
         58.731746492007545),
    ],
)
def test_descent_answers_needles_at_large_n_from_the_incenter(abc, n):
    tri = CanonicalTriangle(*abc)
    res = projected_gradient(tri, n)
    assert res.iterations <= 25
    truth = minimize_closed_form(tri, n).point_canonical
    assert math.dist(res.point, truth) <= 1e-9 * tri.diameter()


# compare --------------------------------------------------------------------

def test_compare_confirms_worked_examples():
    rep = compare(WORKED, 2.0)
    assert rep.passed
    assert rep.point_gap < 1e-6
    assert rep.value_gap_rel < 1e-9
    assert rep.closed_form_value == pytest.approx(81.0 / 32.0, rel=1e-14)


def test_compare_high_power():
    rep = compare(WORKED, 10.0, point_tol=1e-5, value_tol=1e-8)
    assert rep.passed


def test_closed_form_never_above_oracle():
    # the oracle evaluates F at real points; a true minimum sits below
    rng = np.random.default_rng(25)
    for _ in range(15):
        tri, _ = canonicalize(random_general_triangle(rng))
        for n in (2.0, 5.0):
            rep = compare(tri, n, OracleConfig(pg_max_iters=200_000))
            assert rep.closed_form_value <= rep.oracle_value * (1 + 1e-12)


def test_value_gap_stays_relative_below_1e300():
    # the gap was divided by max(|a|, |b|, 1e-300), so it read a 0.1% gap
    # between values near 1e-307 as 1e-10; from log values it is relative
    # to the larger value at any size, and where both read 0 or inf
    log = math.log
    rep = _discrepancy(
        (0.0, 0.0), 1.001e-307, log(1.001e-307), (0.0, 0.0), 1e-307, log(1e-307), 1.0, 1e-8
    )
    assert rep.value_gap_rel == pytest.approx(1e-3 / 1.001, rel=1e-9)
    assert not rep.passed
    rep = _discrepancy((0.0, 0.0), math.inf, 800.0, (0.0, 0.0), math.inf, 800.0 + 1e-3, 1.0, 1e-8)
    assert rep.value_gap_rel == pytest.approx(-math.expm1(-1e-3), rel=1e-9) and not rep.passed
    assert _discrepancy((0.0, 0.0), 0.0, -800.0, (0.0, 0.0), 0.0, -800.0, 1.0, 0.0).passed
    rep = compare(CanonicalTriangle(3e-153, 1e-153, 2e-153), 2.0)
    assert rep.passed and rep.value_gap_rel < 1e-12


def test_compare_rejects_n1():
    with pytest.raises(InvalidExponent):
        compare(WORKED, 1.0)


# the extreme list of the grid's large-n test, two slivers and a needle,
# and the n = 1.1 sliver of the grid's miss trace
START_RULE_TRIANGLES = [
    CanonicalTriangle(*abc) for abc in (
        (3.0, 1.0, 2.0), (1.0, 1.0, 1.0), (1e-300, 1.0, 1.0),
        (1e-150, 1e150, 1e150), (1e300, 1e300, 1e299), (1e-300, 1e-300, 2e-300),
        (1.0, 1e160, 1e160), (1e-160, 1.0, 1.0), (1.0, 1e-200, 1e-200),
        (6.299436429988343e-11, 5.633277347381022e-07, 2.3132742654516685e-06),
    )
]
START_RULE_EXPONENTS = (
    1.000001, 1.001, 1.01, 1.1, 2.0, 5.0, 200.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e18,
)


@pytest.mark.parametrize("n", [1.0, 1.01, 2.0, 1e6])
@pytest.mark.parametrize(
    "abc",
    [(1e-300, 1e300, 1e300), (1e300, 1e-300, 1e-300), (1.0, 1e308, 1e308),
     (1e-308, 1.0, 1.0), (1.0, 1e-310, 1e-310)],
    ids=repr,
)
def test_only_the_frame_refuses_a_triangle_beyond_the_doubles(abc, n):
    # every reader of F refuses in the kernel's frame, naming the inradius.
    # Each used to fail its own way (ValueError, ZeroDivisionError,
    # PointNotFeasible or PointNotInterior), or return NaN, a wrong grid
    # point or, where the inradius is below the unit, an answer
    tri = CanonicalTriangle(*abc)
    point = (0.0, tri.a / 2)
    calls = {
        "grid_search": lambda: grid_search(tri, n),
        "evaluate_F": lambda: evaluate_F(tri, n, point),
    }
    if n > 1.0:
        calls.update({
            "projected_gradient": lambda: projected_gradient(tri, n),
            "compare": lambda: compare(tri, n, None, 1e-6 * tri.diameter(), 1e-9),
            "kkt_residual": lambda: kkt_residual(tri, n, point),
        })
    for name, call in calls.items():
        with pytest.raises(OverflowError) as err:
            call()
        if name == "compare" and abc == (1.0, 1e308, 1e308):
            # the closed form's own refusal may come first: b + c overflows
            assert "inradius" in str(err.value) or "is not finite" in str(err.value)
        else:
            assert "inradius" in str(err.value), name


def _incenter_start_compare(tri, n, config, point_tol, value_tol):
    # compare as it was with the descent always started at the incenter
    n, x, y, h, tot = oracle._trilinear(tri, n)
    grid_x, grid_y, grid = oracle._grid(oracle._frame(tri.a, tri.b, tri.c), n)
    pg = projected_gradient(tri, n, None, config)
    grid_log, pg_log = _log_value(grid), _log_F(tri, n, pg.point)
    if grid_log <= pg_log:
        best = (grid_x, grid_y), oracle._value(grid), grid_log
    else:
        best = pg.point, pg.value, pg_log
    value = oracle._pow_or_inf(h, n) * tot
    log_value = n * math.log(h) + math.log(tot)
    return _discrepancy((x, y), value, log_value, *best, point_tol, value_tol)


def _passed_or_error(f, tri, n):
    # at solve --verify's tolerances: on (1, 1e160, 1e160) F changes by
    # less than its rounding over x spans of about 1e-17 of the diameter,
    # so an absolute point tolerance would judge where the descent stopped
    try:
        return f(tri, n, None, 1e-6 * tri.diameter(), 1e-9).passed
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("tri", START_RULE_TRIANGLES, ids=repr)
def test_compare_starting_from_the_grid_keeps_every_incenter_start_outcome(tri):
    # started at the grid's point itself, the descent raised
    # FloatingPointError on the needle from n = 200 (a slack ratio of 1e-7
    # underflows its Newton weight) and spun to DidNotConverge on (1,1,1)
    # at n = 1e15 (a far worse start than the incenter)
    for n in START_RULE_EXPONENTS:
        want = _passed_or_error(_incenter_start_compare, tri, n)
        assert _passed_or_error(compare, tri, n) == want, n


# configuration --------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid_resolution": 0},
        {"grid_resolution": -5},
        {"zoom_iterations": -1},
        {"pg_max_iters": 0},
        # non-integers ended in a bare TypeError at scan time, or were
        # silently truncated
        {"grid_resolution": 2.0},
        {"grid_resolution": 96.5},
        {"zoom_iterations": 1.5},
        {"pg_max_iters": 10.5},
    ],
    # Pinned ids: cases 3-5 (zoom_factor, pg_step, pg_tolerance) went with
    # their fields, and the remaining cases keep the names they had.
    ids=[
        "kwargs0", "kwargs1", "kwargs2", "kwargs6", "grid_resolution_float",
        "grid_resolution_fraction", "zoom_iterations_fraction", "pg_max_iters_fraction",
    ],
)
def test_config_validation(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match=field):
        OracleConfig(**kwargs)


def test_default_config_is_usable():
    cfg = OracleConfig()
    assert cfg.grid_resolution == 42
    assert cfg.zoom_iterations == 11
