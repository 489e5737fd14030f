"""Grid and descent oracles: accuracy against the closed form, determinism,
and honest failure when an iteration budget is too small."""

import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from tripowmin.closed_form import minimize_closed_form
from tripowmin.errors import DidNotConverge, InvalidExponent
from tripowmin.geometry import CanonicalTriangle, GeneralTriangle, _projector, canonicalize
from tripowmin.kkt import evaluate_F
from tripowmin.oracle import (
    OracleConfig, _block_power, _lattice_best, _lattice_scratch, _pg_minimize, compare,
    grid_search, projected_gradient,
)
from tripowmin.sampling import random_general_triangle
from triangle_helpers import contains

WORKED = CanonicalTriangle(3.0, 1.0, 2.0)
ISOSCELES = CanonicalTriangle(2.0, 1.0, 1.0)


# grid_search ----------------------------------------------------------------

def test_grid_finds_worked_minimizer():
    pt, value = grid_search(WORKED, 2.0)
    assert np.hypot(pt[0] - 7.0 / 32.0, pt[1] - 27.0 / 32.0) < 1e-6
    assert value == pytest.approx(81.0 / 32.0, rel=1e-9)


def test_grid_handles_n1_vertex_minimum():
    # for n = 1 the minimum sits at the smallest-altitude vertex, which is
    # a lattice corner, so the scan lands on it exactly
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
    # window recentering can pass through off-axis lattice points, so the
    # scan recovers the axis only to roundoff, not bitwise
    pt, _ = grid_search(ISOSCELES, 2.0)
    assert abs(pt[0]) < 1e-15
    assert abs(pt[1] - 4.0 / 7.0) < 1e-6


def test_grid_point_is_feasible():
    rng = np.random.default_rng(21)
    for _ in range(10):
        tri, _ = canonicalize(random_general_triangle(rng))
        pt, _ = grid_search(tri, 3.0)
        assert contains(tri, pt)


def test_grid_zoom_prefixes_never_get_worse():
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
    cfg = OracleConfig(zoom_iterations=0, grid_resolution=64)
    pt, _ = grid_search(WORKED, 2.0)
    coarse_pt, _ = grid_search(WORKED, 2.0, cfg)
    spacing = WORKED.diameter() / 64.0
    assert np.linalg.norm(coarse_pt - pt) < 2.0 * spacing


def test_grid_ties_go_to_lowest_lattice_index():
    # for n = 1 every point of an isosceles triangle's base ties exactly;
    # the lattice enumeration starts at the right-hand vertex (c, 0), so
    # the lowest-index rule keeps the scan on the right half
    pt, _ = grid_search(ISOSCELES, 1.0)
    assert pt[0] > 0.0 and pt[1] == 0.0


def test_grid_is_bit_deterministic():
    a = grid_search(WORKED, 3.0)
    b = grid_search(WORKED, 3.0)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_grid_search_is_reentrant():
    # numpy releases the GIL inside its ufuncs, and a short switch interval
    # interleaves the threads between them, so two scans that shared work
    # arrays would overwrite each other's values
    jobs = ((WORKED, 3.0), (CanonicalTriangle(1.0, 0.3, 2.5), 5.0))

    def bits(result):
        (x, y), f = result
        return x.hex(), y.hex(), f.hex()

    serial = [bits(grid_search(tri, n)) for tri, n in jobs]
    results = [[], []]

    def run(k):
        tri, n = jobs[k]
        for _ in range(20):
            results[k].append(bits(grid_search(tri, n)))

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


GRID_BITS = r"""
import json, sys
from tripowmin.geometry import CanonicalTriangle
from tripowmin.oracle import OracleConfig, grid_search

out = []
for m in (128, 256):
    for tri, n in ((CanonicalTriangle(3.0, 1.0, 2.0), 5.0),
                   (CanonicalTriangle(0.02, 1.3, 40.0), 1.01)):
        (x, y), f = grid_search(tri, n, OracleConfig(grid_resolution=m))
        out.append([x.hex(), y.hex(), f.hex()])
print(json.dumps(out))
"""


def test_grid_bits_do_not_depend_on_the_blas_thread_count():
    # the lattice's side slacks come from one BLAS matrix product, which
    # OpenBLAS may split across threads once it is large enough (at m = 256
    # it is 3 x 3 x 33153 multiply-adds); the split must not change a bit
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-c", GRID_BITS], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]


def test_grid_on_a_sliver_of_scale_1e160_stays_in_the_triangle():
    # the window corners' projection used to form b * y, which overflows
    # here: its inside test then accepted far corners, and the lattice
    # multiplied inf by 0
    tri = CanonicalTriangle(1.0, 1e160, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt, value = grid_search(tri, 5.0)
    assert contains(tri, pt) and math.isfinite(value)
    # a lattice over a 2e160-wide triangle resolves the height only coarsely
    truth = minimize_closed_form(tri, 5.0).value
    assert truth <= value < truth * (1.0 + 1e-3)


def test_projection_of_a_far_point_beyond_the_products_range():
    # b * y = 1e320 overflowed, the inside test's margin became inf and
    # accepted the point unchanged
    project = _projector(1.0, 1e160, 1e160)
    assert project(0.0, 1e160) == (0.0, 1.0)
    assert project(3e159, -5.0) == (3e159, 0.0)


# lattice scan ---------------------------------------------------------------

@pytest.mark.parametrize("n", [*range(1, 66), 1.01, 4.5])
def test_block_power_matches_pow_to_the_squarings_roundoff(n):
    # repeated squaring for integral n <= 64 errs by at most about
    # (n - 1) roundings relative; np.power is off by up to one more
    s = np.random.default_rng(7).uniform(0.0, 3.0, (3, 50))
    s[0, 0] = 0.0
    got = _block_power(s, float(n), np.empty_like(s))
    want = np.power(s, float(n))
    assert np.all(np.abs(got - want) <= (n + 1) * np.finfo(float).eps * want)
    if n in (1, 2):
        assert np.array_equal(got, want)


def test_lattice_value_is_inf_where_the_winners_power_overflows():
    # the winner's value is recomputed with Python's float power, which
    # raises OverflowError bare; the scan must return inf instead
    tri = CanonicalTriangle(3e100, 1e100, 2e100)
    with np.errstate(over="ignore"):
        x, y, f = _lattice_best(tri.a, tri.b, tri.c, 5.0, 8, tri.vertices(), _lattice_scratch(8))
    assert f == math.inf and math.isfinite(x) and math.isfinite(y)


def _loop_slacks(a, b, c, x, y):
    p = math.hypot(a, b)
    q = math.hypot(a, c)
    return (a * x - b * y + a * b) / p, (-a * x - c * y + a * c) / q, y


def _lattice_best_loop(a, b, c, n, m, window):
    # Scalar reference for oracle._lattice_best: the same barycentric
    # enumeration one point at a time. Each slack is the lattice point's
    # combination of the window corners' slacks, added in the kernel's
    # order; strict < keeps the lowest lattice index on exact ties.
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    corners = list(zip(*(_loop_slacks(a, b, c, x, y) for x, y in window)))
    inv = 1.0 / m
    best_x, best_y, best_f = w1x, w1y, math.inf
    for i in range(m + 1):
        wa = i * inv
        for j in range(m + 1 - i):
            wb = j * inv
            wc = (m - i - j) * inv
            d1, d2, d3 = (abs(wa * s1 + wb * s2 + wc * s3) for s1, s2, s3 in corners)
            f = d1 ** n + d2 ** n + d3 ** n
            if f < best_f:
                best_x = wa * w1x + wb * w2x + wc * w3x
                best_y = wa * w1y + wb * w2y + wc * w3y
                best_f = f
    return best_x, best_y, best_f


def assert_lattice_matches_loop(args):
    # numpy's vectorized pow may round differently from libm's scalar pow,
    # so the value may differ in the last bits; the chosen point may not
    a, b, c, n, m, window = args
    lx, ly, lf = _lattice_best_loop(*args)
    vx, vy, vf = _lattice_best(*args, _lattice_scratch(m))
    assert (vx, vy) == (lx, ly)
    assert abs(vf - lf) <= 2.0 * np.spacing(lf)
    # The interpolated slacks differ from those of the returned point by
    # roundoff on the scale of the window's corner slacks; to first order
    # F moves by n * sum d_i^(n-1) times that.
    d = [abs(s) for s in _loop_slacks(a, b, c, vx, vy)]
    scale = max(abs(s) for corner in window for s in _loop_slacks(a, b, c, *corner))
    bound = 8.0 * np.finfo(float).eps * scale * n * sum(di ** (n - 1.0) for di in d)
    assert abs(vf - sum(di ** n for di in d)) <= bound + 4.0 * np.spacing(vf)


def test_lattice_twins_agree():
    rng = np.random.default_rng(33)
    for _ in range(12):
        tri, _ = canonicalize(random_general_triangle(rng))
        for n in (1.0, 2.0, 4.5, 9.0):
            for m in (7, 32, 64):
                assert_lattice_matches_loop(
                    (tri.a, tri.b, tri.c, float(n), m, tri.vertices())
                )


def test_lattice_twins_agree_on_shrunk_windows():
    # windows produced by zooming are not in canonical position
    window = np.array([[0.1, 0.7], [-0.4, 0.2], [0.8, 0.05]])
    assert_lattice_matches_loop((WORKED.a, WORKED.b, WORKED.c, 5.0, 64, window))


# projected_gradient ---------------------------------------------------------

def test_descent_reaches_worked_minimizer():
    res = projected_gradient(WORKED, 2.0)
    assert np.hypot(res.point[0] - 7.0 / 32.0, res.point[1] - 27.0 / 32.0) < 1e-8
    assert res.value == pytest.approx(81.0 / 32.0, rel=1e-12)
    assert res.iterations > 0


def test_descent_from_near_vertex_start():
    res = projected_gradient(WORKED, 2.0, start=np.array([1.9, 0.05]))
    assert np.hypot(res.point[0] - 7.0 / 32.0, res.point[1] - 27.0 / 32.0) < 1e-8


def test_descent_from_exterior_start_projects_first():
    res = projected_gradient(WORKED, 2.0, start=np.array([50.0, -30.0]))
    assert np.hypot(res.point[0] - 7.0 / 32.0, res.point[1] - 27.0 / 32.0) < 1e-8


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
# non-monotone search locks into a period-2 roundoff cycle. Run to the cap,
# it spins there for 200 000 iterations and returns these same bits.
CYCLING = CanonicalTriangle(36.29203748228868, 7.013765963112165, 277.6955932065455)


def test_descent_stops_on_an_exact_cycle():
    res = projected_gradient(CYCLING, 1.01, config=OracleConfig(pg_max_iters=200_000))
    assert res.point == (-1.116746991587859, 30.513540753128346)
    assert res.value == 37.554006473399156
    assert res.iterations < 1000


@pytest.mark.parametrize(
    "cap, residual", [(200_000, 2.538608576712332e-07), (200_001, 1.269304288356166e-07)]
)
def test_descent_cycle_exit_reports_the_capped_residual(cap, residual):
    # the two phases of the cycle have different step * |grad|; a cycle exit
    # reports the one the capped run ends on, so DidNotConverge decides alike
    a, b, c = CYCLING.a, CYCLING.b, CYCLING.c
    *_, iters, got, capped = _pg_minimize(
        a, b, c, 1.01, (c - b) / 3.0, a / 3.0, 0.1 * CYCLING.diameter(), 1e-10 * a, cap
    )
    assert capped and iters < 1000
    assert got == residual


def test_descent_rejects_subunit_exponent():
    with pytest.raises(InvalidExponent):
        projected_gradient(WORKED, 1.0)
    with pytest.raises(InvalidExponent):
        projected_gradient(WORKED, 0.5)


def test_descent_reports_exhausted_budget():
    with pytest.raises(DidNotConverge):
        projected_gradient(
            WORKED, 3.0,
            start=np.array([1.9, 0.05]),
            config=OracleConfig(pg_max_iters=1),
        )


# F at the centroid is subnormal, so 1 / F overflows
TINY = CanonicalTriangle(1e-160, 1e-160, 1e-160)


def test_descent_refuses_a_start_value_it_cannot_normalize():
    # compare used to take the NaN this returned as its reference value
    with pytest.raises(ArithmeticError):
        projected_gradient(TINY, 2.0)
    with pytest.raises(ArithmeticError):
        compare(TINY, 2.0)


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
    # Step clamps in units of the squared diameter instead of a * a would
    # cap the step near 3e130 here; the line search then halves it back on
    # every iteration, for 13 329 iterations and 13 s of run time.
    # Clamped at 1e30 * a * a the descent stops early, short of the
    # minimizer 1e48 along the valley, and the grid is the better oracle.
    tri = CanonicalTriangle(1.0, 1e50, 0.7e50)
    res = projected_gradient(tri, 5.0)
    assert res.iterations < 1000
    assert res.value >= minimize_closed_form(tri, 5.0).value


def test_descent_refuses_a_start_value_that_underflows_to_zero():
    # F at the centroid is (1e-80)^5 = 0: the run used to normalize by 1
    # instead and return the centroid as the minimizer
    with pytest.raises(OverflowError, match="1 / 0.0"):
        projected_gradient(CanonicalTriangle(1e-80, 2e-80, 3e-80), 5.0)


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


def test_compare_rejects_n1():
    with pytest.raises(InvalidExponent):
        compare(WORKED, 1.0)


PROBE = r"""
import json
from tripowmin.geometry import CanonicalTriangle
from tripowmin.oracle import compare, grid_search, projected_gradient

tri = CanonicalTriangle(3.0, 1.0, 2.0)
gp, gv = grid_search(tri, 3.0)
pg = projected_gradient(tri, 3.0)
rep = compare(tri, 3.0)
print(json.dumps({
    "grid": [float(gp[0]), float(gp[1]), float(gv)],
    "pg": [float(pg.point[0]), float(pg.point[1]), float(pg.value), int(pg.iterations)],
    "compare_passed": bool(rep.passed),
}))
"""


def test_in_process_results_match_subprocess():
    gp, gv = grid_search(WORKED, 3.0)
    pg = projected_gradient(WORKED, 3.0)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["grid"] == [float(gp[0]), float(gp[1]), float(gv)]
    assert got["pg"] == [
        float(pg.point[0]), float(pg.point[1]), float(pg.value), pg.iterations
    ]
    assert got["compare_passed"] is True


# configuration --------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid_resolution": 0},
        {"grid_resolution": -5},
        {"zoom_iterations": -1},
        {"pg_max_iters": 0},
    ],
    # Pinned ids: cases 3-5 (zoom_factor, pg_step, pg_tolerance) went with
    # their fields, and the remaining cases keep the names they had.
    ids=["kwargs0", "kwargs1", "kwargs2", "kwargs6"],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        OracleConfig(**kwargs)


def test_default_config_is_usable():
    cfg = OracleConfig()
    assert cfg.grid_resolution == 128
    assert cfg.zoom_iterations == 10
