"""Grid and descent oracles: accuracy against the closed form, determinism,
and honest failure when an iteration budget is too small."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tripowmin import _kernels
from tripowmin.closed_form import minimize_closed_form
from tripowmin.errors import DidNotConverge, InvalidExponent
from tripowmin.geometry import CanonicalTriangle, GeneralTriangle, canonicalize, contains
from tripowmin.kkt import evaluate_F
from tripowmin.oracle import OracleConfig, compare, grid_search, projected_gradient
from tripowmin.sampling import random_general_triangle

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


# lattice scan ---------------------------------------------------------------

def _lattice_best_loop(a, b, c, n, m, window):
    # Scalar reference for _kernels.lattice_best: the same barycentric
    # enumeration one point at a time; strict < keeps the lowest lattice
    # index on exact ties.
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    p = math.hypot(a, b)
    q = math.hypot(a, c)
    inv = 1.0 / m
    best_x, best_y, best_f = w1x, w1y, math.inf
    for i in range(m + 1):
        wa = i * inv
        for j in range(m + 1 - i):
            wb = j * inv
            wc = (m - i - j) * inv
            x = wa * w1x + wb * w2x + wc * w3x
            y = wa * w1y + wb * w2y + wc * w3y
            d1 = abs(a * x - b * y + a * b) / p
            d2 = abs(-a * x - c * y + a * c) / q
            f = d1 ** n + d2 ** n + abs(y) ** n
            if f < best_f:
                best_x, best_y, best_f = x, y, f
    return best_x, best_y, best_f


def assert_lattice_matches_loop(args):
    # numpy's vectorized pow may round differently from libm's scalar pow,
    # so the value may differ in the last bits; the chosen point may not
    lx, ly, lf = _lattice_best_loop(*args)
    vx, vy, vf = _kernels.lattice_best(*args)
    assert (vx, vy) == (lx, ly)
    assert abs(vf - lf) <= 2.0 * np.spacing(lf)


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
