"""Grid and descent oracles: accuracy against the closed form, determinism,
and honest failure when an iteration budget is too small."""

import dataclasses
import json
import math
import os
import random
import subprocess
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
from tripowmin.geometry import (
    CanonicalTriangle, GeneralTriangle, _projector, _side_lengths, _slacks, canonicalize
)
from tripowmin.kkt import _frame, _log_value, _powers, _value, evaluate_F
from tripowmin.oracle import (
    ZOOM_FACTOR, OracleConfig, _block_power, _discrepancy, _grid, _lattice, _lattice_best,
    compare, grid_search, projected_gradient,
)
from tripowmin.sampling import random_general_triangle
from triangle_helpers import (
    contains, frozen_compare, frozen_grid_search, frozen_log_F, frozen_projected_gradient,
    grid_meets, seeded_triangles,
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


def _bits(result):
    (x, y), f = result
    return x.hex(), y.hex(), f.hex()


def test_grid_search_is_reentrant():
    # numpy releases the GIL inside its ufuncs, and a short switch interval
    # interleaves the threads between them, so two scans that shared work
    # arrays would overwrite each other's values
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


def test_grid_misses_few_thin_triangles():
    # thinness (height over base) 1e-3..1e-2, where each early pass is a
    # full-height slab; at verify's tolerances, applied to the grid alone,
    # 27 of these 800 miss, against 92 with equilateral windows
    rng = random.Random(15)
    misses = 0
    for k in range(800):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        tau = 10.0 ** rng.uniform(-3.0, -2.0)
        b = rng.uniform(0.05, 0.95)
        tri = CanonicalTriangle(scale * tau, scale * b, scale * (1.0 - b))
        n = (1.01, 2.0, 5.0, 10.0)[k % 4]
        misses += not grid_meets(tri, n, *grid_search(tri, n))
    assert misses <= 35


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


def _offsets(sigma):
    # the window corners' offsets per unit radius
    half_rt3 = 0.5 * math.sqrt(3.0)
    return (0.0, sigma), (-half_rt3, -0.5 * sigma), (half_rt3, -0.5 * sigma)


def _lattice_arrays(m):
    # _lattice(m)'s arrays: the corners' 3 x 3 block of slacks under its
    # memoryview, and the two work arrays
    _, _, slack, _, s, r, _ = _lattice(m)
    return np.asarray(slack), s, r


@pytest.mark.parametrize("m", [1, 42, 96])
def test_lattice_work_arrays_start_on_a_cache_line(m):
    weights, columns, slack, corners, s, r, rows = _lattice(m)
    block = np.asarray(slack)
    assert np.shares_memory(block, corners) and np.array_equal(block.T, corners)
    assert block.shape == (3, 3) and block.flags.c_contiguous
    for work in (s, r):
        assert work.shape == weights.shape and work.flags.c_contiguous
    for array in (block, s, r):
        assert array.__array_interface__["data"][0] % 64 == 0
    assert not any(np.shares_memory(x, y) for x, y in ((block, s), (block, r), (s, r)))
    assert columns == tuple(map(tuple, weights.T.tolist()))
    # each work array's rows, as views made once
    for work, views in zip((s, r), rows):
        assert len(views) == 3
        for view, row in zip(views, work):
            assert view.__array_interface__ == row.__array_interface__


@pytest.mark.parametrize("m", [1, 42])
def test_lattice_is_made_once_per_thread(m):
    # a thread's later scans reuse its first scan's arrays; another thread
    # gets arrays of its own
    mine = _lattice_arrays(m)
    assert _lattice(m) is _lattice(m)
    assert all(np.shares_memory(x, y) for x, y in zip(mine, _lattice_arrays(m)))
    theirs = []
    thread = threading.Thread(target=lambda: theirs.extend(_lattice_arrays(m)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(theirs) == 3
    assert not any(np.shares_memory(x, y) for x in mine for y in theirs)


def _pass(window, corners, lattice, power):
    # one lattice pass over the window whose corners have these slacks
    slack = lattice[2]
    for j, corner in enumerate(corners):
        slack[j, 0], slack[j, 1], slack[j, 2] = corner
    return _lattice_best(np, window, lattice, power)


def _zoom_scan(a, b, c, n, m, passes, offsets):
    # The zoom schedule as a plain loop over oracle._lattice_best and
    # geometry._projector, in the units of a, b, c: m lattice steps a pass,
    # every window corner projected and its slacks formed by _slacks, each
    # pass scored by its winner's lattice value; returns the best point.
    p, q, base = _side_lengths(a, b, c)
    project = _projector(a, b, c)
    window = [(0.0, a), (-b, 0.0), (c, 0.0)]
    radius = max(p, q, base)
    lattice, power = _lattice(m), _block_power(n)
    with np.errstate(over="ignore"):
        for k in range(passes):
            corners = [_slacks(a, b, c, p, q, x, y) for x, y in window]
            lx, ly, lf = _pass(window, corners, lattice, power)
            if k == 0 or lf < best_f:
                best_x, best_y, best_f = lx, ly, lf
            radius /= ZOOM_FACTOR
            window = [project(lx + radius * ox, ly + radius * oy) for ox, oy in offsets]
    return best_x, best_y


def _dense_grid_search(tri, n):
    # A denser reference scan: 11 passes of 96 lattice steps with
    # equilateral windows, on every triangle, in the triangle's own units.
    x, y = _zoom_scan(tri.a, tri.b, tri.c, n, 96, 11, _offsets(1.0))
    return (x, y), evaluate_F(tri, n, (x, y))


def _reference_grid_search(tri, n):
    # grid_search as its docstring tells it, at the default config: on the
    # triangle scaled by the power of two that puts the inradius in
    # [0.5, 1), 12 passes of 42 steps, the windows sigma times as tall as
    # equilateral ones, sigma = min(1, 2a / max(b, c)).
    p, q, base = _side_lengths(tri.a, tri.b, tri.c)
    shift = -math.frexp(tri.a * (base / (p + q + base)))[1]
    a, b, c = (math.ldexp(v, shift) for v in (tri.a, tri.b, tri.c))
    offsets = _offsets(min(1.0, 2.0 * a / max(b, c)))
    x, y = (math.ldexp(v, -shift) for v in _zoom_scan(a, b, c, n, 42, 12, offsets))
    return (x, y), evaluate_F(tri, n, (x, y))


def test_coarse_zoom_lattice_misses_nothing_the_dense_one_meets():
    # thinness 2 * area / diameter^2 from 1e-3 to 0.85, with the base the
    # longest side, so the thinness is the height over the base: 42
    # steps a pass on windows stretched along the base lose no case that
    # 96 steps on equilateral windows meet
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
            if grid_meets(tri, n, *_dense_grid_search(tri, n)) and not grid_meets(
                tri, n, *grid_search(tri, n)
            ):
                lost.append((tri, n))
    assert not lost, lost


# (x, y, F) at n = 1.01, 2, 5, 10 where 2a >= max(b, c), so that every
# window is equilateral: the bits of the scan with unstretched windows;
# 2a = max(b, c) on the second triangle
EQUILATERAL_WINDOW_BITS = {
    (3.0, 1.0, 2.0): [
        ("-0x1.ffff4ee39e2f4p-1", "0x1.5fa08959f817cp-26", "0x1.4271833adb1d5p+1"),
        ("0x1.c0000074a05e4p-3", "0x1.affffffbf842ap-1", "0x1.43fffffffffffp+1"),
        ("0x1.0e33e99203a67p-2", "0x1.cdc0e3946a8e3p-1", "0x1.fc1177efd8ed9p+0"),
        ("0x1.167be871eaf2dp-2", "0x1.d34df05f288f2p-1", "0x1.518b5b258835ap+0"),
    ],
    (1.0, 0.5, 2.0): [
        ("-0x1.ac7857e287982p-18", "0x1.fffe5387a81d8p-1", "0x1.fffffbb7714c9p-1"),
        ("0x1.008bc05ab3560p-27", "0x1.000000239a855p-1", "0x1.0000000000000p-1"),
        ("0x1.0fa50dab62207p-3", "0x1.ca0e1233157a0p-2", "0x1.47fd6cf65831ep-5"),
        ("0x1.501d81c7d40ecp-3", "0x1.beb30463d8864p-2", "0x1.2bebe98929e53p-11"),
    ],
}


@pytest.mark.parametrize("abc", sorted(EQUILATERAL_WINDOW_BITS))
def test_grid_keeps_equilateral_windows_where_2a_reaches_max_b_c(abc):
    tri = CanonicalTriangle(*abc)
    got = [_bits(grid_search(tri, n)) for n in (1.01, 2.0, 5.0, 10.0)]
    assert got == EQUILATERAL_WINDOW_BITS[abc]


def test_grid_windows_on_a_thin_triangle_are_sigma_times_as_tall(monkeypatch):
    # 2a / max(b, c) = 1e-3: every zoom window that no corner left is an
    # equilateral one squeezed to 1e-3 of its height
    tri = CanonicalTriangle(0.02, 1.3, 40.0)
    sigma = 2.0 * tri.a / tri.c
    passes = []

    def recording(np_, window, lattice, power):
        best = _lattice_best(np_, window, lattice, power)
        passes.append((list(window), best))
        return best

    monkeypatch.setattr(oracle, "_lattice_best", recording)
    grid_search(tri, 2.0)
    inside = 0
    for (_, (lx, ly, _)), ((top, left, right), _) in zip(passes, passes[1:]):
        if left[1] != right[1] or top[0] != 0.5 * (left[0] + right[0]):
            continue  # a corner was projected
        inside += 1
        width, height = right[0] - left[0], top[1] - left[1]
        assert height / width == pytest.approx(sigma * math.sqrt(3.0) / 2.0, rel=1e-9)
        # centred on the last pass's winner
        assert top[0] == lx
        assert (top[1] + left[1] + right[1]) / 3.0 == pytest.approx(ly, rel=1e-12)
    # the first five zoom windows reach past a side
    assert inside == 6


@pytest.mark.parametrize(
    "tri, passes",
    [
        (WORKED, [946] * 12),
        (CanonicalTriangle(0.4, 3.5, 4.5), [946] * 12),
        (CanonicalTriangle(math.nextafter(0.4, 0.0), 3.5, 4.5), [946] * 12),
        (CanonicalTriangle(1.0, 1e160, 1e160), [946] * 12),
    ],
)
def test_grid_pass_schedule(monkeypatch, tri, passes):
    # the points each pass scans, the same on every triangle: a change
    # that adds work fails here
    seen = []

    def recording(np_, window, lattice, power):
        seen.append(lattice[0].shape[1])
        return _lattice_best(np_, window, lattice, power)

    monkeypatch.setattr(oracle, "_lattice_best", recording)
    grid_search(tri, 2.0)
    assert seen == passes


def test_grid_matches_its_plain_reference_bit_for_bit():
    # grid_search forms each window corner's slacks from its own inside
    # test and projects only the corners outside; the reference projects
    # every corner and forms the slacks with _slacks
    rng = random.Random(21)
    cases = []
    for k in range(48):
        tau = 10.0 ** rng.uniform(-3.0, math.log10(0.85))  # thin and regular
        half = math.sqrt(1.0 - tau * tau)
        b = rng.uniform(1.0 - half, half)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        tri = CanonicalTriangle(scale * tau, scale * b, scale * (1.0 - b))
        cases.append((tri, (1.01, 2.0, 5.0, 10.0)[k % 4]))
    # at n = 1.01 the minimizer hugs a vertex and corners fall outside; on
    # the last triangle one corner runs along the side AB, on it to roundoff
    cases += [
        (CanonicalTriangle(*abc), 1.01)
        for abc in ((1.0, 0.1, 3.0), (0.3, 2.0, 0.5), (1.0, math.sqrt(3.0), 1.0))
    ]
    # slivers, where far corners' products overflow in the scan's units
    for abc in ((1.0, 1e160, 1e160), (1e-160, 1.0, 1.0)):
        cases += [(CanonicalTriangle(*abc), n) for n in (1.01, 5.0)]
    for k in (-600, 600):
        tri = CanonicalTriangle(*(math.ldexp(v, k) for v in (WORKED.a, WORKED.b, WORKED.c)))
        cases += [(tri, n) for n in (1.01, 2.0, 10.0)]
    projected = []

    def counting(a, b, c):
        project = _projector(a, b, c)

        def wrapped(x, y):
            out = project(x, y)
            projected.append(out != (x, y))
            return out

        return wrapped

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tri, n in cases:
            want = _bits(_reference_grid_search(tri, n))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_projector", counting)
                got = _bits(grid_search(tri, n))
            assert got == want, (tri, n)
    # the projection's slow path ran, and only on corners outside
    assert projected and all(projected)


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


# lattice scan ---------------------------------------------------------------

@pytest.mark.parametrize("n", [*range(1, 66), 1.01, 4.5])
def test_block_power_matches_pow_to_the_squarings_roundoff(n):
    # repeated squaring for integral n <= 64 errs by at most about
    # (n - 1) roundings relative; np.power is off by up to one more
    s = np.random.default_rng(7).uniform(0.0, 3.0, (3, 50))
    s[0, 0] = 0.0
    got = _block_power(float(n))(s, np.empty_like(s))
    want = np.power(s, float(n))
    assert np.all(np.abs(got - want) <= (n + 1) * np.finfo(float).eps * want)
    if n in (1, 2):
        assert np.array_equal(got, want)


def test_lattice_value_is_inf_where_the_winners_power_overflows():
    # the winner's value is recomputed in the triangle's own units with
    # Python's float power, which raises OverflowError bare; the scan must
    # return inf instead
    tri = CanonicalTriangle(3e100, 1e100, 2e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (x, y), f = grid_search(tri, 5.0, OracleConfig(grid_resolution=8, zoom_iterations=1))
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
    p, q, _ = _side_lengths(a, b, c)
    corners = [_slacks(a, b, c, p, q, x, y) for x, y in window]
    vx, vy, vf = _pass(window, corners, _lattice(m), _block_power(n))
    assert (vx, vy) == (lx, ly)
    # The interpolated slacks differ from those of the returned point by
    # roundoff on the scale of the window's corner slacks; to first order
    # F moves by n * sum d_i^(n-1) times that.
    d = [abs(s) for s in _loop_slacks(a, b, c, vx, vy)]
    scale = max(abs(s) for corner in window for s in _loop_slacks(a, b, c, *corner))
    bound = 8.0 * np.finfo(float).eps * scale * n * sum(di ** (n - 1.0) for di in d)
    assert abs(lf - sum(di ** n for di in d)) <= bound + 4.0 * np.spacing(lf)
    # the lattice value the scan scores its passes by
    assert abs(vf - lf) <= bound + 4.0 * np.spacing(lf)


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


@pytest.mark.parametrize("n", [2.0, 10.0])
def test_lattice_twins_agree_on_a_window_poking_out(n):
    # a corner 1e-12 below the base gives lattice points a negative slack;
    # even n skips the abs, and (-s)^n must still equal s^n bit for bit
    window = np.array([[0.1, 0.7], [-0.4, 0.2], [0.8, -1e-12]])
    assert_lattice_matches_loop((WORKED.a, WORKED.b, WORKED.c, n, 64, window))


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


def _extreme_case(rng):
    # scales 1e-12..1e12; regular shapes, flat ones with apex height down
    # to 1e-8 and needles with base down to 1e-6 of the height; n - 1
    # log-uniform from 1e-4 to 59
    scale = 10.0 ** rng.uniform(-12.0, 12.0)
    kind = rng.randrange(3)
    if kind == 0:
        a, b, c = rng.uniform(0.2, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
    elif kind == 1:
        a, b, c = 10.0 ** rng.uniform(-8.0, 0.0), rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
    else:
        width = 10.0 ** rng.uniform(-6.0, 0.0)
        a, b, c = 1.0, width * rng.uniform(0.05, 1.0), width * rng.uniform(0.05, 1.0)
    n = 1.0 + 10.0 ** rng.uniform(-4.0, math.log10(59.0))
    return CanonicalTriangle(scale * a, scale * b, scale * c), n


def test_descent_on_extreme_inputs_is_right_or_refuses():
    # from the incenter every case answers; from the centroid 19 refused
    # (F or the Newton determinant beyond the normal doubles) and needles
    # at large n took up to 689 steps. F itself reads 0 or inf on some,
    # so values are compared in logs.
    rng = random.Random(1707)
    for _ in range(1000):
        tri, n = _extreme_case(rng)
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


def _hexed(value):
    # every float as its hex string, through tuples and dataclasses
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return type(value).__name__, tuple(map(_hexed, value))
    return value


def _outcome(f, *args):
    # the result in hex, or the type and message of the error raised
    try:
        return _hexed(f(*args))
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _n1_grid(tri):
    # solve --verify's grid oracle at n = 1: point, value and log F
    x, y, k = _grid(tri, 1.0, None)
    return (x, y), _value(k), _log_value(k)


def _frozen_n1_grid(tri):
    point, value = frozen_grid_search(tri, 1.0)
    return tuple(point), value, frozen_log_F(tri, 1.0, point)


def test_oracles_match_their_frozen_copy_bit_for_bit():
    # each answer's value and log F now come from one kernel read, the
    # closed form's from one _trilinear_point call, and a grid pass
    # allocates nothing; none of it may move a bit or change an error
    cases = [(tri, n) for _, tri in seeded_triangles() for n in (1.01, 2.0, 5.0, 10.0)]
    for abc in ((1.0, 1e160, 1e160), (1e-160, 1.0, 1.0)):  # slivers
        cases += [(CanonicalTriangle(*abc), n) for n in (1.01, 5.0)]
    for k in (-600, 600):
        tri = CanonicalTriangle(*(math.ldexp(v, k) for v in (WORKED.a, WORKED.b, WORKED.c)))
        cases += [(tri, n) for n in (1.01, 2.0, 10.0)]
    # errors: n out of range for the closed form and for the descent, a
    # minimizer beyond the doubles and a descent out of steps
    cases += [(WORKED, n) for n in (1.0, 0.5, math.nan, math.inf, 1e19)]
    cases += [(CanonicalTriangle(1e308, 1e308, 1.7e308), 2.0)]
    few_steps = OracleConfig(grid_resolution=8, zoom_iterations=1, pg_max_iters=1)
    for tri, n in cases:
        for new, old in (
            (compare, frozen_compare),
            (grid_search, frozen_grid_search),
            (projected_gradient, frozen_projected_gradient),
        ):
            assert _outcome(new, tri, n) == _outcome(old, tri, n), (new, tri, n)
        assert _outcome(compare, tri, n, few_steps) == _outcome(
            frozen_compare, tri, n, few_steps
        ), (tri, n)
    # the grid alone at n = 1, as solve --verify runs it
    for _, tri in seeded_triangles(16):
        assert _outcome(_n1_grid, tri) == _outcome(_frozen_n1_grid, tri), tri
    # a start off the open triangle
    start = (0.0, 0.0)
    assert _outcome(projected_gradient, WORKED, 2.0, start) == _outcome(
        frozen_projected_gradient, WORKED, 2.0, start
    )


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
