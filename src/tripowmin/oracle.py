"""Brute-force minimizers used to certify the closed form.

Two independent numeric routes that never touch the closed-form formulas:
a zooming barycentric grid scan and projected gradient descent. ``compare``
runs both against the closed form and reports the gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import _kernels
from .closed_form import minimize_closed_form
from .errors import DidNotConverge, _check_exponent
from .geometry import CanonicalTriangle, Point


ZOOM_FACTOR = 4.0  # window radius shrink per zoom pass of the grid scan
PG_TOLERANCE = 1e-10  # descent stops once step * |grad| <= PG_TOLERANCE * a


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for both oracles.

    ``zoom_iterations`` counts the window-shrink steps after the initial
    full-triangle scan.
    """

    grid_resolution: int = 128
    zoom_iterations: int = 10
    pg_max_iters: int = 200_000  # room for thin triangles to converge

    def __post_init__(self):
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")
        if self.zoom_iterations < 0:
            raise ValueError("zoom_iterations must be >= 0")
        if self.pg_max_iters < 1:
            raise ValueError("pg_max_iters must be >= 1")


class PgResult(NamedTuple):
    point: Point
    value: float
    iterations: int


@dataclass(frozen=True)
class DiscrepancyReport:
    point_gap: float
    value_gap_rel: float
    oracle_value: float
    closed_form_value: float
    passed: bool


def grid_search(tri: CanonicalTriangle, n, config: Optional[OracleConfig] = None):
    """Deterministic zooming lattice scan; returns (point, value).

    The first pass scans a barycentric lattice over the whole triangle.
    Every later pass scans an equilateral window centered on the best
    point seen so far, with the window radius shrinking by ZOOM_FACTOR
    per pass; the running best only ever improves, so the returned value
    is monotone in zoom_iterations. Equilateral windows keep the margin
    around the running best isotropic, which matters on thin triangles:
    a window shaped like the triangle itself leaves almost no room along
    the short direction and can wall off the flat valley floor. Window
    corners are re-projected onto the triangle, keeping the lattice
    feasible when the minimizer sits on the boundary, as it does for
    n = 1. Ties go to the lowest lattice index and nothing depends on
    thread count, so reruns are bit-identical.

    A pass costs three ``pow``s per lattice point (8385 points at the
    default resolution), about 55% of its time except at n = 2, where
    numpy squares instead; each point's slacks are interpolated from the
    window corners' slacks in place, and its coordinates are formed only
    for the winner. The work arrays belong to this call, so concurrent
    scans share nothing.
    """
    cfg = config if config is not None else OracleConfig()
    n = float(n)
    a, b, c = tri.a, tri.b, tri.c
    window = list(tri.vertices())
    radius = tri.diameter()
    half_rt3 = 0.5 * math.sqrt(3.0)
    scratch = _kernels.lattice_scratch(cfg.grid_resolution)
    best_x, best_y, best_f = 0.0, 0.0, math.inf
    for _ in range(cfg.zoom_iterations + 1):
        lx, ly, lf = _kernels.lattice_best(
            a, b, c, n, cfg.grid_resolution, window, scratch
        )
        if lf < best_f:
            best_x, best_y, best_f = lx, ly, lf
        radius /= ZOOM_FACTOR
        for k, (ox, oy) in enumerate(
            ((0.0, 1.0), (-half_rt3, -0.5), (half_rt3, -0.5))
        ):
            window[k] = _kernels.project_point(
                a, b, c, best_x + radius * ox, best_y + radius * oy
            )
    return Point(best_x, best_y), float(best_f)


def projected_gradient(
    tri: CanonicalTriangle, n, start=None, config: Optional[OracleConfig] = None
) -> PgResult:
    """Projected descent from ``start`` (default: centroid), n > 1.

    The first step is 0.1 * diameter; the step then adapts freely in both
    directions. Stops once step * |grad| <= PG_TOLERANCE * a, or early on
    an exact cycle that would otherwise spin to the cap. Raises
    DidNotConverge only when the iteration cap is hit, or such a cycle
    would hit it, with that residual still above 100x the threshold; a
    capped run that is merely slow to polish returns normally and the
    caller sees its iteration count.
    """
    n = _check_exponent(n)
    cfg = config if config is not None else OracleConfig()
    if start is None:  # the centroid
        start = ((-tri.b + tri.c) / 3.0, tri.a / 3.0)
    tol = PG_TOLERANCE * tri.a
    x, y, f, iters, residual, capped = _kernels.pg_minimize(
        tri.a, tri.b, tri.c, n,
        float(start[0]), float(start[1]),
        0.1 * tri.diameter(), tol, int(cfg.pg_max_iters),
    )
    if capped and residual > 100.0 * tol:
        if iters < cfg.pg_max_iters:
            stop = f"entered an exact cycle (stopped at {iters} iterations)"
        else:
            stop = f"hit {cfg.pg_max_iters} iterations"
        raise DidNotConverge(
            f"projected gradient {stop} with "
            f"step*|grad| = {residual:.3e} > {100.0 * tol:.3e}"
        )
    return PgResult(Point(x, y), float(f), int(iters))


def compare(
    tri: CanonicalTriangle,
    n,
    config: Optional[OracleConfig] = None,
    point_tol: float = 1e-6,
    value_tol: float = 1e-9,
) -> DiscrepancyReport:
    """Closed form vs both oracles; gaps measured against the better oracle."""
    closed = minimize_closed_form(tri, n)
    grid_point, grid_value = grid_search(tri, n, config)
    pg = projected_gradient(tri, n, None, config)
    if grid_value <= pg.value:
        oracle_point, oracle_value = grid_point, grid_value
    else:
        oracle_point, oracle_value = pg.point, pg.value
    return _discrepancy(
        closed.point_canonical, closed.value, oracle_point, oracle_value,
        point_tol, value_tol,
    )


def _discrepancy(
    point, value, oracle_point, oracle_value, point_tol: float, value_tol: float
) -> DiscrepancyReport:
    """Gaps between a formula's (point, value) and an oracle's, and whether
    both are within tolerance: point_gap is absolute, the value gap is
    relative to the larger magnitude of the two values."""
    point_gap = math.hypot(point[0] - oracle_point[0], point[1] - oracle_point[1])
    denom = max(abs(oracle_value), abs(value), 1e-300)
    value_gap_rel = float(abs(value - oracle_value) / denom)
    return DiscrepancyReport(
        point_gap=point_gap,
        value_gap_rel=value_gap_rel,
        oracle_value=float(oracle_value),
        closed_form_value=float(value),
        passed=bool(point_gap <= point_tol and value_gap_rel <= value_tol),
    )
