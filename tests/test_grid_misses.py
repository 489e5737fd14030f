"""How often does the grid oracle alone miss the minimizer? Misses of
``grid_search`` at ``verify``'s tolerances, per exponent and triangle
class, on a seeded set of thin and regular triangles.

The counts are pinned: a change that raises one has to say why, and one
that lowers one updates the table. ``compare`` still passes a case the
grid misses when the descent meets it. The line searches miss none; the
lattice scan before them missed 23 thin ones at n = 1.01, where the
minimizer hugs a vertex. At n = 1e3 and 1e6 only the point is judged
(GRIDPOINT rows): there a point a line tolerance delta off moves F by
about n^2 delta^2 relative, beyond verify's value tolerance. The nested
search before the cevian one missed 10 regular and 32 thin points at
n = 1e3, and 255 regular and 252 thin at n = 1e6.
"""

import math
import sys

from tripowmin.closed_form import minimize_closed_form
from tripowmin.oracle import grid_search
from triangle_helpers import grid_meets, seeded_triangles

EXPONENTS = (1.01, 2.0, 5.0, 10.0)

# (missed, cases) per n and class
PINNED = {
    (1.01, "regular"): (0, 256),
    (1.01, "thin"): (0, 256),
    (2.0, "regular"): (0, 256),
    (2.0, "thin"): (0, 256),
    (5.0, "regular"): (0, 256),
    (5.0, "thin"): (0, 256),
    (10.0, "regular"): (0, 256),
    (10.0, "thin"): (0, 256),
}


def test_grid_miss_counts_are_pinned():
    table = {}
    for thin, tri in seeded_triangles(per_class=256):
        cls = "thin" if thin else "regular"
        for n in EXPONENTS:
            missed, cases = table.get((n, cls), (0, 0))
            hit = grid_meets(tri, n, grid_search(tri, n)[0])
            table[n, cls] = (missed + (not hit), cases + 1)
    # one line per n and class, shown in the log under `pytest -s`
    for (n, cls), (missed, cases) in sorted(table.items()):
        print(f"GRIDMISS n={n:g} {cls}: missed {missed} of {cases}")
    assert table == PINNED


LARGE_EXPONENTS = (1e3, 1e6)

# (missed, cases) per n and class, judging the point alone
PINNED_POINTS = {
    (1e3, "regular"): (0, 256),
    (1e3, "thin"): (0, 256),
    (1e6, "regular"): (0, 256),
    (1e6, "thin"): (0, 256),
}


def test_grid_point_miss_counts_at_large_n_are_pinned():
    table = {}
    for thin, tri in seeded_triangles(per_class=256):
        cls = "thin" if thin else "regular"
        for n in LARGE_EXPONENTS:
            missed, cases = table.get((n, cls), (0, 0))
            truth = minimize_closed_form(tri, n).point_canonical
            hit = math.dist(grid_search(tri, n)[0], truth) <= 1e-5 * tri.diameter()
            table[n, cls] = (missed + (not hit), cases + 1)
    for (n, cls), (missed, cases) in sorted(table.items()):
        print(f"GRIDPOINT n={n:g} {cls}: missed {missed} of {cases}")
    assert table == PINNED_POINTS


def test_grid_at_n1_gives_the_closed_forms_vertex_and_value():
    # F is affine at n = 1, so each line search's end check returns the
    # vertex itself; its value, the kernel's sum of slacks there, equals the
    # smallest altitude to within the two formulas' rounding
    eps = sys.float_info.epsilon
    for _, tri in seeded_triangles(per_class=256):
        point, value = grid_search(tri, 1.0)
        vertex = minimize_closed_form(tri, 1.0)
        assert point == vertex.point_canonical, tri
        assert abs(value - vertex.value) <= 2.0 * eps * vertex.value, tri
