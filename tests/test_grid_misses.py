"""How often does the grid oracle alone miss the minimizer? Misses of
``grid_search`` at ``verify``'s tolerances, per exponent and triangle
class, on a seeded set of thin and regular triangles.

The counts are pinned: a change that raises one has to say why, and one
that lowers one updates the table. ``compare`` still passes a case the
grid misses when the descent meets it. The nested line search misses
none; the lattice scan it replaced missed 23 thin ones at n = 1.01,
where the minimizer hugs a vertex.
"""

import sys

from tripowmin.closed_form import minimize_n1
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


def test_grid_at_n1_gives_minimize_n1s_vertex_and_value():
    # F is affine at n = 1, so each line search's end check returns the
    # vertex itself; its value, the kernel's sum of slacks there, equals the
    # smallest altitude to within the two formulas' rounding
    eps = sys.float_info.epsilon
    for _, tri in seeded_triangles(per_class=256):
        point, value = grid_search(tri, 1.0)
        vertex = minimize_n1(tri)
        assert point == vertex.point, tri
        assert abs(value - vertex.value) <= 2.0 * eps * vertex.value, tri
