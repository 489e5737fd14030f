"""How often does the grid oracle alone miss the minimizer? Misses of
``grid_search`` at ``verify``'s tolerances, per exponent and triangle
class, on a seeded set of thin and regular triangles.

The counts are pinned: a change that raises one has to say why, and one
that lowers one updates the table. ``compare`` still passes a case the
grid misses when the descent meets it; every miss left is at n = 1.01,
where the minimizer hugs a vertex.
"""

from tripowmin.oracle import grid_search
from triangle_helpers import grid_meets, seeded_triangles

EXPONENTS = (1.01, 2.0, 5.0, 10.0)

# (missed, cases) per n and class
PINNED = {
    (1.01, "regular"): (0, 256),
    (1.01, "thin"): (23, 256),
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
            hit = grid_meets(tri, n, *grid_search(tri, n))
            table[n, cls] = (missed + (not hit), cases + 1)
    # one line per n and class, shown in the log under `pytest -s`
    for (n, cls), (missed, cases) in sorted(table.items()):
        print(f"GRIDMISS n={n:g} {cls}: missed {missed} of {cases}")
    assert table == PINNED
