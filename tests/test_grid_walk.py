"""How many times does a grid line search read F near n = 1? Reads of
each of ``grid_search``'s two searches, by decade of its minimizer's
distance to the nearer end of its interval, at n = 1.01 and 1.001, on a
seeded set of thin and regular triangles.

Near n = 1 the minimizer hugs a side and then a vertex, decades nearer an
end than the golden point where Brent's search starts. Closing in by
golden sections, 0.618 a read, the same searches at n = 1.01 read F up
to 16 times at 1e-1 of the interval, 21 at 1e-2, then 25, 29, 33, 36
and 37 at 1e-7; the walk of ``oracle._norm_min``, 16 times nearer a
read, bounds that. The maxima are pinned: a change that needs more reads has to say
why, and one that needs fewer updates the table.
"""

import math
import statistics

from tripowmin import oracle
from tripowmin.oracle import grid_search
from triangle_helpers import seeded_triangles

EXPONENTS = (1.01, 1.001)

# the most reads of one search, per n and decade k of the minimizer's
# distance d to its side, 10^-k <= d / h < 10^(1-k); 0 is an end check's
# answer, d = 0
MAX_READS = {
    (1.01, 0): 4, (1.01, 1): 17, (1.01, 2): 18, (1.01, 3): 19, (1.01, 4): 19,
    (1.01, 5): 19, (1.01, 6): 19, (1.01, 7): 17,
    (1.001, 0): 4, (1.001, 1): 14, (1.001, 2): 17, (1.001, 3): 19,
    (1.001, 4): 18, (1.001, 5): 19, (1.001, 6): 17, (1.001, 7): 16,
}


def _decade(x, h):
    d = min(x, h - x) / h
    return 0 if d == 0.0 else math.ceil(-math.log10(d))


def test_grid_reads_near_a_side_are_pinned(monkeypatch):
    table = {}
    norm_min = oracle._norm_min

    def recording(cu, cv, h, n):
        x, fx, reads = norm_min(cu, cv, h, n)
        table.setdefault((n, _decade(x, h)), []).append(reads)
        return x, fx, reads

    monkeypatch.setattr(oracle, "_norm_min", recording)
    for _, tri in seeded_triangles(per_class=256):
        for n in EXPONENTS:
            grid_search(tri, n)
    # one line per n and decade, shown in the log under `pytest -s`
    for (n, k), reads in sorted(table.items()):
        where = f"1e-{k}" if k else "end"
        print(
            f"GRIDWALK n={n:g} {where}: mean {statistics.mean(reads):.1f} "
            f"max {max(reads)} of {len(reads)}"
        )
    assert {key: max(reads) for key, reads in table.items()} == MAX_READS
