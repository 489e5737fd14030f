"""How many Newton steps does the descent take inside ``compare``? Steps
of the shared Newton loop, per exponent and triangle class, on the seeded
thin and regular triangles, at ``verify``'s tolerances.

``compare`` starts the descent at the grid's answer, moved a line
tolerance toward the incenter, wherever F is lower there than at the
incenter and the Newton system there is normal. Near n = 1 that start has
its two small slack ratios at about 5e-8, and the minimizer's are far
smaller. While each step could shrink a slack to a tenth of itself at
most, the same cases took a mean 6.97 steps (at most 7) at n = 1 + 1e-6,
6.95 (7) at n = 1.001, 6.70 (7) at n = 1.01 and 2.0 (6) at n = 1.1; the
power-model curve of ``oracle._newton`` takes them to their floor in one
or two. The maxima are pinned with a step of headroom and the means at
the next half step above; a change that needs more has to say why.
"""

import statistics

from tripowmin import oracle
from triangle_helpers import seeded_triangles

# the most steps, and the mean over both classes together, per n
MAX_STEPS = {
    1.0 + 1e-6: 3, 1.001: 3, 1.01: 5, 1.1: 6, 2.0: 2, 5.0: 3, 10.0: 3, 1e6: 11,
}
MEAN_STEPS = {
    1.0 + 1e-6: 2.5, 1.001: 2.0, 1.01: 1.5, 1.1: 1.5,
    2.0: 1.0, 5.0: 1.5, 10.0: 1.5, 1e6: 4.0,
}


def test_descent_steps_inside_compare_are_pinned(monkeypatch):
    steps = []
    newton = oracle._newton

    def recording(*args):
        out = newton(*args)
        steps.append(out[3])
        return out

    monkeypatch.setattr(oracle, "_newton", recording)
    table = {}
    for thin, tri in seeded_triangles(per_class=256):
        cls = "thin" if thin else "regular"
        for n in MAX_STEPS:
            oracle.compare(tri, n, None, 1e-5 * tri.diameter(), 1e-8)
            table.setdefault((n, cls), []).append(steps[-1])
    # one line per n and class, shown in the log under `pytest -s`
    for (n, cls), got in sorted(table.items()):
        print(
            f"DESCENT n={n:.7g} {cls}: mean {statistics.mean(got):.2f} "
            f"max {max(got)} of {len(got)}"
        )
    for n in MAX_STEPS:
        both = table[n, "regular"] + table[n, "thin"]
        assert max(both) <= MAX_STEPS[n], n
        assert statistics.mean(both) <= MEAN_STEPS[n], n
