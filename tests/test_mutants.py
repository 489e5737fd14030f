"""How sure is the KKT certificate? Formula mutants of the closed form, and
how many of a seeded set of thin and regular triangles ``kkt_residual``
catches on each.

The counts are pinned: a change that lowers one has to say why. Each
mutant replaces ``closed_form._trilinear_point``, the one formula behind
the minimizer, except the moved point, which shifts the right answer.
"""

import math
import sys

import numpy as np
import pytest

from tripowmin import closed_form
from tripowmin.closed_form import minimize_closed_form
from tripowmin.errors import PointNotFeasible
from tripowmin.geometry import _trilinear_point
from tripowmin.kkt import Verdict, kkt_residual
from triangle_helpers import seeded_triangles

EPS = sys.float_info.epsilon
EXPONENTS = (1.01, 2.0, 5.0, 10.0)


def swapped_sides(a, b, c, lengths, root):
    l1, l2, l3 = lengths
    return _trilinear_point(a, b, c, (l2, l1, l3), root)


def root_one_over_n(a, b, c, lengths, root):
    # root = 1/(n-1), so root / (1 + root) = 1/n
    return _trilinear_point(a, b, c, lengths, root / (1.0 + root))


def dropped_tot_term(a, b, c, lengths, root):
    # _trilinear_point with the base's term left out of tot
    l1, l2, l3 = lengths
    longest = max(lengths)
    r1, r2, r3 = l1 / longest, l2 / longest, l3 / longest
    w1, w2, w3 = r1**root, r2**root, r3**root
    tot = r1 * w1 + r2 * w2
    h = a * r3 / tot
    return (c * r1 * w1 - b * r2 * w2) / tot, h * w3, h, tot


MUTANTS = {
    "swapped sides": swapped_sides,
    "root 1/n": root_one_over_n,
    "dropped tot term": dropped_tot_term,
}

# (caught, cases where the mutant moves the point), per mutant, n and class
PINNED = {
    ("moved 1e-12 diameter", 1.01): {"regular": (64, 64), "thin": (64, 64)},
    ("moved 1e-12 diameter", 2.0): {"regular": (64, 64), "thin": (64, 64)},
    ("moved 1e-12 diameter", 5.0): {"regular": (64, 64), "thin": (64, 64)},
    ("moved 1e-12 diameter", 10.0): {"regular": (64, 64), "thin": (64, 64)},
    ("swapped sides", 1.01): {"regular": (41, 64), "thin": (25, 64)},
    ("swapped sides", 2.0): {"regular": (64, 64), "thin": (64, 64)},
    ("swapped sides", 5.0): {"regular": (64, 64), "thin": (64, 64)},
    ("swapped sides", 10.0): {"regular": (64, 64), "thin": (64, 64)},
    ("root 1/n", 1.01): {"regular": (64, 64), "thin": (64, 64)},
    ("root 1/n", 2.0): {"regular": (64, 64), "thin": (64, 64)},
    ("root 1/n", 5.0): {"regular": (64, 64), "thin": (64, 64)},
    ("root 1/n", 10.0): {"regular": (64, 64), "thin": (64, 64)},
    ("dropped tot term", 1.01): {"regular": (62, 62), "thin": (64, 64)},
    ("dropped tot term", 2.0): {"regular": (64, 64), "thin": (64, 64)},
    ("dropped tot term", 5.0): {"regular": (64, 64), "thin": (64, 64)},
    ("dropped tot term", 10.0): {"regular": (64, 64), "thin": (64, 64)},
}


@pytest.fixture(scope="module")
def caught():
    """The table of (caught, moved) counts, and each case a mutant moved
    but the certificate let pass, as (mutant, n, triangle, right, point)."""
    rng = np.random.default_rng(7)
    table, misses = {}, []

    def tally(name, n, cls, tri, right, point):
        caught, moved = table.setdefault((name, n), {}).setdefault(cls, (0, 0))
        if point == right:
            return
        try:
            hit = kkt_residual(tri, n, point).verdict is not Verdict.SATISFIED
        except PointNotFeasible:  # outside the triangle: caught as well
            hit = True
        table[name, n][cls] = (caught + hit, moved + 1)
        if not hit:
            misses.append((name, n, tri, right, point))

    for thin, tri in seeded_triangles():
        cls = "thin" if thin else "regular"
        for n in EXPONENTS:
            right = minimize_closed_form(tri, n).point_canonical
            # no false rejection: the right answer is certified everywhere
            assert kkt_residual(tri, n, right).verdict is Verdict.SATISFIED, (tri, n)
            t = rng.uniform(0.0, 2.0 * math.pi)
            step = 1e-12 * tri.diameter()
            moved = (right[0] + step * math.cos(t), right[1] + step * math.sin(t))
            tally("moved 1e-12 diameter", n, cls, tri, right, moved)
            for name, mutant in MUTANTS.items():
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(closed_form, "_trilinear_point", mutant)
                    point = minimize_closed_form(tri, n).point_canonical
                tally(name, n, cls, tri, right, point)
    return table, misses


def test_mutant_catch_counts_are_pinned(caught):
    table, _ = caught
    # one line per mutant, n and class, shown in the log under `pytest -s`
    for (name, n), classes in table.items():
        for cls, (hit, moved) in classes.items():
            print(f"MUTANTS {name} n={n:g} {cls}: caught {hit} of {moved} moved")
    assert table == PINNED


def test_the_one_blind_spot_is_swapped_sides_near_n_1(caught):
    # BC, opposite the apex at the largest angle, is the longest side, and
    # at n = 1.01 the weights (L_i / L_BC)^100 of AB and AC fall below
    # eps unless the two are nearly as long: the minimizer rounds onto the
    # apex, where AB and AC meet, and swapping their lengths moves it by a
    # few ulps of the diameter, inside the band the certificate allows
    _, misses = caught
    assert {(name, n) for name, n, *_ in misses} == {("swapped sides", 1.01)}
    for _, _, tri, right, point in misses:
        assert math.dist(right, point) <= 16.0 * EPS * tri.diameter()
