"""Every reader of F, pinned by one checked-in digest.

Each line of ``digest.txt`` is ``reader group sha256``: the sha256 over
one group of calls, per call the float.hex of every field of the result
(ints, bools and strings as text, a Verdict by its value), or the type
and message of the error raised. The readers and their groups, each
seeded group split by exponent and triangle class:

- ``closed_form``: ``minimize_closed_form``'s point, value and
  log_value on ``seeded_triangles(per_class=256)`` at n in {1, 1.01, 2,
  5, 10}, and on the named cases;
- ``kkt_residual`` and ``evaluate_F``: at the ``certificate_points`` of
  ``seeded_triangles()`` at the same n, which reach both failing
  verdicts, so the failure path's multipliers and residuals are pinned;
- ``grid_search``: the 256-per-class set at n = 1 and the exponents of
  the DESCENT table, and the named cases;
- ``compare``: the same set at n = 1 and the DESCENT exponents, at
  ``verify``'s tolerances, and the named cases;
- ``descent`` (``projected_gradient``, also the point and iteration
  count): the same set at the DESCENT exponents, the extreme stream of
  ``random.Random(1707)`` in blocks of 100, a one-step budget on the
  seeded set, and the named cases, each also under a one-step budget,
  with a start off the triangle; a budget is set by patching
  ``oracle._MAX_STEPS``;
- every reader on ``WIDE``, whose perimeter overflows although its
  inradius is 0.5 (group ``named 1,1,1e308``).

The named cases are two slivers, the worked triangle scaled 2^-600 and
2^600, n = 1 and exponents out of range, and a triangle whose sides leave
the doubles.

No input passes through a numpy matrix product, whose fused
multiply-adds vary with the BLAS kernel numpy picks at run time: the
seeded triangles come from numpy's PCG64 stream, rotated and scaled in
plain floats, and the package runs on the standard library alone. The
bits do rest on the C library's pow, log, exp, hypot, sin and cos, which
Python's float operations call, so a platform whose libm rounds one of
them differently can move lines that no code change moved.

A change that moves bits on purpose rewrites the file with

    PYTHONPATH=src python tests/digest.py

which prints each label whose hash changed, old -> new, and lists those
labels in CHANGES.md with the reason.
"""

import dataclasses
import enum
import hashlib
import math
import random
from pathlib import Path

from tripowmin.closed_form import minimize_closed_form
from tripowmin.geometry import CanonicalTriangle, incenter
from tripowmin.kkt import evaluate_F, kkt_residual
from tripowmin import oracle
from tripowmin.oracle import compare, grid_search, projected_gradient
from triangle_helpers import extreme_case, seeded_triangles

DIGEST_FILE = Path(__file__).with_name("digest.txt")
# the closed form's and the certificate's exponents
EXPONENTS = (1.01, 2.0, 5.0, 10.0)
# the exponents of tests/test_descent_steps.py's DESCENT table
DESCENT = (1.0 + 1e-6, 1.001, 1.01, 1.1, 2.0, 5.0, 10.0, 1e6)
WORKED = CanonicalTriangle(3.0, 1.0, 2.0)
WIDE = CanonicalTriangle(1.0, 1.0, 1e308)


def certificate_points(tri, n):
    """The points where the certificate is read: the closed form's point
    and two points just off it, the incenter, the foot of the apex's
    altitude, the midpoints of the two upper sides and the vertices."""
    x, y = minimize_closed_form(tri, n).point_canonical
    a = tri.a
    return [
        (x, y), (x + 1e-12 * a, y), (x, y - 1e-9 * a), incenter(tri),
        (0.0, 0.0), (0.5 * tri.c, 0.5 * a), (-0.5 * tri.b, 0.5 * a),
        *tri.vertices(),
    ]


def _named_cases():
    cases = []
    for abc in ((1.0, 1e160, 1e160), (1e-160, 1.0, 1.0)):  # slivers
        cases += [(CanonicalTriangle(*abc), n) for n in (1.01, 5.0)]
    for k in (-600, 600):
        tri = CanonicalTriangle(*(math.ldexp(v, k) for v in (WORKED.a, WORKED.b, WORKED.c)))
        cases += [(tri, n) for n in (1.01, 2.0, 10.0)]
    # n = 1 and exponents out of range, and sides beyond the doubles
    cases += [(WORKED, n) for n in (1.0, 0.5, math.nan, math.inf, 1e19)]
    cases += [(CanonicalTriangle(1e308, 1e308, 1.7e308), 2.0)]
    return cases


def _closed_form(tri, n):
    res = minimize_closed_form(tri, n)
    return res.point_canonical, res.value, res.log_value


def _compare(tri, n):
    return compare(tri, n, point_tol=1e-5 * tri.diameter(), value_tol=1e-8)


def _one_step(tri, n):
    # the descent with a budget of one Newton step
    saved, oracle._MAX_STEPS = oracle._MAX_STEPS, 1
    try:
        return projected_gradient(tri, n)
    finally:
        oracle._MAX_STEPS = saved


def _descent(tri, n, start=None, one_step=False):
    return _one_step(tri, n) if one_step else projected_gradient(tri, n, start)


def _tokens(value):
    if isinstance(value, float):
        yield value.hex()
    elif isinstance(value, tuple):  # points, records and active sets
        for v in value:
            yield from _tokens(v)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _tokens(getattr(value, field.name))
    elif isinstance(value, enum.Enum):
        yield str(value.value)
    else:  # ints, bools and strings
        yield str(value)


def _digest(f, calls):
    h = hashlib.sha256()
    for args in calls:
        try:
            line = " ".join(_tokens(f(*args)))
        except Exception as exc:  # recorded, not handled
            line = f"{type(exc).__name__}: {exc}"
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _groups():
    """(label, reader, the argument tuples of its calls) per line."""
    seeded = seeded_triangles(per_class=256)
    small = seeded_triangles()

    def per_class(reader, f, exponents, triangles=seeded):
        for n in exponents:
            for thin, cls in ((False, "regular"), (True, "thin")):
                calls = [(tri, n) for t, tri in triangles if t == thin]
                yield f"{reader} seeded n={n!r} {cls}", f, calls

    def at_points(calls):
        return [(tri, n, point) for tri, n in calls for point in certificate_points(tri, n)]

    named = _named_cases()
    wide = [(WIDE, n) for n in EXPONENTS]
    yield from per_class("closed_form", _closed_form, (1.0,) + EXPONENTS)
    yield "closed_form named", _closed_form, named
    yield "closed_form named 1,1,1e308", _closed_form, wide
    for reader, f in ("kkt_residual", kkt_residual), ("evaluate_F", evaluate_F):
        for label, _, calls in per_class(reader, f, (1.0,) + EXPONENTS, small):
            yield label, f, at_points(calls)
        yield f"{reader} named 1,1,1e308", f, at_points(wide)
    yield from per_class("grid_search", grid_search, (1.0,) + DESCENT)
    yield "grid_search named", grid_search, named
    yield "grid_search named 1,1,1e308", grid_search, [(WIDE, 1.0)] + wide
    yield from per_class("compare", _compare, (1.0,) + DESCENT)
    yield "compare named", _compare, named
    yield "compare named 1,1,1e308", _compare, wide

    yield from per_class("descent", projected_gradient, DESCENT)
    rng = random.Random(1707)
    stream = [extreme_case(rng) for _ in range(1000)]
    for first in range(0, len(stream), 100):
        calls = stream[first:first + 100]
        yield f"descent extreme {first}-{first + 99}", projected_gradient, calls
    calls = [(tri, n) for _, tri in seeded for n in DESCENT]
    yield "descent one-step seeded", _one_step, calls
    calls = named + [(tri, n, None, True) for tri, n in named]
    calls.append((WORKED, 2.0, (0.0, 0.0)))  # a start off the open triangle
    yield "descent named", _descent, calls
    yield "descent named 1,1,1e308", projected_gradient, wide


def digest_lines():
    """The file's lines, each "reader group sha256"."""
    return [f"{label} {_digest(f, calls)}" for label, f, calls in _groups()]


def moved(want, got):
    """Each label whose hash differs between two sets of lines, as
    "label: old -> new", with "none" for a label one side lacks."""
    old = dict(line.rsplit(" ", 1) for line in want)
    new = dict(line.rsplit(" ", 1) for line in got)
    return [
        f"{label}: {old.get(label, 'none')} -> {new.get(label, 'none')}"
        for label in dict.fromkeys([*old, *new])
        if old.get(label) != new.get(label)
    ]


if __name__ == "__main__":
    want = DIGEST_FILE.read_text().splitlines() if DIGEST_FILE.exists() else []
    got = digest_lines()
    DIGEST_FILE.write_text("".join(line + "\n" for line in got))
    changes = moved(want, got)
    print(*changes, sep="\n")
    print(f"wrote {DIGEST_FILE.name}: {len(changes)} of {len(got)} labels changed")
