"""The descent oracle's bits, pinned by a checked-in digest.

Each line of ``descent_digest.txt`` is a label and the sha256 over one
group of ``projected_gradient`` calls: per call, the float.hex of the
point and the value and the iteration count, or the type and message of
the error raised. The groups are the seeded triangles of
``seeded_triangles(per_class=256)`` per exponent of the DESCENT table and
triangle class, the extreme stream of ``random.Random(1707)`` in blocks of
100, a one-step budget on the seeded triangles, and a few named cases:
slivers, triangles scaled 2^-600 and 2^600, refused exponents, a minimizer
beyond the doubles and a start off the triangle. The oracles touch
neither numpy nor the BLAS, so the digest holds on any machine with IEEE
doubles.

A change that moves the descent's bits on purpose rewrites the file:

    PYTHONPATH=src python tests/descent_digest.py

and says in CHANGES.md which lines changed and why.
"""

import hashlib
import math
import random
from pathlib import Path

from tripowmin.geometry import CanonicalTriangle
from tripowmin.oracle import OracleConfig, projected_gradient
from triangle_helpers import extreme_case, seeded_triangles

DIGEST_FILE = Path(__file__).with_name("descent_digest.txt")
# the exponents of tests/test_descent_steps.py's DESCENT table
EXPONENTS = (1.0 + 1e-6, 1.001, 1.01, 1.1, 2.0, 5.0, 10.0, 1e6)
WORKED = CanonicalTriangle(3.0, 1.0, 2.0)


def _named_cases():
    cases = []
    for abc in ((1.0, 1e160, 1e160), (1e-160, 1.0, 1.0)):  # slivers
        cases += [(CanonicalTriangle(*abc), n) for n in (1.01, 5.0)]
    for k in (-600, 600):
        tri = CanonicalTriangle(*(math.ldexp(v, k) for v in (WORKED.a, WORKED.b, WORKED.c)))
        cases += [(tri, n) for n in (1.01, 2.0, 10.0)]
    # exponents the descent refuses, and a minimizer beyond the doubles
    cases += [(WORKED, n) for n in (1.0, 0.5, math.nan, math.inf, 1e19)]
    cases += [(CanonicalTriangle(1e308, 1e308, 1.7e308), 2.0)]
    return cases


def _line(*args):
    try:
        (x, y), value, iterations = projected_gradient(*args)
    except Exception as exc:  # recorded, not handled
        return f"{type(exc).__name__}: {exc}"
    return f"{x.hex()} {y.hex()} {value.hex()} {iterations}"


def _digest(calls):
    h = hashlib.sha256()
    for args in calls:
        h.update(_line(*args).encode() + b"\n")
    return h.hexdigest()


def digest_lines():
    """The file's lines, each "label sha256"."""
    seeded = seeded_triangles(per_class=256)
    lines = []
    for n in EXPONENTS:
        for thin, cls in ((False, "regular"), (True, "thin")):
            calls = [(tri, n) for t, tri in seeded if t == thin]
            lines.append(f"seeded n={n!r} {cls} {_digest(calls)}")
    rng = random.Random(1707)
    stream = [extreme_case(rng) for _ in range(1000)]
    for first in range(0, len(stream), 100):
        lines.append(f"extreme {first}-{first + 99} {_digest(stream[first:first + 100])}")
    one_step = OracleConfig(pg_max_iters=1)
    calls = [(tri, n, None, one_step) for _, tri in seeded for n in EXPONENTS]
    lines.append(f"one-step seeded {_digest(calls)}")
    named = _named_cases()
    calls = named + [(tri, n, None, one_step) for tri, n in named]
    calls.append((WORKED, 2.0, (0.0, 0.0)))  # a start off the open triangle
    lines.append(f"named {_digest(calls)}")
    return lines


if __name__ == "__main__":
    DIGEST_FILE.write_text("".join(line + "\n" for line in digest_lines()))
    print(f"wrote {DIGEST_FILE}")
