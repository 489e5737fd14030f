"""Set-up probe: import tripowmin and call each layer a workload uses once.

    PYTHONPATH=src python3 perfbench/warm.py <workload>

Prints ``ready`` once the calls have returned; the benchmark times a fresh
interpreter from its start to that line. Lazy caches (the lattice weight
table) and JIT compilation, when numba is present, happen here.
"""

import contextlib
import io
import sys

workload = sys.argv[1]

import tripowmin as tp  # noqa: E402

VERTS = ((0.0, 3.0), (-1.0, 0.0), (2.0, 0.0))

if workload == "certify-batch":
    tri, iso = tp.canonicalize(tp.GeneralTriangle(*VERTS))
    res = tp.minimize_closed_form(tri, 2.0, isometry=iso)
    tp.kkt_residual(tri, 2.0, res.point_canonical)
elif workload == "oracle-compare":
    tri, _ = tp.canonicalize(tp.GeneralTriangle(*VERTS))
    tp.compare(tri, 2.0, tp.OracleConfig(pg_max_iters=200_000), 1e-5 * tri.diameter(), 1e-8)
elif workload == "cli-cold":
    from tripowmin.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["solve", "--vertices=0,3 -1,0 2,0", "--n", "2", "--format", "json"])
    if code != 0:
        sys.exit(code)
else:
    sys.exit(f"unknown workload {workload!r}")

sys.stdout.write("ready\n")
sys.stdout.flush()
