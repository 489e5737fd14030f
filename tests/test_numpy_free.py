"""The package runs on the standard library: the certify path, both
oracles, `solve`, with or without `--verify`, and `verify` must print the
same in a child interpreter in which importing numpy raises as in one with
numpy available."""

import subprocess
import sys

import pytest

BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"

# the README quickstart's steps, then the other numpy-free entry points
LIBRARY = """
import tripowmin as tp

tri, motion = tp.canonicalize(tp.GeneralTriangle((0, 3), (-1, 0), (2, 0)))
res = tp.minimize_closed_form(tri, 2.0, isometry=motion)
print(res)
print(motion.to_original(res.point_canonical))
print(tp.kkt_residual(tri, 2.0, res.point_canonical))
print(tp.incenter(tri))
print(tp.minimize_closed_form(tri, 1.0))
print(tp.projected_gradient(tri, 2.0))
print(tp.grid_search(tri, 2.0))
print(tp.grid_search(tri, 1.0))
print(tp.compare(tri, 2.0))
"""

CLI = """
import runpy
runpy.run_module("tripowmin", run_name="__main__", alter_sys=True)
"""


def run_child(code, *args, numpy_blocked):
    prefix = BLOCK_NUMPY if numpy_blocked else ""
    return subprocess.run(
        [sys.executable, "-c", prefix + code, *args], capture_output=True, text=True
    )


def assert_same_without_numpy(code, *args):
    without = run_child(code, *args, numpy_blocked=True)
    assert without.returncode == 0, without.stderr
    with_numpy = run_child(code, *args, numpy_blocked=False)
    assert with_numpy.returncode == 0, with_numpy.stderr
    assert without.stdout == with_numpy.stdout
    assert without.stdout


def test_library_certify_path_runs_without_numpy():
    assert_same_without_numpy(LIBRARY)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("n", ["2", "1"])
def test_solve_runs_without_numpy(n, fmt):
    assert_same_without_numpy(
        CLI, "solve", "--vertices", "0,3 -1,0 2,0", "--n", n, "--format", fmt
    )


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("n", ["2", "1"])
def test_solve_verify_runs_without_numpy(n, fmt):
    assert_same_without_numpy(
        CLI, "solve", "--vertices", "0,3 -1,0 2,0", "--n", n, "--format", fmt,
        "--verify",
    )


def test_verify_runs_without_numpy():
    assert_same_without_numpy(CLI, "verify", "--trials", "5", "--seed", "7")
