import csv
import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

WORKED_ARGS = ["--vertices", "0,3 -1,0 2,0"]
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args):
    # a descent that spins fails here rather than holding the whole run
    out = subprocess.run(
        [sys.executable, "-m", "tripowmin", *args],
        capture_output=True, text=True, timeout=120,
    )
    return out


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def run_json(*args):
    out = run_cli(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout, parse_constant=refuse_constant)


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


# solve ----------------------------------------------------------------------

def test_solve_json_worked_example():
    doc = run_json("solve", *WORKED_ARGS, "--n", "2", "--format", "json")
    assert doc["triangle"] == [[0.0, 3.0], [-1.0, 0.0], [2.0, 0.0]]
    assert doc["canonical"]["a"] == pytest.approx(3.0, rel=1e-14)
    assert doc["canonical"]["b"] == pytest.approx(1.0, rel=1e-14)
    assert doc["canonical"]["c"] == pytest.approx(2.0, rel=1e-14)
    assert doc["n"] == 2.0
    assert doc["minimizer"]["x"] == pytest.approx(7.0 / 32.0, rel=1e-12)
    assert doc["minimizer"]["y"] == pytest.approx(27.0 / 32.0, rel=1e-12)
    assert doc["value"] == pytest.approx(81.0 / 32.0, rel=1e-13)
    assert doc["constants"]["lambda"] == pytest.approx(32.0 / math.sqrt(13.0), rel=1e-13)
    # triangle was supplied already in frame position
    assert doc["minimizer_original"]["x"] == pytest.approx(doc["minimizer"]["x"])
    assert doc["kkt"] is None
    assert doc["oracle"] is None


def test_solve_json_with_verify_fills_certificates():
    doc = run_json("solve", *WORKED_ARGS, "--n", "2", "--format", "json", "--verify")
    assert doc["kkt"]["verdict"] == "satisfied"
    assert doc["kkt"]["active_set"] == []
    assert doc["kkt"]["stationarity_residual"] < 1e-9
    assert doc["kkt"]["hessian_fxx"] > 0.0
    assert doc["oracle"]["passed"] is True
    assert doc["oracle"]["point_gap"] < 1e-6
    assert doc["oracle"]["value_gap_rel"] < 1e-9


def test_solve_json_schema_is_stable():
    keys = {"triangle", "canonical", "n", "minimizer", "minimizer_original",
            "value", "constants", "kkt", "oracle"}
    plain = run_json("solve", *WORKED_ARGS, "--n", "2", "--format", "json")
    checked = run_json("solve", *WORKED_ARGS, "--n", "2", "--format", "json", "--verify")
    assert set(plain) == keys
    assert set(checked) == keys


def test_solve_canonical_isosceles():
    doc = run_json("solve", "--canonical", "2,1,1", "--n", "2", "--format", "json")
    assert doc["minimizer"]["x"] == 0.0
    assert doc["minimizer"]["y"] == pytest.approx(4.0 / 7.0, rel=1e-14)
    assert doc["value"] == pytest.approx(8.0 / 7.0, rel=1e-14)


def test_solve_csv_header_and_digits():
    out = run_cli("solve", *WORKED_ARGS, "--n", "2", "--format", "csv")
    assert out.returncode == 0
    rows = read_csv(out.stdout)
    assert rows[0] == ["n", "x", "y", "x_original", "y_original", "value",
                       "p", "q", "t", "r", "lambda"]
    assert rows[1][0] == "2"
    assert rows[1][1] == "0.21875"
    assert rows[1][5] == "2.53125"
    # twelve significant digits
    assert rows[1][6] == "3.16227766017"


def test_solve_text_mentions_all_sections():
    out = run_cli("solve", *WORKED_ARGS, "--n", "2", "--verify")
    assert out.returncode == 0
    for token in ("canonical:", "minimizer (canonical):", "value:", "constants:",
                  "kkt:", "oracle:"):
        assert token in out.stdout


def test_solve_formats_agree_to_twelve_digits():
    doc = run_json("solve", *WORKED_ARGS, "--n", "3", "--format", "json")
    out = run_cli("solve", *WORKED_ARGS, "--n", "3", "--format", "csv")
    row = read_csv(out.stdout)[1]
    assert row[1] == "%.12g" % doc["minimizer"]["x"]
    assert row[2] == "%.12g" % doc["minimizer"]["y"]
    assert row[5] == "%.12g" % doc["value"]


def test_solve_n1_returns_vertex_and_null_constants():
    doc = run_json("solve", *WORKED_ARGS, "--n", "1", "--format", "json")
    assert doc["minimizer"] == {"x": -1.0, "y": 0.0}
    assert doc["value"] == pytest.approx(9.0 / math.sqrt(13.0), rel=1e-13)
    assert doc["constants"] is None
    assert doc["kkt"] is None


def test_solve_n1_with_verify_uses_grid_only():
    doc = run_json("solve", *WORKED_ARGS, "--n", "1", "--format", "json", "--verify")
    assert doc["kkt"] is None
    assert doc["oracle"]["passed"] is True


def test_solve_general_triangle_reports_original_frame():
    # worked triangle rotated by 90 degrees: canonical answer is unchanged,
    # the original-frame minimizer rotates with the input
    doc = run_json(
        "solve", "--vertices", "-3,0 0,-1 0,2", "--n", "2", "--format", "json"
    )
    assert doc["canonical"]["a"] == pytest.approx(3.0, rel=1e-13)
    assert doc["minimizer"]["x"] == pytest.approx(7.0 / 32.0, rel=1e-10)
    assert doc["minimizer"]["y"] == pytest.approx(27.0 / 32.0, rel=1e-10)
    assert doc["minimizer_original"]["x"] == pytest.approx(-27.0 / 32.0, rel=1e-10)
    assert doc["minimizer_original"]["y"] == pytest.approx(7.0 / 32.0, rel=1e-10)


def test_solve_rotated_right_triangle_frames_the_right_angle():
    # the 3-4-5 triangle at (1, 1) turned by 2 degrees: the sign of the
    # right angle's dot is rounding, and the apex went to an acute corner
    # ("altitude foot falls outside the base segment", exit 2)
    out = run_cli(
        "solve", "--vertices",
        "0.8604020131899961,4.9975633080763835 1.0,1.0 3.998172481057287,1.104698490107503",
        "--n", "2", "--verify",
    )
    assert out.returncode == 0, out.stderr
    assert "canonical: a=2.4 b=1.8 c=3.2\n" in out.stdout


# bad inputs exit 2 ----------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--vertices", "0,0 1,1 2,2", "--n", "2"],  # collinear
        ["solve", *WORKED_ARGS, "--n", "0.5"],
        ["solve", *WORKED_ARGS, "--n", "nan"],
        ["solve", *WORKED_ARGS, "--canonical", "2,1,1", "--n", "2"],
        ["solve", "--n", "2"],
        ["solve", "--vertices", "0,3 -1,0", "--n", "2"],
        ["solve", "--vertices", "0,3 -1,0 2,zebra", "--n", "2"],
        ["solve", "--vertices", "nan,0 1,0 0,1", "--n", "2"],
        ["solve", "--vertices", "0,0 1,inf 0,1", "--n", "2"],
        ["solve", "--canonical", "2,1", "--n", "2"],
        ["solve", "--canonical", "-2,1,1", "--n", "2"],
        ["sequence", *WORKED_ARGS, "--n-list", "1,2"],
        ["sequence", *WORKED_ARGS, "--n-list", ""],
        ["sequence", *WORKED_ARGS, "--n-max", "1"],
        ["sequence", *WORKED_ARGS],
        ["sequence", *WORKED_ARGS, "--n-list", "2", "--n-max", "4"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-3"],
        ["verify", "--trials", "1", "--tol-point", "-1"],
    ],
)
def test_invalid_input_exits_2(args):
    out = run_cli(*args)
    assert out.returncode == 2
    assert out.stdout == "" or "passed" not in out.stdout


@pytest.mark.parametrize(
    "flag, value",
    [("--tol-point", "-1"), ("--tol-value", "nan"), ("--tol-point", "nan"),
     ("--tol-value", "-0.5"), ("--tol-point", "zebra")],
)
@pytest.mark.parametrize(
    "command", [["solve", *WORKED_ARGS, "--n", "2", "--verify"], ["verify", "--trials", "1"]]
)
def test_tolerance_must_be_a_non_negative_number(command, flag, value):
    # a negative or NaN tolerance fails every comparison, which would read
    # as "verification failed" (exit 3) rather than as bad input
    out = run_cli(*command, flag, value)
    assert out.returncode == 2
    assert f"argument {flag}: must be a non-negative number" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        # OverflowError: the base b + c overflows, so the point is NaN
        ["solve", "--canonical", "1,1e308,1e308", "--n", "2"],
        # OverflowError: canonicalize's frame has a base of about 3.4e308
        ["solve", "--vertices", "0,1.7e308 -1.7e308,-1.7e308 1.7e308,-1.7e308",
         "--n", "2"],
        # the kernel's frame refuses the triangle: the certificate refused the
        # closed form's right point with a PointNotFeasible traceback
        ["solve", "--canonical", "1e-300,1e300,1e300", "--n", "2", "--verify"],
        # the kernel's frame refuses the triangle: the grid's point, at
        # x = 1e301, failed the right vertex (exit 3)
        ["solve", "--canonical", "1,1e308,1e308", "--n", "1", "--verify"],
    ],
    # args1 is the id it had among the commands that the certificate and
    # the descent refused before they worked in ratio units
    ids=["args1", "frame-beyond-the-doubles", "certificate-beyond-the-inradius-unit",
         "grid-beyond-the-inradius-unit"],
)
def test_arithmetic_error_exits_2_without_traceback(args):
    out = run_cli(*args)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: outside the double range:")
    # float ** raised with a bare "(34, 'Numerical result out of range')"
    assert "out of range" not in out.stderr


def test_a_frame_below_the_least_subnormal_exits_2_naming_it():
    # a valid triangle whose height, about 1e-12 of its base, rounds to 0
    # in the apex frame: the message names the frame, not a parameter the
    # caller never gave
    verts = ("-5.4930016e-317,-1.490926e-317 -8.43071785e-316,8.71187984e-316 "
             "-4.490009e-316,4.28139364e-316")
    out = run_cli("solve", "--vertices", verts, "--n", "2")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == (
        "error: apex frame (a, b, c) = (0.0, 5.92945143e-316, 5.9294515e-316) "
        "underflows below the least subnormal double, 5e-324\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "triangle",
    # the base length overflows
    [["--vertices", "-1e308,0 1e308,0 0,1e308"], ["--canonical", "1,1e308,1e308"]],
)
def test_minimizer_outside_double_range_exits_2_not_nan(triangle, fmt):
    out = run_cli("solve", *triangle, "--n", "2", "--format", fmt)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "triangle, n, point, rel",
    [
        # every weight but the base's underflows: the apex, to double precision
        (["--canonical", "1,0.1,40"], "1.000001", (0.0, 1.0), 0.0),
        (["--canonical", "1e-160,1e-160,1e-160"], "2", (0.0, 5e-161), 0.0),
        (["--canonical", "3e160,1e160,2e160"], "2", (2.1875e159, 8.4375e159), 1e-14),
        # right isosceles: the midpoint of the altitude to the hypotenuse
        (["--vertices", "1e200,0 0,1e200 0,0"], "2", (2.5e199, 2.5e199), 1e-14),
        (["--vertices", "1e-200,0 0,1e-200 0,0"], "2", (2.5e-201, 2.5e-201), 1e-14),
    ],
)
def test_extreme_but_valid_input_gets_its_answer(triangle, n, point, rel):
    doc = run_json("solve", *triangle, "--n", n, "--format", "json")
    got = doc["minimizer_original"]
    assert got["x"] == pytest.approx(point[0], rel=rel, abs=rel * point[1])
    assert got["y"] == pytest.approx(point[1], rel=rel, abs=0.0)


@pytest.mark.parametrize(
    "canonical, n",
    [
        # the descent's step clamps were absolute: it cycled for 103 728
        # iterations and exited 3 at 1e-20, and ran for minutes at 1e-150
        ("1e-20,1e-20,1e-20", "2"),
        ("1e-150,1e-150,1e-150", "2"),
        # the grid's window projection overflowed (numpy warned on stderr)
        ("1,1e160,1e160", "5"),
        # each exited 2 while the certificate formed raw powers d_i^(n-1):
        # the gradient overflowed,
        ("3e10,1e10,2e10", "40"),
        ("1e50,1e50,1e50", "7.5"),
        ("300,100,200", "200"),
        # a * b was subnormal or overflowed in the raw slacks,
        ("1e-160,1e-160,1e-160", "2"),
        ("3e160,1e160,2e160", "2"),
        # and the gradient scale was subnormal (F at the descent's start,
        # the centroid, underflowed to 0 as well)
        ("1e-80,2e-80,3e-80", "5"),
        # needles whose base squared to 0 in the grid's projection, which
        # divided by it: float division by zero
        ("1,1e-200,1e-200", "2"),
        ("1,1e-200,1e-200", "5"),
        ("1,1e-300,1e-300", "2"),
        ("1,1e-300,1e-300", "5"),
        ("1,1e-170,3e-170", "2"),
        ("1,1e-170,3e-170", "5"),
    ],
)
def test_solve_verify_passes_at_the_ends_of_the_scale(canonical, n):
    out = run_cli("solve", "--canonical", canonical, "--n", n, "--format", "json",
                  "--verify")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    doc = json.loads(out.stdout)
    assert doc["kkt"]["verdict"] == "satisfied"
    assert doc["oracle"]["passed"] is True


@pytest.mark.parametrize("n", ["1.000001", "1.001", "1e9"])
def test_solve_verify_passes_at_the_ends_of_the_exponent_range(n):
    # the Cartesian certificate read multiplier_negative at the vertex that
    # n just above 1 rounds the minimizer onto, and stationarity_failed at
    # n = 1e9, where rounding moves r_i^(n-1) by about n eps; both exited 3.
    # n = 1e12 still exits 3, on the oracle's value tolerance
    out = run_cli("solve", "--canonical", "3,1,2", "--n", n, "--format", "json",
                  "--verify")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["kkt"]["verdict"] == "satisfied"
    assert doc["oracle"]["passed"] is True


@pytest.mark.parametrize("n", ["1", "1.01", "2", "5", "10"])
def test_solve_verify_passes_where_the_perimeter_overflows(n):
    # the perimeter of (1, 1, 1e308) overflows, which made the frame read
    # its inradius, 0.5, as 0 and refuse the triangle: exit 2
    doc = run_json("solve", "--canonical", "1,1,1e308", "--n", n, "--format", "json",
                   "--verify")
    assert doc["oracle"]["passed"] is True
    if n != "1":  # n = 1 has no certificate
        assert doc["kkt"]["verdict"] == "satisfied"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: compare judges the value on a fixed 1e-9, "
    "below F's rounding at n = 1e6",
)
def test_solve_verify_passes_on_a_correct_answer_at_n_1e6():
    # the point gap is 5.2e-16 and value_gap_rel 1.86e-9 against the fixed
    # 1e-9, so a correct answer exits 3; 19 of the 512 triangles of the
    # DESCENT table fail compare the same way at n = 1e6
    out = run_cli(
        "solve", "--canonical",
        "0.0010042922141610309,0.0016673662158644238,0.003972062156937602",
        "--n", "1e6", "--format", "json", "--verify",
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["kkt"]["verdict"] == "satisfied"
    assert doc["oracle"]["passed"] is True


@pytest.mark.parametrize("canonical", ["1,1,1", "3,1,2"])
def test_solve_verify_names_an_exponent_beyond_the_descent(canonical):
    # the Newton determinant read 0.0 (1,1,1) or inf (3,1,2), refused as
    # "outside the double range" although the input is in range
    out = run_cli("solve", "--canonical", canonical, "--n", "1e300", "--verify")
    assert out.returncode == 2
    assert out.stderr.startswith("error: exponent 1e+300 is beyond the descent oracle")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("canonical", ["3,1,2", "0.003,0.001,0.002", "3000,1000,2000"])
def test_solve_verify_verdicts_do_not_depend_on_the_unit(canonical):
    doc = run_json(
        "solve", "--canonical", canonical, "--n", "5", "--format", "json", "--verify"
    )
    assert doc["kkt"]["verdict"] == "satisfied"
    assert doc["oracle"]["passed"] is True


@pytest.mark.parametrize(
    "canonical, x", [("3e-200,1e-200,2e-200", -1e-200), ("3e200,1e200,2e200", -1e200)]
)
def test_solve_n1_verify_passes_at_the_ends_of_the_scale(canonical, x):
    # the altitudes formed a * base, which left the doubles: at 1e-200 the
    # value read 0 and --verify exited 2 on its log, at 1e200 vertex A won
    # and --verify exited 3
    out = run_cli("solve", "--canonical", canonical, "--n", "1", "--format", "json",
                  "--verify")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["minimizer"] == {"x": x, "y": 0.0}
    assert doc["oracle"]["passed"] is True


def test_solve_n1_value_is_the_least_altitude_where_base_over_side_underflows():
    # a * (base / q) read 0: base / q underflows, the altitude does not
    doc = run_json("solve", "--canonical", "1e300,1e-300,1e-300", "--n", "1",
                   "--format", "json")
    assert doc["minimizer"] == {"x": -1e-300, "y": 0.0}
    assert doc["value"] == pytest.approx(2e-300, rel=1e-15, abs=0.0)


def test_solve_n1_verify_accepts_any_point_of_a_minimizing_side():
    # altitudes from B and C tie, so the whole base minimizes; the grid
    # oracle lands near C while the vertex rule picks B
    doc = run_json("solve", "--canonical", "2,1,1", "--n", "1", "--format", "json",
                   "--verify")
    assert doc["minimizer"] == {"x": -1.0, "y": 0.0}
    assert doc["oracle"]["point_gap"] > 1.0
    assert doc["oracle"]["passed"] is True


def test_overflowed_value_at_finite_point_stays_infinity():
    args = ["solve", "--canonical", "300,100,200", "--n", "200"]
    assert "value: inf\n" in run_cli(*args).stdout
    # JSON has no Infinity: the value is null, the point finite
    doc = run_json(*args, "--format", "json")
    assert doc["value"] is None
    assert math.isfinite(doc["minimizer"]["x"]) and math.isfinite(doc["minimizer"]["y"])


@pytest.mark.parametrize(
    "args, path",
    [
        # the Hessian's determinant overflows at a certified point
        (["solve", "--canonical", "3e25,1e25,2e25", "--n", "10", "--verify"],
         ("kkt", "hessian_det")),
        # the minimum's value overflows
        (["sequence", "--canonical", "300,100,200", "--n-list", "2,200"],
         ("rows", 1, "value")),
    ],
)
def test_json_writes_non_finite_floats_as_null(args, path):
    doc = run_json(*args, "--format", "json")
    for key in path:
        doc = doc[key]
    assert doc is None


def test_sequence_checks_every_exponent_before_printing():
    out = run_cli("sequence", *WORKED_ARGS, "--n-list", "2,1,3")
    assert out.returncode == 2
    assert out.stdout == ""


# sequence -------------------------------------------------------------------

def test_sequence_csv_shape_and_limit_row():
    out = run_cli("sequence", "--canonical", "2,1,1", "--n-max", "8", "--format", "csv")
    assert out.returncode == 0
    rows = read_csv(out.stdout)
    assert rows[0] == ["n", "x", "y", "value", "dist_to_incenter"]
    assert len(rows) == 9  # header + n=2..8 + limit
    body, limit = rows[1:-1], rows[-1]
    assert [r[0] for r in body] == ["2", "3", "4", "5", "6", "7", "8"]
    # symmetric triangle: the whole path sits on the axis
    assert all(r[1] == "0" for r in body)
    dists = [float(r[4]) for r in body]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert limit[0] == "limit"
    assert limit[3] == ""
    assert float(limit[4]) == 0.0
    assert float(limit[2]) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-11)


def test_sequence_accepts_fractional_exponents():
    out = run_cli("sequence", *WORKED_ARGS, "--n-list", "1.5,2.5,3.25", "--format", "csv")
    assert out.returncode == 0
    rows = read_csv(out.stdout)
    assert [r[0] for r in rows[1:-1]] == ["1.5", "2.5", "3.25"]


def test_sequence_reports_original_frame_points():
    # rotated input: canonical x stays near 0.25-ish, original frame differs
    out = run_cli(
        "sequence", "--vertices", "-3,0 0,-1 0,2", "--n-list", "2", "--format", "csv"
    )
    rows = read_csv(out.stdout)
    assert float(rows[1][1]) == pytest.approx(-27.0 / 32.0, rel=1e-10)
    assert float(rows[1][2]) == pytest.approx(7.0 / 32.0, rel=1e-10)
    limit = rows[-1]
    # limit row carries the original-frame incenter
    denom = math.sqrt(10.0) + math.sqrt(13.0) + 3.0
    assert float(limit[1]) == pytest.approx(-9.0 / denom, rel=1e-10)


def test_sequence_json_has_rows_and_limit():
    out = run_cli("sequence", "--canonical", "2,1,1", "--n-max", "4", "--format", "json")
    doc = json.loads(out.stdout)
    assert [row["n"] for row in doc["rows"]] == [2.0, 3.0, 4.0]
    assert doc["limit"]["x"] == 0.0


# verify ---------------------------------------------------------------------

def test_verify_fifty_trials_pass():
    out = run_cli("verify", "--trials", "50", "--seed", "7")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "50/50 passed"


def test_verify_is_seed_deterministic():
    a = run_cli("verify", "--trials", "5", "--seed", "11")
    b = run_cli("verify", "--trials", "5", "--seed", "11")
    assert a.stdout == b.stdout and a.returncode == b.returncode


@pytest.mark.parametrize("value", ["-1", "-7", "zebra"])
def test_verify_seed_must_be_a_non_negative_integer(value):
    # random.Random(-s) draws the stream of random.Random(s), so a negative
    # seed would silently repeat a non-negative one
    out = run_cli("verify", "--trials", "1", "--seed", value)
    assert out.returncode == 2
    assert "argument --seed: must be a non-negative integer" in out.stderr
    assert out.stdout == ""


def test_verify_impossible_tolerance_exits_3():
    # a zero point gap would need the oracle's point to the last bit; a
    # zero value gap, read from log values, does occur
    out = run_cli("verify", "--trials", "1", "--seed", "7", "--tol-point", "0")
    assert out.returncode == 3
    assert "0/1 passed" in out.stdout
    assert "FAIL" in out.stderr


# README examples ------------------------------------------------------------

@pytest.mark.parametrize(
    "command, newline",
    [
        ('solve --vertices "0,3 -1,0 2,0" --n 2 --format text', "\n"),
        # csv rows end in CRLF (RFC 4180); the README shows them with LF
        ('sequence --vertices "0,3 -1,0 2,0" --n-list 2,4,8,16 --format csv', "\r\n"),
    ],
)
def test_readme_example_output_byte_for_byte(command, newline):
    prompt = f"$ tripowmin {command}\n"
    text = README.read_text()
    start = text.index(prompt) + len(prompt)
    expected = text[start:text.index("```", start)].replace("\n", newline)
    out = subprocess.run(
        [sys.executable, "-m", "tripowmin", *shlex.split(command)],
        capture_output=True,
    )
    assert out.returncode == 0
    assert out.stdout == expected.encode()


# plumbing -------------------------------------------------------------------

def test_version_flag():
    out = run_cli("--version")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


def test_help_exits_zero():
    out = run_cli("--help")
    assert out.returncode == 0
    assert "solve" in out.stdout and "sequence" in out.stdout and "verify" in out.stdout


def test_missing_subcommand_exits_2():
    out = run_cli()
    assert out.returncode == 2
