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
    out = subprocess.run(
        [sys.executable, "-m", "tripowmin", *args],
        capture_output=True, text=True,
    )
    return out


def run_json(*args):
    out = run_cli(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


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
    "args",
    [
        # OverflowError in the gradient of the KKT certificate
        ["solve", "--canonical", "3e10,1e10,2e10", "--n", "40", "--verify"],
        # OverflowError in (p/q)^(1/(n-1))
        ["solve", "--canonical", "1,0.1,40", "--n", "1.000001"],
        # ZeroDivisionError in the Hessian
        ["solve", "--canonical", "1e-160,1e-160,1e-160", "--n", "2", "--verify"],
    ],
)
def test_arithmetic_error_exits_2_without_traceback(args):
    out = run_cli(*args)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: outside the double range:")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "triangle",
    [["--vertices", "1e200,0 0,1e200 0,0"], ["--canonical", "3e160,1e160,2e160"]],
)
def test_minimizer_outside_double_range_exits_2_not_nan(triangle, fmt):
    out = run_cli("solve", *triangle, "--n", "2", "--format", fmt)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_overflowed_value_at_finite_point_stays_infinity():
    doc = run_json(
        "solve", "--canonical", "300,100,200", "--n", "200", "--format", "json"
    )
    assert doc["value"] == math.inf
    assert math.isfinite(doc["minimizer"]["x"]) and math.isfinite(doc["minimizer"]["y"])


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


def test_verify_impossible_tolerance_exits_3():
    out = run_cli("verify", "--trials", "1", "--seed", "7", "--tol-value", "0")
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
