"""Command line front end: solve, sequence and verify subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import random
import sys

from . import __version__
from .closed_form import minimize_closed_form, minimize_n1
from .errors import (
    DegenerateTriangle,
    DidNotConverge,
    InvalidExponent,
    TriPowMinError,
    _check_exponent,
)
from .geometry import (
    CanonicalTriangle,
    GeneralTriangle,
    Isometry,
    canonicalize,
    incenter,
)
from .kkt import Verdict, _frame, _log_value, _value, kkt_residual
from .oracle import _discrepancy, _grid, compare
from .sampling import random_general_triangle

# output names of DerivedConstants' fields, in order
_CONSTANT_KEYS = ("p", "q", "t", "r", "lambda")


class _CliInputError(ValueError):
    pass


def _fmt(x) -> str:
    """Twelve significant digits; None (a cell with no value) prints empty."""
    if x is None:
        return ""
    # + 0.0 folds negative zero into plain zero before printing
    return "%.12g" % (float(x) + 0.0)


def _kv(fields: dict) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())


def _jsonable(obj):
    """``obj`` in JSON's (RFC 8259) terms, at any depth: a verdict (the one
    non-JSON field of a KktReport) by its value, and each non-finite
    float, which JSON has no literal for, as None, written null."""
    if isinstance(obj, float):
        return obj if -math.inf < obj < math.inf else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Verdict):
        return obj.value
    return obj


def _parse_pair(token: str) -> tuple[float, float]:
    parts = token.split(",")
    if len(parts) != 2:
        raise _CliInputError(f"expected 'x,y', got {token!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _CliInputError(f"bad coordinate in {token!r}") from exc


def _triangle_from_args(args):
    """Returns (canonical triangle, isometry, original vertices as three
    [x, y] lists)."""
    if (args.vertices is None) == (args.canonical is None):
        raise _CliInputError("exactly one of --vertices or --canonical is required")
    if args.vertices is not None:
        tokens = args.vertices.split()
        if len(tokens) != 3:
            raise _CliInputError("--vertices wants three 'x,y' pairs")
        pts = [_parse_pair(t) for t in tokens]
        tri, iso = canonicalize(GeneralTriangle(*pts))
        return tri, iso, [list(p) for p in pts]
    parts = args.canonical.split(",")
    if len(parts) != 3:
        raise _CliInputError("--canonical wants 'a,b,c'")
    try:
        a, b, c = (float(s) for s in parts)
    except ValueError as exc:
        raise _CliInputError(f"bad --canonical value in {args.canonical!r}") from exc
    tri = CanonicalTriangle(a, b, c)
    iso = Isometry(0.0, (0.0, 0.0), 0)
    return tri, iso, [list(v) for v in tri.vertices()]


def _point_dict(pt) -> dict:
    # + 0.0 folds negative zero into plain zero
    return {"x": float(pt[0]) + 0.0, "y": float(pt[1]) + 0.0}


def cmd_solve(args) -> int:
    tri, iso, verts = _triangle_from_args(args)
    n = _check_exponent(args.n, allow_one=True)
    kkt_report = oracle_report = None
    if n == 1.0:
        vm = minimize_n1(tri)
        point_c, value, constants = vm.point, vm.value, None
        if args.verify:
            # tied altitudes make a whole side minimize, so only the value
            # is unique: the point gap is reported but not judged
            gx, gy, grid = _grid(_frame(tri.a, tri.b, tri.c), n)
            oracle_report = _discrepancy(
                point_c, value, math.log(value), (gx, gy), _value(grid),
                _log_value(grid), math.inf, args.tol_value,
            )
    else:
        res = minimize_closed_form(tri, n, isometry=iso)
        point_c, value = res.point_canonical, res.value
        constants = dict(zip(_CONSTANT_KEYS, res.constants))
        if args.verify:
            kkt_report = kkt_residual(tri, n, point_c)
            oracle_report = compare(
                tri, n, None, args.tol_point * tri.diameter(), args.tol_value
            )

    doc = {
        "triangle": verts,
        "canonical": dataclasses.asdict(tri),
        "n": n,
        "minimizer": _point_dict(point_c),
        "minimizer_original": _point_dict(iso.to_original(point_c)),
        "value": value,
        "constants": constants,
        "kkt": None if kkt_report is None else dataclasses.asdict(kkt_report),
        "oracle": None
        if oracle_report is None
        else dataclasses.asdict(oracle_report),
    }
    kkt, oracle = doc["kkt"], doc["oracle"]
    if args.format == "json":
        print(json.dumps(_jsonable(doc), indent=2, allow_nan=False))
    elif args.format == "csv":
        mc, mo = doc["minimizer"], doc["minimizer_original"]
        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["n", "x", "y", "x_original", "y_original", "value", *_CONSTANT_KEYS]
        )
        cells = [n, mc["x"], mc["y"], mo["x"], mo["y"], doc["value"]]
        cells += constants.values() if constants else [None] * 5
        writer.writerow([_fmt(v) for v in cells])
    else:
        print(f"canonical: {_kv(doc['canonical'])}")
        print(f"n: {_fmt(n)}")
        print(f"minimizer (canonical): {_kv(doc['minimizer'])}")
        print(f"minimizer (original): {_kv(doc['minimizer_original'])}")
        print(f"value: {_fmt(doc['value'])}")
        if constants:
            print(f"constants: {_kv(constants)}")
        if kkt:
            print(
                f"kkt: verdict={kkt['verdict'].value} "
                f"stationarity_residual={_fmt(kkt['stationarity_residual'])} "
                f"active_set={list(kkt['active_set'])}"
            )
        if oracle:
            print(
                f"oracle: passed={str(oracle['passed']).lower()} "
                f"point_gap={_fmt(oracle['point_gap'])} "
                f"value_gap_rel={_fmt(oracle['value_gap_rel'])}"
            )

    failed = (kkt and kkt["verdict"] is not Verdict.SATISFIED) or (
        oracle and not oracle["passed"]
    )
    if failed:
        print("verification failed", file=sys.stderr)
        return 3
    return 0


def cmd_sequence(args) -> int:
    tri, iso, _ = _triangle_from_args(args)
    if (args.n_list is None) == (args.n_max is None):
        raise _CliInputError("exactly one of --n-list or --n-max is required")
    if args.n_list is not None:
        ns = [s for s in args.n_list.split(",") if s.strip()]
    else:
        ns = range(2, args.n_max + 1)
    if not ns:
        raise _CliInputError("no exponents: --n-list is empty or --n-max is below 2")
    ns = [_check_exponent(s) for s in ns]

    inc_c = incenter(tri)
    rows = []
    for n in ns:
        res = minimize_closed_form(tri, n, isometry=iso)
        rows.append(
            {
                "n": n,
                "x": res.point_original[0],
                "y": res.point_original[1],
                "value": res.value,
                "dist_to_incenter": math.dist(res.point_canonical, inc_c),
            }
        )
    inc_o = iso.to_original(inc_c)

    if args.format == "json":
        doc = {
            "canonical": dataclasses.asdict(tri),
            "rows": rows,
            "limit": _point_dict(inc_o),
        }
        print(json.dumps(_jsonable(doc), indent=2, allow_nan=False))
        return 0
    table = [["n", "x", "y", "value", "dist_to_incenter"]]
    table += [[_fmt(v) for v in row.values()] for row in rows]
    table.append(["limit", _fmt(inc_o[0]), _fmt(inc_o[1]), "", _fmt(0.0)])
    if args.format == "csv":
        csv.writer(sys.stdout).writerows(table)
    else:
        for line in table:
            print(" ".join([f"{line[0]:>12}"] + [f"{cell:>18}" for cell in line[1:]]))
    return 0


def _verify_trial(tri, n, tol_point_rel, tol_value):
    """Runs all randomized suites on one triangle; returns a list of failure
    strings (empty means the trial passed)."""
    problems = []
    diam = tri.diameter()

    report = compare(tri, n, None, tol_point_rel * diam, tol_value)
    if not report.passed:
        problems.append(
            f"oracle agreement: point_gap={report.point_gap:.3e} "
            f"value_gap_rel={report.value_gap_rel:.3e}"
        )

    res = minimize_closed_form(tri, n)
    mirrored = minimize_closed_form(CanonicalTriangle(tri.a, tri.c, tri.b), n)
    if (
        abs(mirrored.point_canonical[0] + res.point_canonical[0]) > 1e-12 * diam
        or abs(mirrored.point_canonical[1] - res.point_canonical[1]) > 1e-12 * diam
        or abs(mirrored.value - res.value) > 1e-12 * abs(res.value)
    ):
        problems.append("reflection equivariance")

    for s in (0.01, 100.0):
        scaled = minimize_closed_form(
            CanonicalTriangle(s * tri.a, s * tri.b, s * tri.c), n
        )
        if (
            max(map(abs, scaled.point_canonical - s * res.point_canonical))
            > 1e-11 * s * diam
            or abs(scaled.value - s ** n * res.value) > 1e-11 * s ** n * res.value
        ):
            problems.append(f"scale equivariance (s={s})")

    inc = incenter(tri)
    dists = []
    for k in range(6, 15):
        pt = minimize_closed_form(tri, float(2 ** k)).point_canonical
        dists.append(math.dist(pt, inc))
    for prev, nxt in zip(dists, dists[1:]):
        if prev > 0.0 and nxt > 0.7 * prev:
            problems.append("incenter convergence rate")
            break
    if dists[-1] > 1e-3 * diam:
        problems.append("incenter convergence distance")
    return problems


def cmd_verify(args) -> int:
    if args.trials <= 0:
        raise _CliInputError("--trials must be a positive integer")
    rng = random.Random(args.seed)
    n_choices = [2.0, 3.0, 4.0, 5.0, 7.0, 10.0]
    passed = 0
    failures = []
    for trial in range(args.trials):
        general = random_general_triangle(rng)
        tri, _ = canonicalize(general)
        n = rng.choice(n_choices)
        try:
            problems = _verify_trial(tri, n, args.tol_point, args.tol_value)
        except TriPowMinError as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append((trial, tri, n, problems))
        else:
            passed += 1
    print(f"{passed}/{args.trials} passed")
    for trial, tri, n, problems in failures:
        print(
            f"FAIL trial {trial}: triangle a={tri.a:.6g} b={tri.b:.6g} "
            f"c={tri.c:.6g}, n={n:g}: " + "; ".join(problems),
            file=sys.stderr,
        )
    return 0 if passed == args.trials else 3


def _tolerance(text: str) -> float:
    """A tolerance flag's value: a non-negative number, not NaN; argparse
    turns the refusal into a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """The --seed flag's value: a non-negative integer, since
    ``random.Random(-s)`` draws the stream of ``random.Random(s)``."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripowmin",
        description="Minimize the sum of n-th powered distances to a "
        "triangle's sides, with certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared_flags(p):
        p.add_argument(
            "--vertices",
            help="three vertices as 'x1,y1 x2,y2 x3,y3' (quoted)",
        )
        p.add_argument("--canonical", help="apex-frame parameters 'a,b,c'")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    def add_tolerance_flags(p, tol_point, tol_value):
        p.add_argument(
            "--tol-point", type=_tolerance, default=tol_point,
            help="oracle point tolerance relative to triangle diameter "
            "(default %(default)g)",
        )
        p.add_argument(
            "--tol-value", type=_tolerance, default=tol_value,
            help="oracle relative value tolerance (default %(default)g)",
        )

    p_solve = sub.add_parser("solve", help="minimizer for one exponent")
    add_shared_flags(p_solve)
    p_solve.add_argument(
        "--n", type=float, required=True,
        help="exponent, real >= 1; at 1 the oracle judges only the value, "
        "since a whole side can minimize",
    )
    p_solve.add_argument(
        "--verify",
        action="store_true",
        help="also run the first-order certificate and both numeric oracles",
    )
    add_tolerance_flags(p_solve, 1e-6, 1e-9)
    p_solve.set_defaults(func=cmd_solve)

    p_seq = sub.add_parser("sequence", help="minimizers for a list of exponents")
    add_shared_flags(p_seq)
    p_seq.add_argument("--n-list", help="comma-separated exponents, each > 1")
    p_seq.add_argument(
        "--n-max", type=int, help="run integer exponents 2..N inclusive"
    )
    p_seq.set_defaults(func=cmd_sequence)

    p_verify = sub.add_parser(
        "verify", help="randomized agreement and equivariance suites"
    )
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=_seed, default=0)
    add_tolerance_flags(p_verify, 1e-5, 1e-8)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_CliInputError, DegenerateTriangle, InvalidExponent, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: outside the double range: {exc}", file=sys.stderr)
        return 2
    except DidNotConverge as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
