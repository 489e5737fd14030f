"""Command line front end: solve, sequence and verify subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .closed_form import (
    critical_point_sequence,
    minimize_closed_form,
    minimize_n1,
)
from .errors import (
    DegenerateTriangle,
    DidNotConverge,
    InvalidExponent,
    TriPowMinError,
)
from .geometry import (
    CanonicalTriangle,
    GeneralTriangle,
    Isometry,
    canonicalize,
    incenter,
)
from .kkt import Verdict, kkt_residual
from .oracle import OracleConfig, _discrepancy, compare, grid_search
from .sampling import random_general_triangle

# iteration cap used by the CLI's own oracle runs; roomier than the library
# default so thin random triangles still polish to tolerance
_CLI_ORACLE_CFG = OracleConfig(pg_max_iters=200_000)


class _CliInputError(ValueError):
    pass


def _fmt(x) -> str:
    # + 0.0 folds negative zero into plain zero before printing
    return "%.12g" % (float(x) + 0.0)


def _parse_pair(token: str) -> tuple[float, float]:
    parts = token.split(",")
    if len(parts) != 2:
        raise _CliInputError(f"expected 'x,y', got {token!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _CliInputError(f"bad coordinate in {token!r}") from exc


def _triangle_from_args(args):
    """Returns (canonical triangle, isometry, original vertices 3x2)."""
    if (args.vertices is None) == (args.canonical is None):
        raise _CliInputError("exactly one of --vertices or --canonical is required")
    if args.vertices is not None:
        tokens = args.vertices.split()
        if len(tokens) != 3:
            raise _CliInputError("--vertices wants three 'x,y' pairs")
        pts = [_parse_pair(t) for t in tokens]
        tri, iso = canonicalize(GeneralTriangle(*[np.array(p) for p in pts]))
        return tri, iso, np.array(pts)
    parts = args.canonical.split(",")
    if len(parts) != 3:
        raise _CliInputError("--canonical wants 'a,b,c'")
    try:
        a, b, c = (float(s) for s in parts)
    except ValueError as exc:
        raise _CliInputError(f"bad --canonical value in {args.canonical!r}") from exc
    try:
        tri = CanonicalTriangle(a, b, c)
    except ValueError as exc:
        raise _CliInputError(str(exc)) from exc
    iso = Isometry(0.0, np.zeros(2), 0)
    return tri, iso, tri.vertices()


def _point_dict(pt) -> dict:
    # + 0.0 folds negative zero into plain zero
    return {"x": float(pt[0]) + 0.0, "y": float(pt[1]) + 0.0}


def _kkt_dict(report) -> dict:
    return {
        "active_set": list(report.active_set),
        "multipliers": [float(m) for m in report.multipliers],
        "stationarity_residual": float(report.stationarity_residual),
        "complementary_slackness_residual": float(
            report.complementary_slackness_residual
        ),
        "hessian_fxx": float(report.hessian_fxx),
        "hessian_det": float(report.hessian_det),
        "verdict": report.verdict.value,
    }


def cmd_solve(args) -> int:
    tri, iso, verts = _triangle_from_args(args)
    n = float(args.n)
    if not math.isfinite(n) or n < 1.0:
        raise _CliInputError(f"--n must be a real >= 1, got {args.n}")

    constants = None
    if n == 1.0:
        vm = minimize_n1(tri)
        point_c = vm.point
        value = vm.value
    else:
        res = minimize_closed_form(tri, n, isometry=iso)
        point_c = res.point_canonical
        value = res.value
        constants = res.constants
    point_o = iso.to_original(point_c)

    kkt_report = None
    oracle_report = None
    failed = False
    if args.verify:
        if n == 1.0:
            gp, gv = grid_search(tri, n, _CLI_ORACLE_CFG)
            oracle_report = _discrepancy(
                point_c, value, gp, gv, args.tol_point, args.tol_value
            )
            failed = not oracle_report.passed
        else:
            kkt_report = kkt_residual(tri, n, point_c)
            oracle_report = compare(
                tri, n, _CLI_ORACLE_CFG, args.tol_point, args.tol_value
            )
            failed = (
                kkt_report.verdict is not Verdict.SATISFIED
                or not oracle_report.passed
            )

    if args.format == "json":
        doc = {
            "triangle": [[float(v[0]), float(v[1])] for v in verts],
            "canonical": {"a": tri.a, "b": tri.b, "c": tri.c},
            "n": n,
            "minimizer": _point_dict(point_c),
            "minimizer_original": _point_dict(point_o),
            "value": float(value),
            "constants": None
            if constants is None
            else {
                "p": constants.p,
                "q": constants.q,
                "t": constants.t,
                "r": constants.r,
                "lambda": constants.lam,
            },
            "kkt": None if kkt_report is None else _kkt_dict(kkt_report),
            # DiscrepancyReport holds plain floats and a bool
            "oracle": None
            if oracle_report is None
            else dataclasses.asdict(oracle_report),
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["n", "x", "y", "x_original", "y_original", "value",
             "p", "q", "t", "r", "lambda"]
        )
        const_cells = (
            ["", "", "", "", ""]
            if constants is None
            else [_fmt(constants.p), _fmt(constants.q), _fmt(constants.t),
                  _fmt(constants.r), _fmt(constants.lam)]
        )
        writer.writerow(
            [_fmt(n), _fmt(point_c[0]), _fmt(point_c[1]),
             _fmt(point_o[0]), _fmt(point_o[1]), _fmt(value)] + const_cells
        )
    else:
        print(f"canonical: a={_fmt(tri.a)} b={_fmt(tri.b)} c={_fmt(tri.c)}")
        print(f"n: {_fmt(n)}")
        print(f"minimizer (canonical): x={_fmt(point_c[0])} y={_fmt(point_c[1])}")
        print(f"minimizer (original): x={_fmt(point_o[0])} y={_fmt(point_o[1])}")
        print(f"value: {_fmt(value)}")
        if constants is not None:
            print(
                f"constants: p={_fmt(constants.p)} q={_fmt(constants.q)} "
                f"t={_fmt(constants.t)} r={_fmt(constants.r)} "
                f"lambda={_fmt(constants.lam)}"
            )
        if kkt_report is not None:
            print(
                f"kkt: verdict={kkt_report.verdict.value} "
                f"stationarity_residual={_fmt(kkt_report.stationarity_residual)} "
                f"active_set={list(kkt_report.active_set)}"
            )
        if oracle_report is not None:
            print(
                f"oracle: passed={str(oracle_report.passed).lower()} "
                f"point_gap={_fmt(oracle_report.point_gap)} "
                f"value_gap_rel={_fmt(oracle_report.value_gap_rel)}"
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
        try:
            ns = [float(s) for s in args.n_list.split(",") if s.strip()]
        except ValueError as exc:
            raise _CliInputError(f"bad --n-list value in {args.n_list!r}") from exc
        if not ns:
            raise _CliInputError("--n-list is empty")
        if any(not math.isfinite(n) or n <= 1.0 for n in ns):
            raise _CliInputError("every n in --n-list must be a real > 1")
    else:
        if args.n_max < 2:
            raise _CliInputError("--n-max must be an integer >= 2")
        ns = [float(k) for k in range(2, args.n_max + 1)]

    results = critical_point_sequence(tri, ns, isometry=iso)
    inc_c = incenter(tri)
    inc_o = iso.to_original(inc_c)
    rows = []
    for res in results:
        d = res.point_canonical - inc_c
        rows.append(
            (
                res.exponent,
                float(res.point_original[0]),
                float(res.point_original[1]),
                res.value,
                float(np.hypot(d[0], d[1])),
            )
        )

    if args.format == "json":
        doc = {
            "canonical": {"a": tri.a, "b": tri.b, "c": tri.c},
            "rows": [
                {"n": n, "x": x, "y": y, "value": v, "dist_to_incenter": d}
                for n, x, y, v, d in rows
            ],
            "limit": _point_dict(inc_o),
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "x", "y", "value", "dist_to_incenter"])
        for n, x, y, v, d in rows:
            writer.writerow([_fmt(n), _fmt(x), _fmt(y), _fmt(v), _fmt(d)])
        writer.writerow(["limit", _fmt(inc_o[0]), _fmt(inc_o[1]), "", _fmt(0.0)])
    else:
        print(f"{'n':>12} {'x':>18} {'y':>18} {'value':>18} {'dist_to_incenter':>18}")
        for n, x, y, v, d in rows:
            print(f"{_fmt(n):>12} {_fmt(x):>18} {_fmt(y):>18} "
                  f"{_fmt(v):>18} {_fmt(d):>18}")
        print(f"{'limit':>12} {_fmt(inc_o[0]):>18} {_fmt(inc_o[1]):>18} "
              f"{'':>18} {_fmt(0.0):>18}")
    return 0


def _verify_trial(tri, n, tol_point_rel, tol_value):
    """Runs all randomized suites on one triangle; returns a list of failure
    strings (empty means the trial passed)."""
    problems = []
    diam = tri.diameter()

    report = compare(tri, n, _CLI_ORACLE_CFG, tol_point_rel * diam, tol_value)
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
            np.max(np.abs(scaled.point_canonical - s * res.point_canonical))
            > 1e-11 * s * diam
            or abs(scaled.value - s ** n * res.value) > 1e-11 * s ** n * res.value
        ):
            problems.append(f"scale equivariance (s={s})")

    inc = incenter(tri)
    dists = []
    for k in range(6, 15):
        pt = minimize_closed_form(tri, float(2 ** k)).point_canonical
        dists.append(float(np.hypot(*(pt - inc))))
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
    if args.tol_point < 0.0 or args.tol_value < 0.0:
        raise _CliInputError("tolerances must be non-negative")
    rng = np.random.default_rng(args.seed)
    n_choices = [2.0, 3.0, 4.0, 5.0, 7.0, 10.0]
    passed = 0
    failures = []
    for trial in range(args.trials):
        general = random_general_triangle(rng)
        tri, _ = canonicalize(general)
        n = float(rng.choice(n_choices))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripowmin",
        description="Minimize the sum of n-th powered distances to a "
        "triangle's sides, with certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_triangle_flags(p):
        p.add_argument(
            "--vertices",
            help="three vertices as 'x1,y1 x2,y2 x3,y3' (quoted)",
        )
        p.add_argument("--canonical", help="apex-frame parameters 'a,b,c'")

    p_solve = sub.add_parser("solve", help="minimizer for one exponent")
    add_triangle_flags(p_solve)
    p_solve.add_argument("--n", type=float, required=True, help="exponent, real >= 1")
    p_solve.add_argument(
        "--format", choices=("json", "csv", "text"), default="text"
    )
    p_solve.add_argument(
        "--verify",
        action="store_true",
        help="also run the first-order certificate and both numeric oracles",
    )
    p_solve.add_argument(
        "--tol-point",
        type=float,
        default=1e-6,
        help="oracle point tolerance, absolute (default 1e-6)",
    )
    p_solve.add_argument(
        "--tol-value",
        type=float,
        default=1e-9,
        help="oracle relative value tolerance (default 1e-9)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_seq = sub.add_parser("sequence", help="minimizers for a list of exponents")
    add_triangle_flags(p_seq)
    p_seq.add_argument("--n-list", help="comma-separated exponents, each > 1")
    p_seq.add_argument(
        "--n-max", type=int, help="run integer exponents 2..N inclusive"
    )
    p_seq.add_argument(
        "--format", choices=("json", "csv", "text"), default="text"
    )
    p_seq.set_defaults(func=cmd_sequence)

    p_verify = sub.add_parser(
        "verify", help="randomized agreement and equivariance suites"
    )
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--tol-point",
        type=float,
        default=1e-5,
        help="oracle point tolerance relative to triangle diameter "
        "(default 1e-5)",
    )
    p_verify.add_argument(
        "--tol-value",
        type=float,
        default=1e-8,
        help="oracle relative value tolerance (default 1e-8)",
    )
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
    except DidNotConverge as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
