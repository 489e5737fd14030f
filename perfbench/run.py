"""tripowmin benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --compare perfbench/results/A.json perfbench/results/B.json

Workloads (closed loop, one caller, one thread; inputs from gen.py):

- certify-batch: GeneralTriangle -> canonicalize -> minimize_closed_form
  (with the isometry) -> kkt_residual, per triangle.
- oracle-compare: canonicalize -> compare against both oracles, with the
  settings and tolerances of `tripowmin verify`.
- cli-cold: one `python -m tripowmin solve ... --format json` child at a
  time.

BENCHMARK.json lists the first two; cli-cold is left out there because
its run-to-run spread on a shared 2-core machine is wider than any bound the
benchmark may set, but it runs the same way by name.

Before timing, every case of the pool runs once, untimed: this is the
warm-up, and it fixes each case's failure kind. ``attempted`` and ``failed``
count cases, so the same seed gives the same counts; a case whose verdict
changes on a later run counts as failed as well.

With ``--trace 0`` the run then loops over the pool for the given seconds,
tracing off, and measures the end-to-end metrics named in BENCHMARK.json:

- setup_s: median over fresh interpreters, started at even times through
  the timed loop (which pauses for them), of the wall time until warm.py has imported tripowmin and
  called each layer of the workload once;
- peak_rss_mb: peak resident memory of this process (of the children, as a
  median, for cli-cold);
- best_op_ms_p50, best_op_ms_p90: percentiles over the cases of each case's
  fastest run. On a shared machine other work slows a run now and then, by
  up to half; the fastest of a case's many runs is its cost when nothing
  does, and it is the same from run to run where a median is not;
- best_ops_per_s: median over blocks of consecutive cases of the block's
  size divided by the sum of their fastest runs.

It also prints them under the workload's own names (certify_tris_per_s,
compare_ms_p50, ...), the latency at the highest percentile with at least
ten cases beyond it, and failed_frac with the failure kinds; the result
file adds the plain mean throughput of the timed loop and its page faults
per operation.

With ``--trace 1`` it traces every other block of operations (the ratio of
untraced to traced throughput is trace.overhead), then runs the other
workloads' operations on the first cases of the same seeded stream so that
every per-layer metric is reported, and writes the spans to
``perfbench/results``. The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 15  # spread through the timed loop
CLI_REPEATS = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# workload-specific names under which the end-to-end metrics are also printed
ALIASES = {"certify-batch": "certify_tris", "oracle-compare": "compare",
           "cli-cold": "solve_cold"}


def import_program():
    """Import tripowmin from this checkout's src/, never from elsewhere."""
    init = SRC / "tripowmin" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import tripowmin

    if Path(tripowmin.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported tripowmin from {tripowmin.__file__}, not {init}")
    return tripowmin


def load_spec() -> tuple[dict, dict]:
    """Metric specs by name, and the whole of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec


def percentile(sorted_values, p: float) -> float:
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(count: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 75.0):
        if count * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def environment(tp) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = None
    kernels = getattr(tp, "_kernels", None)  # private, so it may go away

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.backend() if hasattr(kernels, "backend") else None,
        "tripowmin": tp.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def time_setup(workload: str, env: dict) -> float:
    """Wall seconds from starting a fresh interpreter until warm.py has
    imported tripowmin and called each layer of the workload once."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "warm.py"), workload],
                            stdout=subprocess.PIPE, env=env)
    with proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} exited {proc.returncode}")
    return t1 - t0


def parse_importtime(stderr: str) -> dict:
    """Self and cumulative import time (ms) of numpy and of tripowmin.

    A package's self time is the sum over its modules; its cumulative time
    is that of its outermost imports, so tripowmin's includes numpy's.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if m:
            rows.append((int(m[1]) / 1e3, int(m[2]) / 1e3, len(m[3]), m[4]))
    out = {}
    for pkg in ("numpy", "tripowmin"):
        mine = [r for r in rows if r[3] == pkg or r[3].startswith(pkg + ".")]
        top = min((r[2] for r in mine), default=0)  # none: not imported at all
        out[f"{pkg}_self"] = sum(r[0] for r in mine)
        out[f"{pkg}_cum"] = sum(r[1] for r in mine if r[2] == top)
    return out


def cli_startup(ops, cases, env) -> dict:
    """Bare interpreter start and `-X importtime` of cold solves."""
    walls, imports = [], []
    for i in range(CLI_REPEATS):
        t0 = perf_counter()
        run = ops.run_child([sys.executable, "-c", "pass"], env)
        walls.append(perf_counter() - t0)
        run = ops.run_child([sys.executable, "-X", "importtime", "-m", "tripowmin",
                             *ops.solve_argv(cases[i % len(cases)])], env)
        if run.returncode != 0:
            raise RuntimeError(f"cold solve exited {run.returncode}")
        imports.append(parse_importtime(run.stderr.decode()))
    out = {"interpreter_ms": 1e3 * statistics.median(walls)}
    for key in imports[0]:
        out[key] = statistics.median(d[key] for d in imports)
    return out


def layer_metrics(ops, tracer, loops, startup) -> dict:
    Verdict = ops.tp.Verdict
    selfs = tracer.self_times()

    def us(name):
        return 1e6 * statistics.median(selfs[name])

    reports = [out[1] for _, out in loops["certify-batch"].outputs
               if not isinstance(out, Exception)]
    compares = loops["oracle-compare"].outputs
    passed = [(case, rep) for case, rep in compares
              if not isinstance(rep, Exception) and rep.passed]
    margins = [max(rep.point_gap / (ops.ORACLE_POINT_RTOL * case.diameter),
                   rep.value_gap_rel / ops.ORACLE_VALUE_RTOL) for case, rep in passed]
    pg_iters = loops["oracle-compare"].stats["pg_iterations"]

    # compare minus its three children, replayed on the same input
    children = ("oracle.compare.minimize_closed_form", "oracle.grid_search",
                "oracle.projected_gradient")
    by_op = tracer.durations_by_op(("oracle.compare", *children)).values()
    compare_self = [d["oracle.compare"] - sum(d[c] for c in children)
                    for d in by_op if len(d) == 4]

    cfg = ops.ORACLE_CFG
    m = cfg.grid_resolution
    return {
        "geometry.canonicalize_us": us("geometry.canonicalize"),
        "geometry.to_original_us": us("geometry.to_original"),
        "closed_form.minimize_us": us("closed_form.minimize_closed_form"),
        "kkt.kkt_residual_us": us("kkt.kkt_residual"),
        "kkt.active_share": sum(bool(r.active_set) for r in reports) / len(reports),
        "kkt.multiplier_negative": sum(r.verdict is Verdict.MULTIPLIER_NEGATIVE for r in reports),
        "kkt.stationarity_failed": sum(r.verdict is Verdict.STATIONARITY_FAILED for r in reports),
        "oracle.grid_search_us": us("oracle.grid_search"),
        # computed from OracleConfig, not measured
        "oracle.grid_points": (cfg.zoom_iterations + 1) * (m + 1) * (m + 2) // 2,
        "oracle.projected_gradient_us": us("oracle.projected_gradient"),
        "oracle.pg_iterations_p50": statistics.median(pg_iters),
        "oracle.pg_iterations_max": max(pg_iters),
        "oracle.compare_self_us": 1e6 * statistics.median(compare_self),
        "oracle.not_passed": sum(not isinstance(r, Exception) and not r.passed
                                 for _, r in compares),
        "oracle.did_not_converge": sum(isinstance(r, ops.tp.DidNotConverge)
                                       for _, r in compares),
        "oracle.worst_margin": max(margins, default=0.0),
        "cli.interpreter_ms": startup["interpreter_ms"],
        "cli.import_numpy_ms": startup["numpy_cum"],
        "cli.import_numpy_self_ms": startup["numpy_self"],
        "cli.import_tripowmin_ms": startup["tripowmin_cum"],
        "cli.import_tripowmin_self_ms": startup["tripowmin_self"],
        "cli.main_ms": 1e3 * statistics.median(selfs["cli.main"]),
        "cli.child_cpu_ms": 1e3 * statistics.median(loops["cli-cold"].stats["child_cpu_s"]),
    }


def run_workload(args, spec_metrics, spec) -> int:
    tp = import_program()
    import gen
    import ops
    from spans import Tracer

    table = ops.workloads(SRC)
    if args.workload not in table:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(table)}")
    w = table[args.workload]
    # one seeded stream: the workload's pool, and the first cases of it
    # for the layers this workload bypasses when tracing
    stream = gen.make_cases(args.seed, max(w.pool, *(o.probe for o in table.values())))
    cases = stream[:w.pool]
    env = ops.child_env(SRC)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(tp),
        "inputs": {"hash": gen.input_hash(cases), "mix": gen.input_mix(cases)},
    }
    for line in (f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  "
                 f"trace {args.trace}",
                 "environment " + json.dumps(record["environment"]),
                 "inputs " + json.dumps(record["inputs"])):
        print(line)

    # every case once, untimed: its failure kind, and the warm-up
    ops.settle_allocator()
    expected = ops.check_pass(w, cases)
    if not args.trace:
        # cold starts swing with the load on the other core, so set-up is
        # sampled at even times through the timed loop; a first sample
        # writes the bytecode caches and is dropped
        time_setup(w.name, env)
        setup = []
        loop = ops.run_loop(w, cases, args.seconds, min_ops=len(cases),
                            keep=sys.maxsize if w.in_child else 0, expected=expected,
                            pause=lambda: setup.append(time_setup(w.name, env)),
                            pauses=SETUP_SAMPLES)
        if w.in_child:
            peak_kb = statistics.median(out.maxrss_kb for _, out in loop.outputs
                                        if not isinstance(out, Exception))
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        best = sorted(loop.best)
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024.0,
            "best_ops_per_s": loop.best_ops_per_s(w.block),
            "best_op_ms_p50": 1e3 * percentile(best, 50.0),
            "best_op_ms_p90": 1e3 * percentile(best, 90.0),
        }
        tail = tail_percentile(len(best))
        alias = ALIASES[w.name]
        record["aliases"] = {
            f"{alias}_per_s": values["best_ops_per_s"],
            f"{alias}_ms_p50": values["best_op_ms_p50"],
            f"{alias}_ms_p{tail:g}": 1e3 * percentile(best, tail),
        }
        record["loop"] = {
            "timed_ops": loop.runs,
            "runs_per_case": loop.runs / len(cases),
            "mean_ops_per_s": loop.runs / loop.busy,
            "minor_faults_per_op": loop.minor_faults / loop.runs,
        }
        record["samples"] = {"setup_s": setup, "cases": len(best)}
        checked = [loop]
    else:
        tracer = Tracer()
        loop = ops.run_loop(w, cases, args.seconds, min_ops=len(cases), keep=len(cases),
                            tracer=tracer, alternate=True, expected=expected)
        layer_loops = {w.name: loop}
        for other in table.values():
            if other is not w:
                layer_loops[other.name] = ops.run_loop(
                    other, stream[:other.probe], 0.0, min_ops=other.probe, keep=other.probe,
                    tracer=tracer)
        values = layer_metrics(ops, tracer, layer_loops, cli_startup(ops, cases, env))
        values["trace.overhead"] = loop.ops_per_s / statistics.median(loop.traced_rates)
        record["layer_inputs"] = {name: {"operations": len(lp.outputs),
                                         "source": "loop" if name == w.name else "probe"}
                                  for name, lp in layer_loops.items()}
        checked = layer_loops.values()
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{w.name}-seed{args.seed}.spans.csv.gz"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    # each case counts once, as checked before timing, so the same seed
    # gives the same counts; a case whose verdict changed on a timed run
    # counts as failed too
    attempted = len(cases)
    failures = Counter(kind for kind in expected if kind)
    if loop.changed:
        failures["changed_verdict"] = len(loop.changed)
    failed = sum(1 for k, kind in enumerate(expected) if kind or k in loop.changed)
    record["aliases"] = {**record.get("aliases", {}), "failed_frac": failed / attempted}
    silent = (sum(kind in ops.SILENT for kind in expected)
              + sum(lp.failures[k] for lp in checked for k in ops.SILENT))
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    metrics = {name: {"value": float(values[name]), "unit": spec_metrics[name]["unit"]}
               for name in wanted}
    record.update(correct=silent == 0, attempted=attempted, failed=failed,
                  failures=dict(failures), metrics=metrics)

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("aliases", {}).items():
        print(f"{name:32s} {value:.6g}")
    print(f"failed {failed} of {attempted} cases: {dict(failures)}")
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def compare_results(path_a, path_b, spec_metrics) -> int:
    """Ratio B/A of every metric; flags end-to-end metrics worse than their bound."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["workload"] != b["workload"]:
        sys.exit(f"perfbench: {path_a} is {a['workload']}, {path_b} is {b['workload']}")
    same = a["inputs"]["hash"] == b["inputs"]["hash"]
    print(f"workload {a['workload']}: inputs {'identical' if same else 'DIFFERENT'}")
    worse = 0
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = vb / va if va else float("inf")
        m = spec_metrics[name]
        flag = ""
        if "bound" in m:
            lower = m["better"] == "lower"
            if (vb > va * (1 + m["bound"])) if lower else (vb < va * (1 - m["bound"])):
                flag = f"WORSE than bound {m['bound']}"
                worse += 1
        print(f"{name:32s} {va:12.6g} {vb:12.6g} {ratio:8.3f}x {m['unit']:6s} {flag}")
    return 1 if worse else 0


def main(argv=None) -> int:
    spec_metrics, spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="certify-batch, oracle-compare or cli-cold")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare_results(*args.compare, spec_metrics)
    if args.workload is None:
        ap.error("--workload or --compare is required")
    return run_workload(args, spec_metrics, spec)


if __name__ == "__main__":
    sys.exit(main())
