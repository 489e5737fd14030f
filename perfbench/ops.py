"""The three workloads: what one operation calls, how its output is checked,
and the closed loop (one caller, one thread) that times it.

An operation that raises, that the program itself flags (a KKT verdict other
than SATISFIED, a failed oracle comparison, a non-zero exit) or whose answer
is wrong is counted as failed; the loop goes on. Only a wrong answer that
the program did not flag makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np
import tripowmin as tp
from tripowmin.cli import main as cli_main

# the oracle settings and tolerances of `tripowmin verify` and acceptance
# criterion 04
ORACLE_CFG = tp.OracleConfig(pg_max_iters=200_000)
ORACLE_POINT_RTOL = 1e-5
ORACLE_VALUE_RTOL = 1e-8
# against the expected answer of gen.py
POINT_RTOL = 1e-9
VALUE_RTOL = 1e-9
# the CLI serves the in-process closed form, so it must agree to roundoff
CLI_POINT_RTOL = 1e-12

WRONG = "wrong_answer"
BAD_JSON = "bad_json"
SILENT = frozenset({WRONG, BAD_JSON})


def answer_ok(case, point, value) -> bool:
    return (math.dist(point, case.point) <= POINT_RTOL * case.diameter
            and abs(value - case.value) <= VALUE_RTOL * case.value)


# --- certify-batch: canonicalize -> closed form -> KKT certificate ---------

def certify(case):
    tri, iso = tp.canonicalize(tp.GeneralTriangle(*case.vertices))
    res = tp.minimize_closed_form(tri, case.n, isometry=iso)
    return res, tp.kkt_residual(tri, case.n, res.point_canonical)


def certify_traced(tr, case):
    with tr.span("op.certify"):
        with tr.span("geometry.canonicalize"):
            tri, iso = tp.canonicalize(tp.GeneralTriangle(*case.vertices))
        with tr.span("closed_form.minimize_closed_form"):
            res = tp.minimize_closed_form(tri, case.n, isometry=iso)
        with tr.span("kkt.kkt_residual"):
            rep = tp.kkt_residual(tri, case.n, res.point_canonical)
    return res, rep


def certify_replay(tr, case, out, stats):
    # minimize_closed_form maps its point back with to_original; time that
    # step alone on the same point
    res, _ = out
    _, iso = tp.canonicalize(tp.GeneralTriangle(*case.vertices))
    with tr.span("geometry.to_original"):
        iso.to_original(res.point_canonical)


def check_certify(case, out):
    res, rep = out
    if not answer_ok(case, res.point_original, res.value):
        return WRONG
    if rep.verdict is not tp.Verdict.SATISFIED:
        return rep.verdict.value
    return None


# --- oracle-compare: canonicalize -> compare against both oracles ----------

def oracle_compare(case):
    tri, _ = tp.canonicalize(tp.GeneralTriangle(*case.vertices))
    return tp.compare(tri, case.n, ORACLE_CFG,
                      ORACLE_POINT_RTOL * tri.diameter(), ORACLE_VALUE_RTOL)


def oracle_compare_traced(tr, case):
    with tr.span("op.compare"):
        with tr.span("geometry.canonicalize"):
            tri, _ = tp.canonicalize(tp.GeneralTriangle(*case.vertices))
        with tr.span("oracle.compare"):
            return tp.compare(tri, case.n, ORACLE_CFG,
                              ORACLE_POINT_RTOL * tri.diameter(), ORACLE_VALUE_RTOL)


def oracle_compare_replay(tr, case, out, stats):
    # compare's three children, called again on the same input as siblings
    tri, _ = tp.canonicalize(tp.GeneralTriangle(*case.vertices))
    with tr.span("oracle.compare.minimize_closed_form"):
        tp.minimize_closed_form(tri, case.n)
    with tr.span("oracle.grid_search"):
        tp.grid_search(tri, case.n, ORACLE_CFG)
    try:
        with tr.span("oracle.projected_gradient"):
            pg = tp.projected_gradient(tri, case.n, None, ORACLE_CFG)
    except tp.DidNotConverge:
        stats.setdefault("pg_iterations", []).append(ORACLE_CFG.pg_max_iters)
    else:
        stats.setdefault("pg_iterations", []).append(pg.iterations)


def check_compare(case, rep):
    if abs(rep.closed_form_value - case.value) > VALUE_RTOL * case.value:
        return WRONG
    if not rep.passed:
        return "not_passed"
    return None


# --- cli-cold: one `python -m tripowmin solve` child at a time -------------

class ChildRun(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes
    cpu_s: float
    maxrss_kb: int


def run_child(argv, env) -> ChildRun:
    """Run a child to completion; rusage comes from wait4, so it is the
    child's own. Its stderr must stay under one pipe buffer (64 KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, out, err, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss)


def child_env(src_dir) -> dict:
    paths = [str(src_dir)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def solve_argv(case) -> list[str]:
    verts = " ".join(f"{x!r},{y!r}" for x, y in case.vertices)
    return ["solve", f"--vertices={verts}", "--n", repr(case.n), "--format", "json"]


@dataclass
class ColdSolve:
    env: dict

    def __call__(self, case) -> ChildRun:
        return run_child([sys.executable, "-m", "tripowmin", *solve_argv(case)], self.env)

    def traced(self, tr, case) -> ChildRun:
        with tr.span("cli.solve_child"):
            return self(case)


def cli_replay(tr, case, out, stats):
    stats.setdefault("child_cpu_s", []).append(out.cpu_s)
    with contextlib.redirect_stdout(io.StringIO()):
        with tr.span("cli.main"):
            cli_main(solve_argv(case))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def check_cli(case, run: ChildRun):
    if run.returncode != 0:
        return f"exit_{run.returncode}"
    try:
        doc = json.loads(run.stdout, parse_constant=_reject_constant)
        got = (doc["minimizer_original"]["x"], doc["minimizer_original"]["y"])
        value = doc["value"]
    except (ValueError, KeyError, TypeError):
        return BAD_JSON
    tri, iso = tp.canonicalize(tp.GeneralTriangle(*case.vertices))
    ref = tp.minimize_closed_form(tri, case.n, isometry=iso).point_original
    if math.dist(got, ref) > CLI_POINT_RTOL * case.diameter or not answer_ok(case, got, value):
        return WRONG
    return None


# --- the workloads and the loop --------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # cases made from the seed, cycled in order
    block: int  # consecutive cases per throughput sample
    probe: int  # cases run when another workload's trace covers this one
    in_child: bool  # the operation runs in a child process
    op: Callable
    traced_op: Callable
    replay: Callable  # extra calls on the same input, outside the timed op
    check: Callable


def workloads(src_dir) -> dict[str, Workload]:
    cold = ColdSolve(child_env(src_dir))
    return {w.name: w for w in (
        Workload("certify-batch", 4096, 64, 512, False,
                 certify, certify_traced, certify_replay, check_certify),
        Workload("oracle-compare", 1024, 32, 32, False,
                 oracle_compare, oracle_compare_traced, oracle_compare_replay, check_compare),
        Workload("cli-cold", 32, 4, 4, True,
                 cold, cold.traced, cli_replay, check_cli),
    )}


def classify(w: Workload, case, out):
    """Failure kind of one operation, or None when it succeeded."""
    if isinstance(out, Exception):
        return "raised:" + type(out).__name__
    return w.check(case, out)


def settle_allocator() -> None:
    """Free one large block, as any process that has ever freed a big array
    has, so that glibc's malloc raises its trim threshold (to twice the
    block) for the rest of the run.

    Without it, whether the heap is trimmed after each of the grid
    oracle's passes, and its arrays (8385 doubles each) page-faulted in
    again on the next, depends on what the process happened to allocate
    before: the same run gave 0 or 550 faults per compare and up to 40%
    in time, depending on whether set-up children ran before or during the
    loop.
    """
    block = np.empty(2 << 20)  # 16 MiB, never touched, so never resident
    del block


def check_pass(w: Workload, cases) -> list:
    """Run every case once, untimed; the failure kind of each, or None.

    This is also the warm-up: lazy caches fill and the allocator reaches
    the state the timed loop runs in.
    """
    kinds = [None] * len(cases)
    for k, case in enumerate(cases):
        try:
            out = w.op(case)
        except Exception as exc:  # counted as failed, the pass goes on
            out = exc
        kinds[k] = classify(w, case, out)
    return kinds


@dataclass
class LoopResult:
    best: array  # per case: its fastest timed operation, seconds
    runs: int = 0  # timed operations
    busy: float = 0.0  # seconds spent inside them
    minor_faults: int = 0  # page faults of this process during the loop
    block_rates: list = field(default_factory=list)  # untraced blocks, when tracing
    traced_rates: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # kind -> operations
    changed: set = field(default_factory=set)  # cases whose kind differed from `expected`
    outputs: list = field(default_factory=list)  # (case, output) of the first `keep` ops
    stats: dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        """Median over untraced blocks of their throughput (trace mode)."""
        return statistics.median(self.block_rates)

    def best_ops_per_s(self, block: int) -> float:
        """Median over blocks of consecutive cases of block / sum of their
        fastest times; a rare case that runs for seconds moves one block."""
        best = self.best
        return statistics.median(block / math.fsum(best[j:j + block])
                                 for j in range(0, len(best) - block + 1, block))


def run_loop(w: Workload, cases, seconds, min_ops=0, keep=0, tracer=None,
             alternate=False, expected=None, pause=None, pauses=0) -> LoopResult:
    """Closed loop over ``cases`` in order, for at least ``seconds`` and
    ``min_ops`` operations, stopping at a block boundary.

    Each case keeps its fastest time: on a shared machine every run is
    slowed now and then by other work, and the fastest of many runs of an
    input is what its cost is when it is not. With a tracer every block is
    traced, or with ``alternate`` every other one, so that traced and
    untraced blocks see the same machine load. ``expected`` holds each
    case's failure kind from check_pass; a case whose kind differs on a
    later run is recorded in ``changed``. ``pause`` is called ``pauses``
    times, spread evenly over ``seconds`` at block boundaries, untimed.

    The loop allocates nothing that grows while it runs (block rates only
    when tracing), because where the program's temporary arrays land on
    the heap decides whether each call page-faults them in afresh.
    """
    count = len(cases)
    result = LoopResult(best=array("d", [math.inf]) * count)
    best = result.best
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = perf_counter()
    deadline = start + seconds
    paused = 0
    i = 0
    busy = 0.0
    block_busy = 0.0
    while True:
        k = i % count
        case = cases[k]
        traced = tracer is not None and (not alternate or (i // w.block) % 2 == 1)
        if not traced:
            t0 = perf_counter()
            try:
                out = w.op(case)
            except Exception as exc:  # counted as failed, the loop goes on
                out = exc
            t1 = perf_counter()
        else:
            tracer.op_id += 1
            t0 = perf_counter()
            try:
                out = w.traced_op(tracer, case)
            except Exception as exc:
                out = exc
            t1 = perf_counter()
            if not isinstance(out, Exception):
                w.replay(tracer, case, out, result.stats)
        dt = t1 - t0
        if dt < best[k]:
            best[k] = dt
        busy += dt
        block_busy += dt
        kind = classify(w, case, out)
        if kind:
            result.failures[kind] += 1
        if expected is not None and kind != expected[k]:
            result.changed.add(k)
        if i < keep:
            result.outputs.append((case, out))
        i += 1
        if i % w.block == 0:
            if tracer is not None:
                (result.traced_rates if traced else result.block_rates).append(
                    w.block / block_busy)
            block_busy = 0.0
            if paused < pauses and t1 >= start + seconds * (paused + 0.5) / pauses:
                pause()
                paused += 1
            if i >= min_ops and t1 >= deadline and paused == pauses:
                break
    result.runs = i
    result.busy = busy
    result.minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    return result
