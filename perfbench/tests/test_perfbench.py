"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ops.workloads(ROOT / "src")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in named}
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())


def test_same_seed_gives_same_input_hash():
    assert gen.input_hash(gen.make_cases(7, 64)) == gen.input_hash(gen.make_cases(7, 64))
    assert gen.input_hash(gen.make_cases(7, 64)) != gen.input_hash(gen.make_cases(8, 64))


def test_expected_answer_matches_worked_example():
    point, value = gen.expected_answer(((0.0, 3.0), (-1.0, 0.0), (2.0, 0.0)), 2.0)
    assert math.dist(point, (7 / 32, 27 / 32)) < 1e-15
    assert value == pytest.approx(81 / 32, rel=1e-15)


def test_perturbed_answers_are_counted_as_failed():
    case = next(c for c in gen.make_cases(5, 64) if c.n == 2.0)
    nudge = 1e-6 * case.diameter

    res, rep = ops.certify(case)
    assert ops.check_certify(case, (res, rep)) is None
    moved = replace(res, point_original=res.point_original + [nudge, 0.0])
    assert ops.check_certify(case, (moved, rep)) == ops.WRONG

    report = ops.oracle_compare(case)
    assert ops.check_compare(case, report) is None
    off = replace(report, closed_form_value=report.closed_form_value * (1 + 1e-6))
    assert ops.check_compare(case, off) == ops.WRONG

    run = WORKLOADS["cli-cold"].op(case)
    assert ops.check_cli(case, run) is None
    doc = json.loads(run.stdout)
    doc["minimizer_original"]["x"] += nudge
    assert ops.check_cli(case, run._replace(stdout=json.dumps(doc).encode())) == ops.WRONG
    doc["value"] = math.nan
    assert ops.check_cli(case, run._replace(stdout=json.dumps(doc).encode())) == ops.BAD_JSON


def test_loop_counts_a_perturbed_or_raising_operation_and_goes_on():
    cases = gen.make_cases(5, 8)
    w = WORKLOADS["certify-batch"]

    def wrong(case):
        res, rep = ops.certify(case)
        return replace(res, value=2.0 * res.value), rep

    def raising(case):
        raise ZeroDivisionError

    loop = ops.run_loop(replace(w, op=wrong, block=8), cases, 0.0)
    assert loop.runs == 8 and loop.failures == {ops.WRONG: 8}
    loop = ops.run_loop(replace(w, op=raising, block=8), cases, 0.0)
    assert loop.failures == {"raised:ZeroDivisionError": 8}
    assert all(0.0 < t < math.inf for t in loop.best)


def test_check_pass_repeats_and_a_changed_verdict_is_recorded():
    cases = gen.make_cases(5, 16)
    w = replace(WORKLOADS["certify-batch"], block=16)
    expected = ops.check_pass(w, cases)
    assert expected == ops.check_pass(w, cases)
    assert any(expected) and not all(expected)
    loop = ops.run_loop(w, cases, 0.0, min_ops=len(cases), expected=expected)
    assert loop.changed == set()
    flipped = [None if kind else ops.WRONG for kind in expected]
    loop = ops.run_loop(w, cases, 0.0, min_ops=len(cases), expected=flipped)
    assert loop.changed == set(range(len(cases)))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "certify-batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_flags_only_end_to_end_metrics_worse_than_their_bound(tmp_path, capsys):
    import run

    def result(path, ops_per_s, p50, canonicalize_us):
        path.write_text(json.dumps({"workload": "certify-batch", "inputs": {"hash": "h"},
                                    "metrics": {
            "best_ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "best_op_ms_p50": {"value": p50, "unit": "ms"},
            "geometry.canonicalize_us": {"value": canonicalize_us, "unit": "us"}}}))
        return str(path)

    base = result(tmp_path / "a.json", 100.0, 1.0, 10.0)
    assert run.main(["--compare", base, result(tmp_path / "b.json", 90.0, 1.2, 30.0)]) == 0
    assert run.main(["--compare", base, result(tmp_path / "c.json", 70.0, 1.0, 10.0)]) == 1
    assert run.main(["--compare", base, result(tmp_path / "d.json", 100.0, 1.3, 10.0)]) == 1
    out = capsys.readouterr().out
    assert out.count("WORSE") == 2 and "inputs identical" in out
