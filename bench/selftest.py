"""The benchmark's own tests: every workload at a tiny size, the checker's
power to reject an altered report or one unlike the warm-up's, and the
refusal to run without the program's sources.

Run from the repository root:  python3 -m pytest -q bench/selftest.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from check import CheckError, check_report  # noqa: E402
from inputs import PriceShape, percent_returns, price_ticks, write_price_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_size(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }


@pytest.fixture(scope="module")
def select_case(tmp_path_factory):
    """A real select report on seeded prices, with the checker's matrix."""
    from mdlrank.cli import main

    tmp = tmp_path_factory.mktemp("select")
    ticks = price_ticks(PriceShape(rows=301, cols=12, factors=3), seed=5)
    write_price_csv(tmp / "prices.csv", ticks)
    out = tmp / "report.json"
    assert main(["select", "--input", str(tmp / "prices.csv"), "--reproducible",
                 "--both-gram-modes", "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8")), percent_returns(ticks)


MODES = ("full_gram", "per_row_sum")


def test_checker_accepts_the_program_report(select_case):
    report, x = select_case
    check_report(report, x, MODES)


@pytest.mark.parametrize("block", ["top", "alt"])
@pytest.mark.parametrize("field", ["k_lower_opt", "k_upper_opt"])
def test_checker_rejects_altered_k(select_case, block, field):
    report, x = select_case
    bad = copy.deepcopy(report)
    target = bad if block == "top" else bad["alt"]
    m = bad["m"]
    target[field] = target[field] % (m - 1) + 1  # another k in 1..m-1
    with pytest.raises(CheckError):
        check_report(bad, x, MODES)


@pytest.mark.parametrize("field", ["lower_total", "upper_total"])
def test_checker_rejects_one_altered_total(select_case, field):
    report, x = select_case
    bad = copy.deepcopy(report)
    row = bad["per_k"][len(bad["per_k"]) // 2]
    row[field] *= 1 + 1e-6
    with pytest.raises(CheckError):
        check_report(bad, x, MODES)


def test_checker_rejects_altered_kaiser(select_case):
    report, x = select_case
    bad = copy.deepcopy(report)
    bad["baselines"]["kaiser"] += 1
    with pytest.raises(CheckError):
        check_report(bad, x, MODES)


def test_checker_rejects_wrong_input(select_case):
    report, x = select_case
    with pytest.raises(CheckError):
        check_report(report, np.flipud(x) * 1.5, MODES)


def test_checker_rejects_a_report_unlike_the_warm_up(select_case, tmp_path):
    from run import check_outputs
    from worker import same_bytes

    report, x = select_case
    warmup, other = tmp_path / "warmup.json", tmp_path / "other.json"
    warmup.write_text(json.dumps(report), encoding="utf-8")
    other.write_text(json.dumps(report) + " ", encoding="utf-8")
    assert same_bytes(warmup, warmup) and not same_bytes(other, warmup)
    spec = {"report": str(other), "warmup_report": str(warmup)}
    check_outputs(spec, {"mismatched": 0}, [(x, None)], MODES)
    with pytest.raises(CheckError):
        check_outputs(spec, {"mismatched": 1}, [(x, None)], MODES)


def test_op_ref_divides_each_op_by_the_references_around_it():
    from run import op_ref

    # ops of 2, 3 and 9 s between references of 1, 1, 2 and 4 s
    result = {"times": [2.0, 3.0, 9.0], "ref_times": [1.0, 1.0, 2.0, 4.0]}
    assert op_ref(result) == 2.0  # the median of 2/1, 3/1.5 and 9/3


def test_reference_process_times_and_exits():
    from reference import ReferenceClient, ReferenceProcess

    with ReferenceProcess("rolling_compare") as reference:
        proc = reference.proc
        assert 0 < ReferenceClient(proc.stdin, proc.stdout).time() < 10
    assert proc.returncode == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "csv_prices", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
