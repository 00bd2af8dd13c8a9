"""Each benchmark workload, at its tiny size, run once in this process and
checked by the benchmark's own independent recomputation (bench/check.py),
so a change that breaks a workload fails here before the benchmark runs."""

import json
import os
import sys
from pathlib import Path

import pytest

from mdlrank.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module. Importing it pins the BLAS thread count in
    os.environ and puts bench/ on sys.path; both are restored afterwards."""
    saved_env, saved_path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        import run

        yield run
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path


@pytest.mark.parametrize("workload", ["csv_prices", "spectral_synthetic", "rolling_compare"])
def test_workload_report_passes_the_benchmark_check(bench_run, tmp_path, workload):
    argv, cases, gram_modes = bench_run.make_workload(workload, 1, "tiny", tmp_path)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    for matrix, index in cases:
        bench_run.check_report(payload if index is None else payload[index], matrix, gram_modes)
