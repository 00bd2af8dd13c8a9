"""mdlrank benchmark: one command, three workloads, checked outputs.

Usage, from the repository root:

    python3 bench/run.py --workload csv_prices --seed 1 --seconds 30 --trace 0

Each operation is one ``mdlrank`` CLI command, run in-process through
``mdlrank.cli.main(argv)`` in a closed loop by a worker process
(bench/worker.py) that does nothing else but time, between operations, a
fixed reference computation in a process of its own (bench/reference.py).
This process makes the inputs from the seed, times a fresh import of the
CLI, starts the worker, checks its reports against bench/check.py and
prints one JSON line. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` the worker spans each layer and the per-layer
metrics are reported instead. See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: with two threads on a two-core machine the timings of
# the spectral workload spread by a tenth from run to run; with one, by a
# few hundredths. Set before numpy is imported here or in any child.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = SRC / "mdlrank" / "schemas" / "run_report.schema.json"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from check import CheckError, check_report  # noqa: E402
from inputs import LinShape, PriceShape, lin_matrix, percent_returns, price_ticks, write_price_csv  # noqa: E402
from reference import ReferenceProcess  # noqa: E402

# set-up is timed this many times before the worker runs and as many
# after, so that its median spans the run instead of one moment of it
SETUP_SAMPLES = 15
READY = "import mdlrank.cli; mdlrank.cli.build_parser()"
# every run, set-up and checks included, must end well inside this
DEADLINE_S = 170

# shape of each workload's input at full size and at the size the
# benchmark's own tests use
SHAPES = {
    "csv_prices": {
        "full": PriceShape(rows=20001, cols=100, factors=5),
        "tiny": PriceShape(rows=201, cols=10, factors=2),
    },
    "spectral_synthetic": {
        "full": LinShape(n=20000, m=300, true_k=10, noise=0.1),
        "tiny": LinShape(n=300, m=12, true_k=3, noise=0.1),
    },
    "rolling_compare": {
        "full": PriceShape(rows=2001, cols=40, factors=4),
        "tiny": PriceShape(rows=121, cols=8, factors=2),
    },
}
PREFIXES = {"full": 300, "tiny": 10}


def prefix_lengths(rows, cols, count):
    """``count`` evenly spaced prefix lengths from 3*cols rows to all rows."""
    return sorted({int(v) for v in np.linspace(3 * cols, rows, count)})


def make_workload(name, seed, scale, work):
    """Write the workload's input files. Returns the operation's CLI
    arguments (without --out), the cases to check, each the input matrix
    and its index in a compare report (None for a select report), and the
    gram modes each report must hold."""
    shape = SHAPES[name][scale]
    if name == "spectral_synthetic":
        argv = ["select", "--synthetic", "lin", "--n", str(shape.n), "--m", str(shape.m),
                "--true-k", str(shape.true_k), "--noise", repr(shape.noise),
                "--seed", str(seed), "--both-gram-modes", "--reproducible"]
        return argv, [(lin_matrix(shape, seed), None)], ("full_gram", "per_row_sum")
    ticks = price_ticks(shape, seed)
    path = work / "prices.csv"
    write_price_csv(path, ticks)
    returns = percent_returns(ticks)
    if name == "csv_prices":
        argv = ["select", "--input", str(path), "--reproducible"]
        return argv, [(returns, None)], ("full_gram",)
    lengths = prefix_lengths(len(returns), shape.cols, PREFIXES[scale])
    argv = ["compare", "--input", str(path), "--lengths", ",".join(map(str, lengths)),
            "--reproducible"]
    return argv, [(returns[:n], i) for i, n in enumerate(lengths)], ("full_gram",)


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup(samples):
    """Wall times of fresh interpreters importing the CLI."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        # no timeout: waiting with one polls the child at up to 50 ms steps
        subprocess.run([sys.executable, "-c", READY], env=program_env(), check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_worker(work, reference, argv, seconds, trace, deadline):
    spec = {
        "reference_fds": reference.fds,
        "argv": argv,
        "seconds": seconds,
        "trace": bool(trace),
        "report": str(work / "report.json"),
        "warmup_report": str(work / "warmup_report.json"),
    }
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    # the worker's stdout goes to stderr: the last stdout line is the result
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), str(result_path)],
                   env=program_env(), check=True, stdout=sys.stderr, pass_fds=reference.fds,
                   timeout=max(deadline - time.monotonic(), 1))
    return spec, json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(spec, result, cases, gram_modes):
    """Every operation's report is byte-identical to the warm-up's
    (--reproducible), which passes the schema and the independent checks."""
    Path(spec["report"]).unlink(missing_ok=True)
    if result["mismatched"]:
        raise CheckError(f"{result['mismatched']} operations wrote a report unlike the warm-up's")
    payload = json.loads(Path(spec["warmup_report"]).read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))
    for matrix, index in cases:
        report = payload if index is None else payload[index]
        validator.validate(report)
        if index is not None and report["length"] != len(matrix):
            raise CheckError(f"prefix {index} has length {report['length']}, expected {len(matrix)}")
        check_report(report, matrix, gram_modes)
    if isinstance(payload, list) and len(payload) != len(cases):
        raise CheckError(f"{len(payload)} prefix reports, expected {len(cases)}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_ref(result):
    """Median over the run of each operation's wall time divided by the
    mean of the reference times taken right before and right after it."""
    refs = result["ref_times"]
    return statistics.median(t / (0.5 * (refs[i] + refs[i + 1]))
                             for i, t in enumerate(result["times"]))


def end_to_end(result, setup_s):
    return {
        "setup_s": metric(setup_s, "s"),
        "op_ref": metric(op_ref(result), "ratio"),
        "peak_rss_mb": metric(result["peak_rss_bytes"] / 1e6, "MB"),
    }


def per_layer(result):
    trace, ops = result["trace"], len(result["times"])
    total, own, calls = trace["total"], trace["self"], trace["calls"]

    def per_op(table, layer):
        return table.get(layer, 0) / ops

    return {
        "datasets.parse_s": metric(per_op(total, "datasets.parse"), "s"),
        "datasets.parse_peak_mb": metric(trace["parse_peak_bytes"] / 1e6, "MB"),
        "datasets.returns_s": metric(per_op(total, "datasets.returns"), "s"),
        "datasets.generate_s": metric(per_op(total, "datasets.generate"), "s"),
        "datasets.standardize_s": metric(per_op(total, "datasets.standardize"), "s"),
        "linalg.svd_s": metric(per_op(total, "linalg.svd"), "s"),
        "linalg.svd_calls": metric(per_op(calls, "linalg.svd"), "count"),
        "complexity.self_s": metric(per_op(own, "complexity"), "s"),
        "complexity.score_calls": metric(per_op(calls, "complexity.score"), "count"),
        "baselines.s": metric(per_op(own, "baselines"), "s"),
        "cli.self_s": metric(per_op(own, "cli"), "s"),
        "cli.report_bytes": metric(trace["report_bytes"] / (ops - result["failed"] or 1), "bytes"),
        "traced.op_ref": metric(op_ref(result), "ratio"),
        "traced.op_s": metric(statistics.median(result["times"]), "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # this process and every child on one CPU, the first it may use: the
    # vCPUs of a shared host run at different speeds from moment to moment,
    # and the worker and its reference process must share one for the
    # reference to cancel that speed (unpinned, a reference process that
    # woke on the other vCPU read 9 or 17 ms for the same block)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "mdlrank" / "cli.py").is_file():
        print(f"bench: no mdlrank sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    argv, cases, gram_modes = make_workload(args.workload, args.seed, args.scale, work)
    setup_times = [] if args.trace else time_setup(SETUP_SAMPLES)
    try:
        with ReferenceProcess(args.workload) as reference:
            spec, result = run_worker(work, reference, argv, args.seconds, args.trace, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {args.workload}: the worker did not finish: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setup_times += time_setup(SETUP_SAMPLES)
    correct = True
    try:
        check_outputs(spec, result, cases, gram_modes)
    except (CheckError, jsonschema.ValidationError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bench: {args.workload}: output check failed: {exc!r}", file=sys.stderr)
        correct = False
    metrics = per_layer(result) if args.trace else end_to_end(result, statistics.median(setup_times))
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["times"]),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
