"""A fixed reference computation, timed between operations.

The machine the benchmark runs on is shared, and its speed drifts: for
stretches of many minutes it runs pure-Python code at about half speed
and BLAS code at about 70% of its usual speed. The wall time of an
operation follows that drift, so a run's median time says as much about
the machine at the moment as about the program. The worker therefore times this reference
right before and right after every operation, and reports each operation
as a multiple of the mean of those two reference times; the drift, being
common to both, cancels.

The reference never calls mdlrank, so no change to the program moves it.
It is built from blocks of the same kinds of work as the program's layers,
mixed per workload in about the shares its trace shows, because the drift
slows each kind of work by a different factor:

- ``parse``: split and float() of comma-separated four-decimal numbers,
  as ``datasets`` parses a CSV (pure Python);
- ``fill``: allocate, fill and sum a fresh 48 MB array, as building the
  matrices of a large input fills fresh memory (page faults and memory
  bandwidth);
- ``svd_big``: one thin SVD of a tall matrix (BLAS and LAPACK bound);
- ``svd_small``: many thin SVDs of small matrices, with their per-call
  Python and numpy overhead, as ``compare`` makes per prefix;
- ``encode``: indented JSON encoding of a list of small records, as the
  CLI writes a report (the pure-Python encoder).

Every block's data comes from a fixed seed, not the run's. The reference
runs in a process of its own, started by bench/run.py and driven by the
worker over pipes the worker inherits, so that its data and allocations
do not add to the worker's peak memory; the worker waits while it runs.
run.py, its parent, closes it and waits for it on every way out.

Usage: python3 bench/reference.py WORKLOAD  (one reference time, in
seconds, is printed per line read from standard input)
"""

import json
import subprocess
import sys
import time

import numpy as np

# block -> repetitions per reference, per workload. One repetition takes
# 4-20 ms on the machine at its usual speed, and a reference 0.1-0.2 s,
# a sixth to a tenth of an operation.
MIXES = {
    "csv_prices": {"parse": 14, "fill": 10},
    "spectral_synthetic": {"svd_big": 6, "parse": 2, "fill": 2},
    "rolling_compare": {"svd_small": 8, "encode": 3, "parse": 3},
}


def _parse_data(rng):
    return [",".join("%.4f" % v for v in row) for row in rng.uniform(274.0, 912.0, (1500, 100))]


def _parse(lines):
    total = 0.0
    for line in lines:
        total += sum([float(cell) for cell in line.split(",")])
    return total


def _fill(size):
    return np.ones(size).sum()


def _svd_big(a):
    return np.linalg.svd(a, full_matrices=False)[1][0]


def _svd_small(mats):
    return sum(np.linalg.svd(a, full_matrices=False)[1][0] for a in mats)


def _encode(records):
    return len(json.dumps(records, indent=2))


BLOCKS = {
    "parse": (_parse_data, _parse),
    "fill": (lambda rng: 6_000_000, _fill),
    "svd_big": (lambda rng: rng.standard_normal((3000, 200)), _svd_big),
    "svd_small": (lambda rng: [rng.standard_normal((120, 40)) for _ in range(40)], _svd_small),
    "encode": (lambda rng: [{"k": k, "terms": rng.standard_normal(6).tolist()} for k in range(1500)],
               _encode),
}


class Reference:
    """The reference computation of one workload."""

    def __init__(self, workload):
        rng = np.random.default_rng(0)
        self.steps = []
        for block, reps in MIXES[workload].items():
            make, run = BLOCKS[block]
            self.steps.append((run, make(rng), reps))

    def time(self):
        """Wall time of one reference computation, in seconds."""
        start = time.perf_counter()
        for run, data, reps in self.steps:
            for _ in range(reps):
                run(data)
        return time.perf_counter() - start


class ReferenceClient:
    """Runs the reference once in a reference process, over its pipes, and
    returns its wall time; the caller waits meanwhile."""

    def __init__(self, to_reference, from_reference):
        self.to_reference, self.from_reference = to_reference, from_reference

    def time(self):
        self.to_reference.write("\n")
        self.to_reference.flush()
        line = self.from_reference.readline()
        if not line:
            raise RuntimeError("the reference process exited")
        return float(line)


class ReferenceProcess:
    """The reference process of one workload. ``fds`` are the ends of its
    pipes that a worker process inherits to drive it; on exit, its input
    is closed and it is waited for."""

    def __init__(self, workload):
        self.proc = subprocess.Popen([sys.executable, __file__, workload], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.fds = (self.proc.stdin.fileno(), self.proc.stdout.fileno())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    reference = Reference(sys.argv[1])
    for _ in sys.stdin:
        print(repr(reference.time()), flush=True)
