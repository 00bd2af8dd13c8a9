"""Runs one workload's operations in a closed loop, in a process of its own.

Usage: python3 bench/worker.py SPEC.json RESULT.json

The spec gives the CLI arguments of one operation (without ``--out``),
the two report paths, the run length, whether to trace, and the inherited
pipe ends of the workload's reference process (bench/reference.py), which
is timed before the first operation and after each one. After each
operation, untimed, its report is compared byte for byte with the
warm-up's; the result counts the ones that differ. The parent process
made the inputs beforehand, so this process's peak resident memory is that
of the operations alone. ``mdlrank`` is imported from ``PYTHONPATH``.
"""

import json
import os
import resource
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import mdlrank.cli
from reference import ReferenceClient

# (defining module, function) -> layer. Every mdlrank module that holds one
# of these functions has that name rebound to a timed wrapper, so the calls
# callers make into the layer are spanned wherever the caller lives.
# cli._baselines is the CLI's baseline stage: its correlation matrix and
# eigvalsh belong to the baselines layer, not to the CLI's own time.
TIMED = {
    ("mdlrank.datasets", "load_csv"): "datasets.parse",
    ("mdlrank.datasets", "load_matrix_csv"): "datasets.parse",
    ("mdlrank.datasets", "returns_transform"): "datasets.returns",
    ("mdlrank.datasets", "generate_lin"): "datasets.generate",
    ("mdlrank.datasets", "standardize_columns"): "datasets.standardize",
    ("mdlrank.linalg", "svd"): "linalg.svd",
    ("mdlrank.complexity", "select_rank"): "complexity",
    ("mdlrank.baselines", "kaiser"): "baselines",
    ("mdlrank.baselines", "kneedle"): "baselines",
    ("mdlrank.baselines", "scree"): "baselines",
    ("mdlrank.cli", "_baselines"): "baselines",
}
# called once per candidate k; counted only, since a timer per call would
# cost more than the call itself
COUNTED = {("mdlrank.complexity", "stochastic_complexity_terms"): "complexity.score"}
PARSE = "datasets.parse"


class Tracer:
    """In-memory spans on one thread: per layer, total time, self time
    (span time minus the time of the spans it encloses) and call count."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = Counter()
        self.parse_peak = 0
        self.measure_parse_memory = False
        self._children = []  # enclosed-span time, one slot per open span

    def reset(self):
        self.total.clear()
        self.self.clear()
        self.calls.clear()

    def timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            memory = self.measure_parse_memory and layer == PARSE
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                if memory:
                    self.parse_peak = max(self.parse_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self.total[layer] += spent
                self.self[layer] += spent - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += spent

        return wrapper

    def counted(self, layer, fn):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every target name in every loaded mdlrank module."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mdlrank"]
        wrappers = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                key = (getattr(value, "__module__", None), getattr(value, "__name__", None))
                if key not in wrappers:
                    if key in TIMED:
                        wrappers[key] = self.timed(TIMED[key], value)
                    elif key in COUNTED:
                        wrappers[key] = self.counted(COUNTED[key], value)
                    else:
                        continue
                setattr(module, name, wrappers[key])


def same_bytes(path_a, path_b):
    """Whether two files hold the same bytes, read in small chunks so that
    the comparison raises neither the peak memory nor the set of loaded
    libraries of this process."""
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        while True:
            chunk = a.read(1 << 16)
            if chunk != b.read(1 << 16):
                return False
            if not chunk:
                return True


def run(spec, reference):
    argv = spec["argv"]
    tracer = None
    main = mdlrank.cli.main
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        main = tracer.timed("cli", main)
        tracer.measure_parse_memory = True

    # one untimed operation first, so lazy imports and first-call set-up
    # are not in the timings; its report is kept for the checker
    if main(argv + ["--out", spec["warmup_report"]]) != 0:
        raise SystemExit("the warm-up operation failed")
    reference.time()  # the reference's own warm-up
    if tracer is not None:
        tracer.measure_parse_memory = False
        tracer.reset()

    report = spec["report"]
    times, failed, report_bytes, mismatched = [], 0, 0, 0
    ref_times = [reference.time()]
    deadline = time.perf_counter() + spec["seconds"]
    while time.perf_counter() < deadline:
        # a new file each time, and the last one deleted before it is
        # written back: a truncated and rewritten file is flushed to disk
        # on close, and old reports would be written back during the run
        if os.path.exists(report):
            os.remove(report)
        start = time.perf_counter()
        status = main(argv + ["--out", report])
        times.append(time.perf_counter() - start)
        ref_times.append(reference.time())
        if status != 0:
            failed += 1
            continue
        report_bytes += os.path.getsize(report)
        if not same_bytes(report, spec["warmup_report"]):
            mismatched += 1

    result = {
        "times": times,
        "ref_times": ref_times,
        "failed": failed,
        "mismatched": mismatched,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }
    if tracer is not None:
        result["trace"] = {
            "total": dict(tracer.total),
            "self": dict(tracer.self),
            "calls": dict(tracer.calls),
            "parse_peak_bytes": tracer.parse_peak,
            "report_bytes": report_bytes,
        }
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    to_reference, from_reference = spec["reference_fds"]
    reference = ReferenceClient(os.fdopen(to_reference, "w"), os.fdopen(from_reference, "r"))
    result = run(spec, reference)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
