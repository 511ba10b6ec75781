"""One benchmark process: set up, run whole rounds for the given time, report.

Started by run.py, never imported by it, so that every measurement starts
from a fresh interpreter: `setup_s` runs from the moment run.py starts this
process to the first timed operation, and `peak_rss_mb` is the high-water
resident set of this process or of its largest child process, whichever is
larger, read before run.py checks any output.

The CPU this runs on changes speed by up to ±30% for tens of seconds to
minutes at a time, which no statistic over one 30-s run can remove.  So the
worker times a fixed reference kernel of its own, untimed: once before the
first operation and once after every operation, on as many threads as the
workload's operations use.  Each workload names the kernel that does work of
its own kind: interpreter-bound for the builder's workloads, a numpy sort for
the oracle's.  run.py scales the run's times by the kernel's nominal time
(KERNELS) over the median of these readings per thread, and each set-up time
by the same ratio from a one-thread reading of the interpreter kernel taken
right after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import itertools
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import relucx.cli  # noqa: E402  (the program's import is part of set-up)

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# bound before a traced run wraps numpy.linalg.solve, so tracing cannot slow the reference
_solve = np.linalg.solve


def interpreter_kernel() -> int:
    """Fixed interpreter-bound work shaped like the builder's inner loop.

    Small solves, bit-packed sign keys and dict merges; nothing from relucx,
    so no change to the program can change its time.
    """
    rng = np.random.default_rng(12345)
    mats = rng.standard_normal((300, 2, 2))
    rhs = rng.standard_normal((300, 2))
    seen: dict = {}
    for i in range(300):
        x = _solve(mats[i], rhs[i])
        if not np.all(np.abs(x) < 1e6):
            continue
        key = 0
        for v in x.tolist():
            key = (key << 2) | (2 if v > 0 else 0)
        for c in itertools.combinations(range(6), 2):
            seen[(key, c)] = seen.get((key, c), 0) + 1
    return len(seen)


# built on the first reading, which comes after set-up, so setup_s leaves it out
_SORT_ROWS = []


def sort_kernel() -> int:
    """Fixed numpy-bound work shaped like the oracle's grid sampling.

    np.unique over the rows of an int8 sign matrix with few distinct rows,
    which is where sample_region_signs spends ~90% of its time.
    """
    if not _SORT_ROWS:
        rng = np.random.default_rng(12345)
        vals = rng.uniform(-20, 20, (20000, 3)) @ rng.standard_normal((3, 9))
        _SORT_ROWS.append(np.where(vals + rng.standard_normal(9) > 0, 1, -1).astype(np.int8))
    return len(np.unique(_SORT_ROWS[0], axis=0))


# kernel -> (function, its median time on the 2-CPU Xeon VM the bounds were
# measured on); operation times are reported at this reference speed
KERNELS = {"interpreter": (interpreter_kernel, 0.0092), "sort": (sort_kernel, 0.075)}


def reference_s(threads: int = 1, repeats: int = 3, kernel: str = "interpreter") -> float:
    """Median time of a kernel run once on each of `threads` threads at once."""
    fn = KERNELS[kernel][0]
    times = []
    for _ in range(repeats):
        pool = [threading.Thread(target=fn) for _ in range(threads)]
        t0 = time.perf_counter()
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(op) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = relucx.cli.main(list(op.argv))
    return rc, buf.getvalue()


def dir_bytes(path: str) -> int:
    if not path or not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    ops = workload.round_ops(args.seed, 0, run_dir)
    rc, _ = run_op(workload.warmup_op(run_dir))
    if rc != 0:
        print(f"warm-up network failed with exit code {rc}", file=sys.stderr)
        return 1
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    first_op_at = time.monotonic()
    result = {"first_op_at": first_op_at, "reference_s": reference_s(1, 9),
              "reference_nominal_s": KERNELS["interpreter"][1], "rounds": []}
    if not args.setup_only:
        # the interpreter lock serialises the kernel's threads as it does the trials'
        threads, kernel = workload.threads, workload.kernel
        refs = [reference_s(threads, kernel=kernel)]
        deadline = first_op_at + args.seconds
        r = 0
        while True:
            done = []
            round_s = 0.0
            for op in ops:
                t0 = time.perf_counter()
                rc, stdout = run_op(op)
                round_s += time.perf_counter() - t0
                refs.append(reference_s(threads, kernel=kernel))
                done.append({"kind": op.kind, "argv": list(op.argv), "networks": op.networks,
                             "out": op.out, "meta": op.meta, "rc": rc, "stdout": stdout,
                             "output_bytes": dir_bytes(op.out)})
            result["rounds"].append({"seconds": round_s, "ops": done})
            r += 1
            # start another round only if it is expected to end within the time
            if time.monotonic() + round_s > deadline:
                break
            ops = workload.round_ops(args.seed, r, run_dir)
        # the larger of this process's peak and its largest child's, so that
        # work moved into child processes stays in the figure
        result["peak_rss_kb"] = max(resource.getrusage(who).ru_maxrss for who in
                                    (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        # single readings jump for a fraction of a second; the run's median follows
        # the minute-long shifts
        result["run_reference_s"] = statistics.median(refs) / threads
        result["run_reference_nominal_s"] = KERNELS[kernel][1]
    if tracer:
        tracer.uninstall()
        totals = {"output_bytes": 0, "trials": 0, "redraws": 0, "oracle_regions_builder": 0}
        for rnd in result["rounds"]:
            for op in rnd["ops"]:
                totals["output_bytes"] += op["output_bytes"]
                if op["rc"] != 0:
                    continue
                report = json.loads(op["stdout"].strip().splitlines()[-1])
                if op["kind"] == "experiment":
                    totals["trials"] += report["trials"]
                    totals["redraws"] += report["redraws"]
                elif op["kind"] == "oracle-check":
                    totals["oracle_regions_builder"] += report["regions_builder"]
        if result["rounds"]:
            result["per_layer"] = layer_metrics(tracer.spans, len(result["rounds"]), totals)
        result["spans"] = [s.as_dict() for s in tracer.spans]
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
