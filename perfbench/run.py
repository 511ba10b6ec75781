"""Benchmark of relucx: one workload, one seed, one run.

    python3 perfbench/run.py --workload experiment-2d --seed 1 --seconds 36 --trace 0

Run from the root of a checkout of the repository.  The program is imported
from its source tree (src/); nothing is installed.  With --trace 0 the last
line of standard output is a JSON object holding the end-to-end metrics
networks_per_s, setup_s and peak_rss_mb; with --trace 1 it holds the
per-layer metrics instead, and the spans are written to
perfbench/runs/trace-<workload>-seed<seed>.json.  Every operation's output
is checked by checks.py after the timed process has ended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# setup_s is the median over this many fresh worker processes: the timed
# worker plus SETUP_REPEATS - 1 that stop at their first timed operation.
SETUP_REPEATS = 7
# A run must end within 180 s; the timed worker gets what is left of this.
RUN_BUDGET_S = 165.0
# The program's numpy must not start BLAS threads beside the trial threads.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def spawn_worker(args, run_dir: Path, result: Path, setup_only: bool, timeout: float) -> tuple[dict, float]:
    """Run worker.py to its end; returns its result and the moment it was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **WORKER_ENV}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    if rc != 0:
        raise WorkerFailed(f"worker exited with code {rc}")
    with open(result) as fh:
        return json.load(fh), started


def setup_at_nominal(result: dict, started: float) -> float:
    """Set-up time scaled to the reference speed measured right after it."""
    return (result["first_op_at"] - started) * result["reference_nominal_s"] / result["reference_s"]


def rebuild(model: dict, work: Path) -> Path:
    """Build a model with the program, in this process, for a trial's re-check."""
    import relucx.cli

    model_path, out = work / "model.json", work / "build"
    checks.write_model(model, model_path)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = relucx.cli.main(["build", "--model", str(model_path), "--out", str(out)])
    checks.require(rc == 0, f"rebuild exited with code {rc}")
    return out


def check_op(op: dict, work: Path) -> None:
    meta = op["meta"]
    if op["kind"] == "build":
        checks.check_build(checks.load_model(meta["model"]), op["out"])
    elif op["kind"] == "oracle-check":
        checks.check_oracle(checks.load_model(meta["model"]), op["stdout"], meta["box"],
                            meta["resolution"])
    else:
        rows = checks.check_stats_csv(Path(op["out"]) / "stats.csv", meta["arch"],
                                      meta["base_seed"], meta["trials"])
        summary = json.loads(op["stdout"].strip().splitlines()[-1])
        checks.require(summary["trials"] == meta["trials"], "stdout summary trial count")
        # a fixed sample: the first trial of every experiment
        model = checks.random_model(meta["arch"], rows[0]["seed"])
        checks.check_trial_rebuild(rows[0], model, rebuild(model, work))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "relucx" / "cli.py").is_file():
        print(f"error: no relucx source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                res, started = spawn_worker(args, run_dir, run_dir / f"setup{i}.json", True, 60)
                setups.append(setup_at_nominal(res, started))
        left = RUN_BUDGET_S - (time.monotonic() - t_start)
        result, started = spawn_worker(args, run_dir, run_dir / "result.json", False, left)
        setups.append(setup_at_nominal(result, started))

        attempted = failed = 0
        raw_rates = []
        errors = []
        for rnd in result["rounds"]:
            networks = 0
            for op in rnd["ops"]:
                attempted += 1
                if op["rc"] != 0:
                    failed += 1
                    print(f"failed (exit {op['rc']}): {' '.join(op['argv'])}", file=sys.stderr)
                    continue
                networks += op["networks"]
                try:
                    check_op(op, run_dir / "check")
                except (checks.CheckFailed, KeyError, ValueError, OSError) as exc:
                    errors.append(f"{' '.join(op['argv'])}: {exc!r}")
            raw_rates.append(networks / rnd["seconds"])
        for line in errors:
            print(f"check failed: {line}", file=sys.stderr)
        # a median over rounds keeps a few seconds of odd machine speed from
        # moving a whole run
        raw_rate = statistics.median(raw_rates)
        rate = raw_rate * result["run_reference_s"] / result["run_reference_nominal_s"]
        print(f"networks_per_s at wall-clock speed: {raw_rate:.4f}", file=sys.stderr)

        if args.trace:
            trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
            with open(trace_path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "rounds": len(result["rounds"]), "networks_per_s": rate,
                           "networks_per_s_wall_clock": raw_rate,
                           "per_layer": result["per_layer"], "spans": result["spans"]}, fh)
            per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            assert set(result["per_layer"]) == {m["name"] for m in per_layer}
            metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                       for m in per_layer}
        else:
            metrics = {
                "networks_per_s": {"value": rate, "unit": "1/s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
            }
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
