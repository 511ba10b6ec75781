"""Do two independent sets of benchmark runs agree within the benchmark's bounds?

    python3 perfbench/stability.py --runs 10 --gap 300

Each of the two sets runs every workload once per seed, workloads
interleaved, with seeds that the other set does not use, for BENCHMARK.json's
run_seconds.  For each end-to-end metric on each workload it prints both
sets' medians and quartiles, the spread (quartile distance over median) and
by how much set 1's median is worse than set 0's.  The sets agree when every
spread but setup_s's, and the distance between the two medians in either
direction, stay within the metric's bound from BENCHMARK.json.  The raw
results go to perfbench/runs/stability-<time>.json.  Run it from the root of
the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload, seed, seconds) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    p.add_argument("--gap", type=float, default=0.0, help="seconds to wait between sets")
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")

    seconds = spec["run_seconds"]
    sets = []
    for k in range(2):
        if k and args.gap:
            time.sleep(args.gap)
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            for w in workloads:
                res = run_once(spec["command"], w, seed, seconds)
                runs[w].append({"seed": seed, "at": time.time(), **res})
                vals = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
                print(f"set {k} seed {seed} {w}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
        sets.append(runs)

    ok = True
    print()
    for w in workloads:
        shares = {round(sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w]), 12)
                  for s in sets}
        correct = all(r["correct"] for s in sets for r in s[w])
        print(f"{w}: all correct={correct}, failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            for k, (q1, med, q3) in enumerate(stats):
                spread = (q3 - q1) / med
                spread_ok = name == "setup_s" or spread <= bound
                ok &= spread_ok
                print(f"  {name:15s} set {k}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                      f"spread {spread:.3f}{'' if spread_ok else ' OVER'}")
            first, second = stats[0][1], stats[1][1]
            # the order of the sets is arbitrary, so a gap either way counts
            medians_ok = abs(second - first) / first <= bound
            ok &= medians_ok
            print(f"  {name:15s} set 1 worse than set 0 by "
                  f"{worse_by(first, second, metric['better']):+.3f} (bound {bound})"
                  f"{'' if medians_ok else ' OVER'}")
    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    out = runs_dir / f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"seconds": seconds, "sets": sets}, indent=1))
    print(f"\n{'agree' if ok else 'DISAGREE'}; raw results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
