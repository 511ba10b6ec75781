"""Command-line entry points: build, experiment, oracle-check.

Exit codes: 0 success, 1 unreadable or malformed model file, bad
`experiment` input, an unwritable `--out` or an `oracle-check` grid too
large to index, 2 degenerate network, 3 unsupported architecture, 4 oracle
violation.  Invalid flag values rejected by the argument parser exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .builder import (
    ArchitectureUnsupported,
    DegenerateNetwork,
    Tolerances,
    build_complex,
)
from .model import (
    ModelFormatError,
    ReluNetwork,
    _check_architecture,
    random_init,
    read_model,
)
from .oracle import SampleGrid, sample_region_signs
from .topology import assemble, betti_gf2, compactify, decision_boundary, render_db_svg

__all__ = ["ExperimentConfig", "StatsRow", "cmd_build", "cmd_experiment", "cmd_oracle_check", "main"]

EXIT_OK = 0
EXIT_BAD_MODEL = 1
EXIT_DEGENERATE = 2
EXIT_UNSUPPORTED = 3
EXIT_ORACLE_VIOLATION = 4

_REDRAW_STRIDE = 1_000_000_007
_MAX_REDRAWS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    architecture: tuple[int, ...]
    trials: int
    seed: int
    out_dir: str
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        _check_architecture(self.architecture)
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")


@dataclass(frozen=True)
class StatsRow:
    architecture: str
    trials: int
    redraws: int
    betti_mean: tuple[float, ...]
    betti_se: tuple[float, ...]
    bounded_mean: float
    bounded_se: float
    unbounded_mean: float
    unbounded_se: float


def _analyze(net: ReluNetwork, tol: Tolerances):
    state = build_complex(net, tol)
    cx = assemble(state.vertices.keys())
    db = decision_boundary(cx)
    report = betti_gf2(compactify(db))
    return state, cx, db, report


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _run_trial(arch: tuple[int, ...], base_seed: int, trial: int, tol: Tolerances):
    """Build one random network, redrawing with a fresh seed on degeneracy."""
    redraws = 0
    for attempt in range(_MAX_REDRAWS + 1):
        seed = base_seed + trial + attempt * _REDRAW_STRIDE
        net = random_init(arch, seed)
        try:
            _, _, _, report = _analyze(net, tol)
        except DegenerateNetwork:
            redraws += 1
            continue
        return seed, redraws, report
    raise DegenerateNetwork(
        f"trial {trial}: still degenerate after {_MAX_REDRAWS} redraws"
    )


def run_experiment(config: ExperimentConfig) -> tuple[StatsRow, list]:
    """Run all trials in trial order and aggregate them."""
    if config.trials < 2:
        print("warning: single trial, standard errors reported as 0", file=sys.stderr)
    results = [
        _run_trial(config.architecture, config.seed, t, config.tolerances)
        for t in range(config.trials)
    ]

    n0 = config.architecture[0]
    rows = []
    for t, (seed, redraws, report) in enumerate(results):
        rows.append((t, seed, redraws, report.betti, report.bounded, report.unbounded))
    betti_cols = [[row[3][i] for row in rows] for i in range(n0)]
    betti_stats = [_mean_se(col) for col in betti_cols]
    bounded_stats = _mean_se([row[4] for row in rows])
    unbounded_stats = _mean_se([row[5] for row in rows])
    summary = StatsRow(
        architecture="(" + ",".join(str(w) for w in config.architecture) + ")",
        trials=config.trials,
        redraws=sum(row[2] for row in rows),
        betti_mean=tuple(m for m, _ in betti_stats),
        betti_se=tuple(s for _, s in betti_stats),
        bounded_mean=bounded_stats[0],
        bounded_se=bounded_stats[1],
        unbounded_mean=unbounded_stats[0],
        unbounded_se=unbounded_stats[1],
    )
    return summary, rows


def write_stats_csv(path: str, summary: StatsRow, rows: list, n0: int) -> None:
    """Deterministic except for the timestamp header line."""
    lines = [f"# generated {datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')}"]
    head = ["architecture", "trials", "redraws"]
    for i in range(n0):
        head += [f"beta{i}_mean", f"beta{i}_se"]
    head += ["bounded_mean", "bounded_se", "unbounded_mean", "unbounded_se"]
    lines.append(",".join(head))
    cells = [f'"{summary.architecture}"', str(summary.trials), str(summary.redraws)]
    for m, s in zip(summary.betti_mean, summary.betti_se):
        cells += [str(m), str(s)]
    cells += [
        str(summary.bounded_mean),
        str(summary.bounded_se),
        str(summary.unbounded_mean),
        str(summary.unbounded_se),
    ]
    lines.append(",".join(cells))
    raw_head = ["trial", "seed", "redraws"]
    raw_head += [f"beta{i}" for i in range(n0)]
    raw_head += ["bounded", "unbounded"]
    lines.append(",".join(raw_head))
    for t, seed, redraws, betti, bounded, unbounded in rows:
        cells = [str(t), str(seed), str(redraws)]
        cells += [str(b) for b in betti]
        cells += [str(bounded), str(unbounded)]
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_error(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return EXIT_BAD_MODEL


def _write_build_outputs(out: Path, state, cx, report) -> None:
    with open(out / "vertices.jsonl", "w") as fh:
        for signs in sorted(state.vertices):
            v = state.vertices[signs]
            fh.write(
                json.dumps(
                    {
                        "coords": [float(c) for c in v.coords],
                        "signs": signs.text(),
                        "zero_set": list(v.zero_set),
                        "residual": v.max_residual,
                    }
                )
                + "\n"
            )
    with open(out / "complex.jsonl", "w") as fh:
        for seq in sorted(cx.cells):
            dim = cx.n0 - seq.n_zeros()
            fh.write(json.dumps({"signs": seq.text(), "dim": dim}) + "\n")
    with open(out / "betti.json", "w") as fh:
        json.dump(
            {
                "betti": list(report.betti),
                "bounded": report.bounded,
                "unbounded": report.unbounded,
            },
            fh,
        )
        fh.write("\n")


def cmd_build(args) -> int:
    tol = Tolerances(degeneracy_tol=args.deg_tol, cond_max=args.cond_max)
    try:
        net = read_model(args.model)
    except (OSError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODEL
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _out_error(exc)
    try:
        state, cx, db, report = _analyze(net, tol)
    except DegenerateNetwork as exc:
        print(json.dumps({"error": "degenerate_network", "detail": str(exc)}))
        return EXIT_DEGENERATE
    except ArchitectureUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    try:
        _write_build_outputs(out, state, cx, report)
        if args.svg:
            if net.n0 == 2:
                coords = {s: v.coords for s, v in state.vertices.items()}
                render_db_svg(net, coords, db, (args.box[0], args.box[1]), str(out / "db.svg"))
            else:
                print("warning: --svg ignored, rendering needs n_0 = 2", file=sys.stderr)
    except OSError as exc:
        return _out_error(exc)
    counts = cx.dim_counts()
    print(
        json.dumps(
            {
                "vertices": counts[0],
                "cells": sum(counts),
                "regions": counts[-1],
                "betti": list(report.betti),
                "bounded": report.bounded,
                "unbounded": report.unbounded,
            }
        )
    )
    return EXIT_OK


def cmd_experiment(args) -> int:
    tol = Tolerances(degeneracy_tol=args.deg_tol, cond_max=args.cond_max)
    try:
        arch = tuple(int(p) for p in args.arch.replace("(", "").replace(")", "").split(","))
    except ValueError:
        print(f"error: cannot parse architecture {args.arch!r}", file=sys.stderr)
        return EXIT_BAD_MODEL
    try:
        config = ExperimentConfig(
            architecture=arch,
            trials=args.trials,
            seed=args.seed,
            out_dir=args.out,
            tolerances=tol,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODEL
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _out_error(exc)
    try:
        summary, rows = run_experiment(config)
    except DegenerateNetwork as exc:
        print(json.dumps({"error": "degenerate_network", "detail": str(exc)}))
        return EXIT_DEGENERATE
    except ArchitectureUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        write_stats_csv(str(out / "stats.csv"), summary, rows, arch[0])
    except OSError as exc:
        return _out_error(exc)
    print(
        json.dumps(
            {
                "architecture": summary.architecture,
                "trials": summary.trials,
                "redraws": summary.redraws,
                "betti_mean": list(summary.betti_mean),
                "betti_se": list(summary.betti_se),
                "bounded_mean": summary.bounded_mean,
                "unbounded_mean": summary.unbounded_mean,
            }
        )
    )
    return EXIT_OK


def cmd_oracle_check(args, built_regions=None) -> int:
    tol = Tolerances(degeneracy_tol=args.deg_tol, cond_max=args.cond_max)
    try:
        net = read_model(args.model)
        grid = SampleGrid.square(args.box[0], args.box[1], net.n0, args.resolution)
    except (OSError, ValueError) as exc:  # ModelFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODEL
    try:
        state = build_complex(net, tol)
    except DegenerateNetwork as exc:
        print(json.dumps({"error": "degenerate_network", "detail": str(exc)}))
        return EXIT_DEGENERATE
    except ArchitectureUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if built_regions is None:
        built_regions = state.regions
    sampled = sample_region_signs(net, grid)
    violations = sorted(sampled - set(built_regions))
    missing = sorted(set(built_regions) - sampled)
    report = {
        "regions_builder": len(built_regions),
        "regions_sampled": len(sampled),
        "missing": [s.text() for s in missing],
        "violations": [s.text() for s in violations],
        "counts_ok": len(sampled) == len(built_regions),
    }
    print(json.dumps(report))
    return EXIT_ORACLE_VIOLATION if violations else EXIT_OK


def _box_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("box must be 'lo,hi'")
    lo, hi = float(parts[0]), float(parts[1])
    if not hi > lo:
        raise argparse.ArgumentTypeError("box must satisfy lo < hi")
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError("box must have a finite width hi - lo")
    return lo, hi


def _resolution(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"resolution must be at least 2, got {value}")
    return value


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deg-tol", type=float, default=Tolerances().degeneracy_tol)
    p.add_argument("--cond-max", type=float, default=Tolerances().cond_max)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relucx",
        description="Exact cell structure and decision-boundary topology of ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the complex of a model file")
    p_build.add_argument("--model", required=True)
    p_build.add_argument("--out", default=".")
    p_build.add_argument("--svg", action="store_true")
    p_build.add_argument("--box", type=_box_pair, default=(-5.0, 5.0))
    _add_tolerance_flags(p_build)
    p_build.set_defaults(func=cmd_build)

    p_exp = sub.add_parser("experiment", help="Betti statistics over random networks")
    p_exp.add_argument("--arch", required=True, help="architecture, e.g. 2,5,1")
    p_exp.add_argument("--trials", type=int, default=50)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default=".")
    p_exp.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored: trials run serially"
    )
    _add_tolerance_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_oracle = sub.add_parser("oracle-check", help="compare builder regions to sampling")
    p_oracle.add_argument("--model", required=True)
    p_oracle.add_argument("--box", type=_box_pair, default=(-20.0, 20.0))
    p_oracle.add_argument("--resolution", type=_resolution, default=400)
    _add_tolerance_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
