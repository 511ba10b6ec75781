"""Command-line entry points: build, experiment, oracle-check.

`experiment --threads K` splits its trials into up to K contiguous spans,
one per CPU this process may run on: the calling process runs the first span
and one forked child process runs each other span.  Results are merged in
trial order, so `stats.csv` is the same for every K.

Exit codes: 0 success, 1 unreadable or malformed model file, bad
`experiment` input, an unwritable `--out`, an `experiment` trial process
that could not start or sent no result, or an `oracle-check` grid too large
to index, 2 degenerate network, or a build whose vertices or cells fail
their consistency checks, 3 unsupported architecture, 4 oracle violation.
Invalid flag values rejected by the argument parser exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from .builder import ArchitectureUnsupported, DegenerateNetwork, DuplicateMismatch, build_complex
from .model import (
    ModelFormatError,
    ReluNetwork,
    _check_architecture,
    random_init,
    read_model,
)
from .oracle import SampleGrid, sample_region_signs
from .signs import text
from .topology import (
    BoundaryInconsistent,
    ClosureViolation,
    assemble,
    betti_gf2,
    compactify,
    decision_boundary,
    render_db_svg,
)

__all__ = [
    "ExperimentConfig",
    "StatsRow",
    "TrialProcessError",
    "cmd_build",
    "cmd_experiment",
    "cmd_oracle_check",
    "main",
    "run_experiment",
]

EXIT_OK = 0
EXIT_BAD_MODEL = 1
EXIT_DEGENERATE = 2
EXIT_UNSUPPORTED = 3
EXIT_ORACLE_VIOLATION = 4

# Failures that a network's numbers cause, by the "error" name exit 2 prints.
# Only a degenerate draw is redrawn in `experiment`.
_NUMERIC_ERRORS = {
    DegenerateNetwork: "degenerate_network",
    DuplicateMismatch: "duplicate_mismatch",
    ClosureViolation: "closure_violation",
    BoundaryInconsistent: "boundary_inconsistent",
}

_REDRAW_STRIDE = 1_000_000_007
_MAX_REDRAWS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    architecture: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self):
        _check_architecture(self.architecture)
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class TrialProcessError(Exception):
    """A child process running a span of trials could not start or sent no result."""


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


def _analyze(net: ReluNetwork):
    state = build_complex(net)
    cx = assemble(state.vertices, state.covered)
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


def _run_trial(arch: tuple[int, ...], base_seed: int, trial: int):
    """Build one random network, redrawing with a fresh seed on degeneracy."""
    redraws = 0
    for attempt in range(_MAX_REDRAWS + 1):
        seed = base_seed + trial + attempt * _REDRAW_STRIDE
        net = random_init(arch, seed)
        try:
            _, _, _, report = _analyze(net)
        except DegenerateNetwork:
            redraws += 1
            continue
        return seed, redraws, report
    raise DegenerateNetwork(
        f"trial {trial}: still degenerate after {_MAX_REDRAWS} redraws"
    )


def _trial_spans(trials: int, workers: int) -> list[range]:
    """Trials 0..trials-1 as `workers` contiguous spans whose sizes differ by at most one."""
    size, extra = divmod(trials, workers)
    stops = [0]
    for w in range(workers):
        stops.append(stops[-1] + size + (w < extra))
    return [range(a, b) for a, b in zip(stops, stops[1:])]


def _worker_count(workers: int, trials: int) -> int:
    """Processes to run trials in: at most `workers`, one per usable CPU and per trial."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus, trials))


def _fork_span(config: ExperimentConfig, span: range):
    """Start a child that runs `span` and pickles its trial results, or the exception
    that stopped it, into a pipe; returns the child's pid and the pipe's read end."""
    try:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    except OSError as exc:
        raise TrialProcessError(
            f"could not start the process running trials {span.start}-{span.stop - 1}: {exc}"
        ) from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                results = [_run_trial(config.architecture, config.seed, t) for t in span]
                payload = (True, results)
            except Exception as exc:
                payload = (False, exc)
            with open(write_fd, "wb") as fh:
                fh.write(pickle.dumps(payload))
            status = 0
        finally:
            # never unwind into the caller's frames, and never flush the
            # parent's buffered output a second time
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _span_results(data: bytes, status: int, span: range) -> list:
    """The trial results a child sent, or the exception it sent raised here."""
    try:
        ok, value = pickle.loads(data)
    except Exception:  # nothing or a torn message: the child died, or could not pickle
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise TrialProcessError(
            f"the process running trials {span.start}-{span.stop - 1} "
            f"ended without a result ({how})"
        ) from None
    if not ok:
        raise value
    return value


def _run_trials(config: ExperimentConfig, workers: int) -> list:
    """`_run_trial` for every trial, in trial order, over up to `workers` processes.

    The first span runs here and each other span in one forked child.  The
    earliest failing trial in trial order decides the outcome, as in a serial
    run; children still running then are killed, and every child is reaped
    on every path.
    """
    arch, seed = config.architecture, config.seed
    spans = _trial_spans(config.trials, _worker_count(workers, config.trials))
    # a child ends with os._exit, so nothing buffered here is written twice
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # pid -> (pipe, span) of each child not yet reaped
    try:
        for span in spans[1:]:
            pid, pipe = _fork_span(config, span)
            children[pid] = (pipe, span)
        results = [_run_trial(arch, seed, t) for t in spans[0]]
        for pid in list(children):
            pipe, span = children[pid]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            results += _span_results(data, status, span)
        return results
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> tuple[StatsRow, list]:
    """Run all trials and aggregate them in trial order.

    `workers` > 1 splits the trials over up to that many processes (see
    `_run_trials`); the rows and the summary are the same for every value.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if config.trials < 2:
        print("warning: single trial, standard errors reported as 0", file=sys.stderr)
    results = _run_trials(config, workers)

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


def _betti_fields(report) -> dict:
    return {"betti": list(report.betti), "bounded": report.bounded, "unbounded": report.unbounded}


def _write_build_outputs(out: Path, state, cx, report) -> None:
    columns = (state.coords.tolist(), state.zero_sets.tolist(), state.residuals.tolist())
    with open(out / "vertices.jsonl", "w") as fh:
        for key, coords, zero_set, residual in sorted(zip(state.vertices, *columns)):
            signs = text(key, cx.n)
            row = {"coords": coords, "signs": signs, "zero_set": zero_set, "residual": residual}
            fh.write(json.dumps(row) + "\n")
    with open(out / "complex.jsonl", "w") as fh:
        for key, dim in sorted((key, d) for d, grade in enumerate(cx.grading) for key in grade):
            fh.write(json.dumps({"signs": text(key, cx.n), "dim": dim}) + "\n")
    with open(out / "betti.json", "w") as fh:
        fh.write(json.dumps(_betti_fields(report)) + "\n")


def cmd_build(args) -> int:
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
    state, cx, db, report = _analyze(net)
    try:
        _write_build_outputs(out, state, cx, report)
        if args.svg:
            if net.n0 == 2:
                coords = dict(zip(state.vertices, state.coords))
                render_db_svg(net, coords, db, (args.box[0], args.box[1]), str(out / "db.svg"))
            else:
                print("warning: --svg ignored, rendering needs n_0 = 2", file=sys.stderr)
    except OSError as exc:
        return _out_error(exc)
    counts = cx.dim_counts()
    fields = {"vertices": counts[0], "cells": sum(counts), "regions": counts[-1]}
    print(json.dumps({**fields, **_betti_fields(report)}))
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        arch = tuple(int(p) for p in args.arch.replace("(", "").replace(")", "").split(","))
    except ValueError:
        print(f"error: cannot parse architecture {args.arch!r}", file=sys.stderr)
        return EXIT_BAD_MODEL
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        config = ExperimentConfig(architecture=arch, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODEL
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _out_error(exc)
    summary, rows = run_experiment(config, args.threads)
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


def cmd_oracle_check(args) -> int:
    try:
        net = read_model(args.model)
        grid = SampleGrid.square(args.box[0], args.box[1], net.n0, args.resolution)
    except (OSError, ValueError) as exc:  # ModelFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODEL
    regions = build_complex(net).regions
    sampled = sample_region_signs(net, grid)
    violations = sorted(sampled - regions)
    missing = sorted(regions - sampled)
    n = net.num_node_maps
    report = {
        "regions_builder": len(regions),
        "regions_sampled": len(sampled),
        "missing": [text(key, n) for key in missing],
        "violations": [text(key, n) for key in violations],
        "counts_ok": len(sampled) == len(regions),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `relucx` argument parser, built once per process; each parse makes a fresh namespace."""
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
    p_build.set_defaults(func=cmd_build)

    p_exp = sub.add_parser("experiment", help="Betti statistics over random networks")
    p_exp.add_argument("--arch", required=True, help="architecture, e.g. 2,5,1")
    p_exp.add_argument("--trials", type=int, default=50)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default=".")
    p_exp.add_argument(
        "--threads",
        type=int,
        default=1,
        help="split the trials over up to this many processes, at most one per "
        "usable CPU; results are the same for every value",
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_oracle = sub.add_parser("oracle-check", help="compare builder regions to sampling")
    p_oracle.add_argument("--model", required=True)
    p_oracle.add_argument("--box", type=_box_pair, default=(-20.0, 20.0))
    p_oracle.add_argument("--resolution", type=_resolution, default=400)
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; map the failures every command shares to their exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_NUMERIC_ERRORS) as exc:
        print(json.dumps({"error": _NUMERIC_ERRORS[type(exc)], "detail": str(exc)}))
        return EXIT_DEGENERATE
    except ArchitectureUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except TrialProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODEL


if __name__ == "__main__":
    sys.exit(main())
