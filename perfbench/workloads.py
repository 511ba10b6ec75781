"""The benchmark's workloads: the operations of each round and their inputs.

A round is a fixed list of operations, each one `relucx` command run in
process through `relucx.cli.main`.  Round r of a run with seed s draws its
networks from (s, r) alone, so a seed fixes the whole, unbounded sequence of
rounds and a run processes a prefix of it.  The program only ever sees the
generated inputs: model files and command-line arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from checks import random_model, write_model

# One worker process runs at most this many threads of the program.
NPROC = len(os.sched_getaffinity(0))

# Trial seeds of one experiment op are base + t (+ redraws * stride); bases are
# spaced this far apart so that no two ops of a run share a trial seed.
SEED_SPACING = 1 << 12

BOX = (-20.0, 20.0)


@dataclass(frozen=True)
class Op:
    """One program invocation and what the checks need to know about it."""

    kind: str  # "experiment", "build" or "oracle-check"
    argv: tuple[str, ...]
    networks: int  # networks the op fully processes
    out: str = ""  # output directory ("" when the op writes no files)
    meta: dict = field(default_factory=dict)


def arch_text(arch) -> str:
    return ",".join(str(w) for w in arch)


class Workload:
    name = ""
    why = ""
    threads = 1  # threads the program runs in one operation
    # the reference kernel that times are scaled by (see worker.py): each
    # tracks only work of its own kind
    kernel = "interpreter"

    def round_ops(self, seed: int, r: int, run_dir: Path) -> list[Op]:
        """Operations of round r, writing their input files under run_dir."""
        raise NotImplementedError

    def warmup_op(self, run_dir: Path) -> Op:
        """One small untimed network that lets lazy set-up finish."""
        raise NotImplementedError


class Experiment2D(Workload):
    """The paper's empirical setting: Betti statistics of random 2-input nets.

    Widths grow alone, (2,16,1), and with depth, (2,8,8,1) and (2,6,6,6,1).
    The builder's extend_layer does most of the work; topology is ~1%.
    """

    name = "experiment-2d"
    why = "paper's setting: 2-input sweep over width and depth; extend_layer dominates, topology ~1%"
    sweep = (((2, 16, 1), 4), ((2, 8, 8, 1), 4), ((2, 6, 6, 6, 1), 4))
    threads = NPROC

    def round_ops(self, seed, r, run_dir):
        ops = []
        for i, (arch, trials) in enumerate(self.sweep):
            base = ((seed * 1024 + r) * len(self.sweep) + i) * SEED_SPACING
            out = run_dir / f"r{r}" / f"exp{i}"
            argv = (
                "experiment", "--arch", arch_text(arch), "--trials", str(trials),
                "--seed", str(base), "--threads", str(self.threads), "--out", str(out),
            )
            meta = {"arch": list(arch), "trials": trials, "base_seed": base}
            ops.append(Op("experiment", argv, trials, str(out), meta))
        return ops

    def warmup_op(self, run_dir):
        out = run_dir / "warmup"
        argv = ("experiment", "--arch", "2,5,1", "--trials", "2", "--seed", "0",
                "--threads", str(self.threads), "--out", str(out))
        return Op("experiment", argv, 2, str(out), {"arch": [2, 5, 1], "trials": 2, "base_seed": 0})


class BuildHighDim(Workload):
    """`relucx build` of shallow nets with 5 and 6 inputs.

    Many inputs make the cube closure large, so closure, assemble, compactify
    and the GF(2) ranks carry over half the time, and complex.jsonl runs to
    MBs.  The nets are small enough (about 0.5-1 s each) that a run builds
    some 25 of them: one net's build time varies by about 20% with its draw.
    """

    name = "build-highdim"
    why = "shallow nets with 5-6 inputs: closure, topology and writing complex.jsonl carry the time"
    archs = ((5, 8, 1), (6, 7, 1), (5, 7, 1))

    def round_ops(self, seed, r, run_dir):
        ops = []
        for i, arch in enumerate(self.archs):
            model_path = run_dir / "inputs" / f"r{r}-m{i}.json"
            write_model(random_model(arch, [seed, r, i]), model_path)
            out = run_dir / f"r{r}" / f"build{i}"
            argv = ("build", "--model", str(model_path), "--out", str(out))
            ops.append(Op("build", argv, 1, str(out), {"model": str(model_path)}))
        return ops

    def warmup_op(self, run_dir):
        model_path = run_dir / "inputs" / "warmup.json"
        write_model(random_model((4, 5, 1), 0), model_path)
        out = run_dir / "warmup"
        return Op("build", ("build", "--model", str(model_path), "--out", str(out)), 1, str(out),
                  {"model": str(model_path)})


class OracleGrid(Workload):
    """`relucx oracle-check` on dense grids: two 2-input nets at 400^2, one 3-input at 96^3.

    Grid sampling is most of the time and the 3-input grid sets peak memory;
    topology is not called at all.
    """

    name = "oracle-grid"
    why = "grid sampling at 400^2 and 96^3: oracle time and memory dominate, topology unused"
    kernel = "sort"
    nets = (((2, 5, 5, 1), 400), ((2, 8, 1), 400), ((3, 4, 4, 1), 96))

    def round_ops(self, seed, r, run_dir):
        ops = []
        for i, (arch, resolution) in enumerate(self.nets):
            model_path = run_dir / "inputs" / f"r{r}-m{i}.json"
            write_model(random_model(arch, [seed, r, i]), model_path)
            ops.append(self._op(model_path, resolution))
        return ops

    def warmup_op(self, run_dir):
        model_path = run_dir / "inputs" / "warmup.json"
        write_model(random_model((2, 4, 1), 0), model_path)
        return self._op(model_path, 50)

    @staticmethod
    def _op(model_path, resolution):
        argv = ("oracle-check", "--model", str(model_path), f"--box={BOX[0]},{BOX[1]}",
                "--resolution", str(resolution))
        meta = {"model": str(model_path), "box": list(BOX), "resolution": resolution}
        return Op("oracle-check", argv, 1, "", meta)


WORKLOADS = {w.name: w for w in (Experiment2D(), BuildHighDim(), OracleGrid())}
