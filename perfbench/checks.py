"""Independent checks of the program's outputs.

Nothing here imports the program's maths: the forward pass, the sign
parsing, the cell counts, the union-find and the statistics are the
benchmark's own, computed from the model weights and the output files.
Every check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Trial t of `relucx experiment --seed base` uses seed base + t + k * stride
# after k degenerate draws (README: "degenerate draws are redrawn
# deterministically").
REDRAW_STRIDE = 1_000_000_007
# Oracle sampling drops points with any node map this close to zero.
ORACLE_EXCLUSION = 1e-6
# A vertex's zero entries must vanish to this, relative to 1 + max|x|.
ZERO_TOL = 1e-6
GRID_CHUNK = 1 << 17


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def load_model(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def forward(model: dict, points: np.ndarray) -> np.ndarray:
    """Node map values (hidden pre-activations, then the output) at each point."""
    h = np.asarray(points, dtype=float)
    cols = []
    layers = model["layers"]
    for t, layer in enumerate(layers):
        z = h @ np.asarray(layer["weights"], dtype=float).T + np.asarray(layer["bias"], dtype=float)
        cols.append(z)
        h = np.maximum(z, 0.0) if t < len(layers) - 1 else z
    return np.concatenate(cols, axis=1)


def random_model(arch, seed) -> dict:
    """relucx's documented random init, drawn here: iid N(0,1) weights then biases, layer by layer.

    `seed` is anything numpy.random.default_rng takes: a trial's int seed, or
    the benchmark's own [seed, round, index] words.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for t in range(len(arch) - 1):
        w = rng.standard_normal((arch[t + 1], arch[t]))
        b = rng.standard_normal(arch[t + 1])
        layers.append({"weights": w.tolist(), "bias": b.tolist()})
    return {"architecture": list(arch), "layers": layers}


def write_model(model: dict, path) -> None:
    # json writes the shortest repr of each double, which reads back exactly
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(model, fh)
        fh.write("\n")


def parse_signs(text: str) -> tuple[int, ...]:
    body = text.strip()
    require(body.startswith("(") and body.endswith(")"), f"bad sign text {text!r}")
    out = tuple(int(p) for p in body[1:-1].split(","))
    require(all(e in (-1, 0, 1) for e in out), f"bad sign entry in {text!r}")
    return out


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# relucx build outputs


def check_vertices(model: dict, path) -> set[tuple[int, ...]]:
    """Each vertex's zero entries vanish at its coordinates; the others have its signs."""
    n0 = model["architecture"][0]
    rows = read_jsonl(path)
    require(rows, "vertices.jsonl is empty")
    coords = np.array([r["coords"] for r in rows], dtype=float)
    require(coords.shape[1] == n0, f"vertex coordinates have dimension {coords.shape[1]}, not {n0}")
    vals = forward(model, coords)
    seen = set()
    for row, x, v in zip(rows, coords, vals):
        signs = parse_signs(row["signs"])
        require(len(signs) == vals.shape[1], f"vertex {row['signs']} has the wrong length")
        zeros = [i for i, s in enumerate(signs) if s == 0]
        require(len(zeros) == n0, f"vertex {row['signs']} has {len(zeros)} zeros, not {n0}")
        require(sorted(row["zero_set"]) == zeros, f"vertex {row['signs']} zero_set disagrees")
        tol = ZERO_TOL * (1.0 + float(np.max(np.abs(x))))
        for i, s in enumerate(signs):
            if s == 0:
                require(abs(v[i]) <= tol, f"vertex {row['signs']}: map {i} is {v[i]:.3e}, not 0")
            else:
                require(np.sign(v[i]) == s, f"vertex {row['signs']}: map {i} is {v[i]:.3e}")
        require(signs not in seen, f"vertex {row['signs']} listed twice")
        seen.add(signs)
    return seen


def check_complex(n0: int, path) -> dict[tuple[int, ...], int]:
    """Cell dims are n0 minus zero counts, and the cells' Euler sum is that of R^n0."""
    cells = {}
    for row in read_jsonl(path):
        signs = parse_signs(row["signs"])
        dim = n0 - signs.count(0)
        require(row["dim"] == dim, f"cell {row['signs']} has dim {row['dim']}, expected {dim}")
        require(0 <= dim <= n0, f"cell {row['signs']} has {signs.count(0)} zeros")
        require(signs not in cells, f"cell {row['signs']} listed twice")
        cells[signs] = dim
    euler = sum((-1) ** d for d in cells.values())
    require(euler == (-1) ** n0, f"sum of (-1)^dim over cells is {euler}, not {(-1) ** n0}")
    return cells


def boundary_beta0(cells: dict[tuple[int, ...], int]) -> int:
    """Components of the compactified decision boundary, by union-find on its 1-skeleton."""
    verts = [s for s, d in cells.items() if d == 0 and s[-1] == 0]
    index = {s: i for i, s in enumerate(verts)}
    inf = len(verts)
    parent = list(range(inf + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s, d in cells.items():
        if d != 1 or s[-1] != 0:
            continue
        ends = [index[f] for f in
                (s[:p] + (0,) + s[p + 1:] for p in range(len(s) - 1) if s[p] != 0)
                if f in index]
        require(len(ends) <= 2, f"edge {s} has {len(ends)} vertices")
        ends += [inf] * (2 - len(ends))
        parent[find(ends[0])] = find(ends[1])
    return len({find(a) for a in range(inf + 1)})


def check_betti(n0: int, cells: dict[tuple[int, ...], int], path) -> None:
    """betti.json against Euler-Poincare and a union-find count of components."""
    with open(path) as fh:
        report = json.load(fh)
    betti = report["betti"]
    require(len(betti) == n0, f"betti has {len(betti)} entries, expected {n0}")
    require(all(isinstance(b, int) and b >= 0 for b in betti), f"betti {betti} not counts")
    db_counts = [0] * n0
    for s, d in cells.items():
        if s[-1] == 0:
            db_counts[d] += 1
    db_counts[0] += 1  # the point at infinity
    chi = sum((-1) ** k * c for k, c in enumerate(db_counts))
    chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
    require(chi == chi_betti, f"Euler-Poincare fails: cells give {chi}, betti give {chi_betti}")
    b0 = boundary_beta0(cells)
    require(betti[0] == b0, f"beta0 is {betti[0]}, union-find counts {b0} components")
    require(report["bounded"] == b0 - 1, f"bounded {report['bounded']} != beta0 - 1")
    require(report["unbounded"] == betti[-1] - b0 + 1, "unbounded != beta_top - beta0 + 1")


def check_build(model: dict, out_dir) -> dict:
    """All checks on one `relucx build` output directory; returns betti.json."""
    out = Path(out_dir)
    n0 = model["architecture"][0]
    vertices = check_vertices(model, out / "vertices.jsonl")
    cells = check_complex(n0, out / "complex.jsonl")
    cell_vertices = {s for s, d in cells.items() if d == 0}
    require(vertices == cell_vertices,
            f"{len(vertices)} vertices listed, {len(cell_vertices)} 0-cells in complex.jsonl")
    check_betti(n0, cells, out / "betti.json")
    with open(out / "betti.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# relucx oracle-check


def grid_region_count(model: dict, box, resolution: int) -> int:
    """Distinct all-nonzero sign rows over the oracle's grid, counted in chunks."""
    n0 = model["architecture"][0]
    n_maps = sum(model["architecture"][1:])
    require(n_maps <= 64, "sign rows longer than 64 maps cannot be packed")
    axis = np.linspace(box[0], box[1], resolution)
    weights = np.left_shift(np.uint64(1), np.arange(n_maps, dtype=np.uint64))
    keys = []
    total = resolution ** n0
    for lo in range(0, total, GRID_CHUNK):
        idx = np.unravel_index(np.arange(lo, min(total, lo + GRID_CHUNK)), (resolution,) * n0)
        vals = forward(model, np.stack([axis[i] for i in idx], axis=1))
        vals = vals[np.all(np.abs(vals) >= ORACLE_EXCLUSION, axis=1)]
        keys.append(np.unique(((vals > 0).astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)))
    return int(np.unique(np.concatenate(keys)).size) if keys else 0


def check_oracle(model: dict, stdout: str, box, resolution: int) -> dict:
    report = json.loads(stdout.strip().splitlines()[-1])
    require(report["violations"] == [], f"oracle reports {len(report['violations'])} violations")
    own = grid_region_count(model, box, resolution)
    require(report["regions_sampled"] == own,
            f"oracle sampled {report['regions_sampled']} regions, the grid has {own}")
    require(report["regions_builder"] == own + len(report["missing"]),
            "regions_builder != regions_sampled + missing")
    return report


# ---------------------------------------------------------------------------
# relucx experiment


def _mean_se(values):
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1) / n)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_stats_csv(path, arch, base_seed: int, trials: int) -> list[dict]:
    """Summary row recomputed from the trial rows; trial seeds follow base + t + k*stride."""
    n0 = arch[0]
    with open(path, newline="") as fh:
        require(fh.readline().startswith("# generated "), "stats.csv lacks its timestamp line")
        lines = list(csv.reader(fh))
    summary = dict(zip(lines[0], lines[1]))
    rows = [dict(zip(lines[2], (int(c) for c in line))) for line in lines[3:]]
    require(len(rows) == trials, f"{len(rows)} trial rows, expected {trials}")
    arch_text = "(" + ",".join(str(w) for w in arch) + ")"
    require(summary["architecture"] == arch_text, f"architecture {summary['architecture']}")
    require(int(summary["trials"]) == trials, "summary trial count is wrong")
    require(int(summary["redraws"]) == sum(r["redraws"] for r in rows), "summary redraws != sum")
    for t, row in enumerate(rows):
        require(row["trial"] == t, f"trial row {t} is numbered {row['trial']}")
        want = base_seed + t + row["redraws"] * REDRAW_STRIDE
        require(row["seed"] == want, f"trial {t} has seed {row['seed']}, rule gives {want}")
    columns = [f"beta{i}" for i in range(n0)] + ["bounded", "unbounded"]
    for col in columns:
        mean, se = _mean_se([r[col] for r in rows])
        require(_close(float(summary[f"{col}_mean"]), mean), f"{col}_mean is not the mean")
        require(_close(float(summary[f"{col}_se"]), se), f"{col}_se is not the standard error")
    return rows


def check_trial_rebuild(row: dict, model: dict, out_dir) -> None:
    """A trial's row agrees with a checked rebuild of its network."""
    betti = check_build(model, out_dir)
    n0 = model["architecture"][0]
    got = [row[f"beta{i}"] for i in range(n0)] + [row["bounded"], row["unbounded"]]
    want = list(betti["betti"]) + [betti["bounded"], betti["unbounded"]]
    require(got == want, f"trial {row['trial']} reports {got}, its rebuild gives {want}")
