"""Independent checks of the builder: grid sampling and closed-form counts.

The sampled route never touches the solver: it evaluates the network's node
maps on a dense grid and records which all-nonzero sign patterns occur.
Every pattern seen this way must be a region reported by the builder, and
for a fine enough grid the two sets coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite
from typing import Optional

import numpy as np

from .builder import Vertex
from .model import ReluNetwork, node_map_value_matrix
from .signs import SignSequence

__all__ = [
    "SampleGrid",
    "sample_region_signs",
    "arrangement_counts",
    "perturb_check",
]


@dataclass(frozen=True)
class SampleGrid:
    """Axis-aligned box with `resolution` sample points per axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    resolution: int

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same dimension")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        for lo, hi in zip(self.lower, self.upper):
            if not hi > lo:
                raise ValueError("box must have positive extent on every axis")
            if not isfinite(hi - lo):
                raise ValueError("box must have finite bounds and extent on every axis")

    @classmethod
    def square(cls, lo: float, hi: float, n0: int, resolution: int) -> "SampleGrid":
        return cls((lo,) * n0, (hi,) * n0, resolution)

    def points(self) -> np.ndarray:
        axes = [
            np.linspace(lo, hi, self.resolution)
            for lo, hi in zip(self.lower, self.upper)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def sample_region_signs(
    net: ReluNetwork, grid: SampleGrid, exclusion_tol: float = 1e-6
) -> set[SignSequence]:
    """Region sign sequences witnessed by grid points.

    Points with any node map within exclusion_tol of zero are dropped, so
    every returned sequence is a genuine open-region sample.
    """
    if len(grid.lower) != net.n0:
        raise ValueError(f"grid dimension {len(grid.lower)} != network input {net.n0}")
    vals = node_map_value_matrix(net, grid.points())
    keep = np.all(np.abs(vals) >= exclusion_tol, axis=1)
    signs = np.where(vals[keep] > 0, 1, -1).astype(np.int8)
    unique = np.unique(signs, axis=0) if signs.size else signs
    return {SignSequence.from_entries(row.tolist()) for row in unique}


def arrangement_counts(n0: int, n1: int) -> tuple[int, int]:
    """(vertices, regions) of a generic arrangement of n1 hyperplanes in R^n0."""
    if n0 < 1 or n1 < 0:
        raise ValueError("need n0 >= 1 and n1 >= 0")
    vertices = comb(n1, n0)
    regions = sum(comb(n1, i) for i in range(n0 + 1))
    return vertices, regions


def perturb_check(
    net: ReluNetwork,
    vertex: Vertex,
    epsilon: float = 1e-4,
    trials: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Probe a sphere of radius epsilon around a claimed vertex.

    Genuine vertices show both signs of every zero coordinate among the
    probes while every nonzero coordinate holds its sign.  Deterministic
    for the default generator.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    u = rng.standard_normal((trials, net.n0))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = np.asarray(vertex.coords, dtype=float) + epsilon * u
    vals = node_map_value_matrix(net, pts)
    entries = vertex.signs.entries
    for i, s in enumerate(entries):
        col = vals[:, i]
        if s == 0:
            if not ((col > 0).any() and (col < 0).any()):
                return False
        else:
            if not np.all(np.sign(col) == s):
                return False
    return True
