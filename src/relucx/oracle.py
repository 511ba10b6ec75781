"""Independent checks of the builder: grid sampling and closed-form counts.

The sampled route never touches the solver: it evaluates the network's node
maps on a dense grid and records which all-nonzero sign patterns occur.
Every pattern seen this way must be a region reported by the builder, and
for a fine enough grid the two sets coincide.

The grid is streamed in chunks of CHUNK_POINTS points, and each chunk's sign
rows are packed into keys (`signs.pack`) and deduplicated before the next
chunk is evaluated, so memory depends on the chunk size and the number of
node maps but not on the resolution; time grows as resolution**n0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite
from typing import Iterator

import numpy as np

from .model import ReluNetwork, node_map_value_matrix
from .signs import pack, unpack

__all__ = [
    "SampleGrid",
    "sample_region_signs",
    "arrangement_counts",
    "perturb_check",
]

# Grid points evaluated at once by sample_region_signs.
CHUNK_POINTS = 1 << 16

_EXCLUSION_TOL = 1e-6


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
        if self.resolution ** len(self.lower) > np.iinfo(np.intp).max:
            raise ValueError(
                f"grid of {self.resolution}^{len(self.lower)} points exceeds the largest index"
            )

    @classmethod
    def square(cls, lo: float, hi: float, n0: int, resolution: int) -> "SampleGrid":
        return cls((lo,) * n0, (hi,) * n0, resolution)

    def chunks(self) -> Iterator[np.ndarray]:
        """The grid points in row-major order, CHUNK_POINTS rows at a time.

        The rows are those of `meshgrid(*axes, indexing="ij")` raveled, in
        the same order; every chunk but the last has CHUNK_POINTS rows.
        """
        axes = [
            np.linspace(lo, hi, self.resolution)
            for lo, hi in zip(self.lower, self.upper)
        ]
        shape = (self.resolution,) * len(axes)
        total = self.resolution ** len(axes)
        for start in range(0, total, CHUNK_POINTS):
            flat = np.arange(start, min(start + CHUNK_POINTS, total))
            index = np.unravel_index(flat, shape)
            yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=1)


def sample_region_signs(net: ReluNetwork, grid: SampleGrid) -> set[int]:
    """Keys of the region sign sequences witnessed by grid points.

    Points with any node map within _EXCLUSION_TOL of zero are dropped (NaN
    values too), so every returned sequence is a genuine open-region
    sample; an infinite value keeps its sign.  The grid is evaluated one
    chunk at a time, and only the distinct keys of each chunk are kept, so
    memory does not depend on the grid's resolution.
    """
    if len(grid.lower) != net.n0:
        raise ValueError(f"grid dimension {len(grid.lower)} != network input {net.n0}")
    keys: set[int] = set()
    for points in grid.chunks():
        vals = node_map_value_matrix(net, points)
        keep = np.all(np.abs(vals) >= _EXCLUSION_TOL, axis=1)
        keys.update(np.unique(pack(np.where(vals[keep] > 0, 1, -1))).tolist())
    return keys


def arrangement_counts(n0: int, n1: int) -> tuple[int, int]:
    """(vertices, regions) of a generic arrangement of n1 hyperplanes in R^n0."""
    if n0 < 1 or n1 < 0:
        raise ValueError("need n0 >= 1 and n1 >= 0")
    vertices = comb(n1, n0)
    regions = sum(comb(n1, i) for i in range(n0 + 1))
    return vertices, regions


def perturb_check(
    net: ReluNetwork, key: int, vertex, epsilon: float = 1e-4, trials: int = 64
) -> bool:
    """Probe a sphere of radius epsilon around a claimed vertex of a full build.

    `vertex` is a `relucx.builder.Vertex` and `key` its packed sign sequence.

    Genuine vertices show both signs of every zero coordinate among the
    probes while every nonzero coordinate holds its sign.  Deterministic:
    the probe directions come from a generator seeded with 0.
    """
    u = np.random.default_rng(0).standard_normal((trials, net.n0))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = np.asarray(vertex.coords, dtype=float) + epsilon * u
    vals = node_map_value_matrix(net, pts)
    for i, s in enumerate(unpack([key], net.num_node_maps)[0].tolist()):
        col = vals[:, i]
        if s == 0:
            if not ((col > 0).any() and (col < 0).any()):
                return False
        else:
            if not np.all(np.sign(col) == s):
                return False
    return True
