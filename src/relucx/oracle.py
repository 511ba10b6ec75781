"""Independent checks of the builder: grid sampling and closed-form counts.

The sampled route never touches the solver: it evaluates the network's node
maps on a dense grid and records which all-nonzero sign patterns occur.
Every pattern seen this way must be a region reported by the builder, and
for a fine enough grid the two sets coincide.

The grid is streamed in chunks of CHUNK_POINTS points, and each chunk's sign
rows are packed into integer words and deduplicated before the next chunk
is evaluated, so memory depends on the chunk size and the number of node
maps but not on the resolution; time grows as resolution**n0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite
from typing import Iterator

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

# Grid points evaluated at once by sample_region_signs.
CHUNK_POINTS = 1 << 16

_EXCLUSION_TOL = 1e-6

# Sign bits per packed word; a row of N node maps takes ceil(N / 62) words,
# each a nonnegative int64.
_WORD_BITS = 62


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


def sample_region_signs(net: ReluNetwork, grid: SampleGrid) -> set[SignSequence]:
    """Region sign sequences witnessed by grid points.

    Points with any node map within _EXCLUSION_TOL of zero are dropped (NaN
    values too), so every returned sequence is a genuine open-region
    sample; an infinite value keeps its sign.  The grid is evaluated one
    chunk at a time, and only the distinct packed sign rows of each chunk
    are kept, so memory does not depend on the grid's resolution.
    """
    if len(grid.lower) != net.n0:
        raise ValueError(f"grid dimension {len(grid.lower)} != network input {net.n0}")
    n = net.num_node_maps
    keys: set[tuple[int, ...]] = set()
    for points in grid.chunks():
        vals = node_map_value_matrix(net, points)
        keep = np.all(np.abs(vals) >= _EXCLUSION_TOL, axis=1)
        words = _pack_rows(vals[keep] > 0)
        if words.shape[1] == 1:
            keys.update((w,) for w in np.unique(words[:, 0]).tolist())
        elif len(words):
            keys.update(map(tuple, np.unique(words, axis=0).tolist()))
    return {_unpack_words(key, n) for key in keys}


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (P, N) bool array into (P, ceil(N / _WORD_BITS)) int64 words.

    Column 0 is the most significant bit of word 0, so each word reads its
    columns in order.
    """
    words = []
    for lo in range(0, bits.shape[1], _WORD_BITS):
        block = bits[:, lo : lo + _WORD_BITS]
        weights = np.left_shift(1, np.arange(block.shape[1] - 1, -1, -1, dtype=np.int64))
        words.append(block.astype(np.int64) @ weights)
    return np.stack(words, axis=1)


def _unpack_words(words: tuple[int, ...], n: int) -> SignSequence:
    """The all-nonzero sign sequence of n node maps packed by _pack_rows."""
    entries = []
    for w, word in enumerate(words):
        width = min(_WORD_BITS, n - w * _WORD_BITS)
        entries.extend(1 if word >> (width - 1 - j) & 1 else -1 for j in range(width))
    return SignSequence.from_entries(entries)


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
) -> bool:
    """Probe a sphere of radius epsilon around a claimed vertex.

    Genuine vertices show both signs of every zero coordinate among the
    probes while every nonzero coordinate holds its sign.  Deterministic:
    the probe directions come from a generator seeded with 0.
    """
    u = np.random.default_rng(0).standard_normal((trials, net.n0))
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
