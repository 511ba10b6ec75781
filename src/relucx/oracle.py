"""An independent check of the builder: grid sampling of the regions.

The sampled route never touches the solver: it evaluates the network's node
maps on a dense grid and records which all-nonzero sign patterns occur.
Every pattern seen this way must be a region reported by the builder, and
for a fine enough grid the two sets coincide.

The grid is streamed in chunks of at most CHUNK_BYTES bytes of node-map
values, so memory depends on neither the resolution nor the number of node
maps; time grows as resolution**n0.  A chunk holds whole runs of the last
axis, written coordinate-major from the axes, so its points reach the first
layer's matmul as contiguous rows.  A chunk's values are one node-map-major
call of `node_map_value_matrix`; each becomes a signed entry, 0 within the
exclusion band or if not finite.  Entry rows are packed into keys by exact
float64 matvecs (`signs.pack`) and deduplicated against the previous point in
scan order, then by `np.unique`.  Distinct keys with a zero field, from a
point near a node map's zero set or past an overflow, are dropped at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterator

import numpy as np

from .model import ReluNetwork, node_map_value_matrix
from .signs import n_zeros, pack

__all__ = [
    "SampleGrid",
    "sample_region_signs",
]

# Bytes of node-map values evaluated at once by sample_region_signs.
CHUNK_BYTES = 1 << 18

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

    def chunks(self, size: int) -> Iterator[np.ndarray]:
        """The grid points in row-major order, at most `size` rows at a time.

        The rows are those of `meshgrid(*axes, indexing="ij")` raveled, in
        the same order.  A run is the `resolution` points along the last axis
        at fixed leading coordinates; a chunk holds `max(1, size // resolution)`
        whole runs, or at most `size` points of one run when a run is longer.
        Each chunk is written coordinate-major into a C-contiguous (n0, P)
        array straight from the axes and yielded as its (P, n0) transpose.
        """
        r = self.resolution
        *lead, last = [np.linspace(lo, hi, r) for lo, hi in zip(self.lower, self.upper)]
        runs_per_chunk, width = max(1, size // r), min(size, r)
        runs = r ** len(lead)
        for first in range(0, runs, runs_per_chunk):
            run = np.arange(first, min(first + runs_per_chunk, runs))
            # leading axis k's index of each run: its digit k in base r, most significant first
            heads = [axis[run // r ** (len(lead) - 1 - k) % r] for k, axis in enumerate(lead)]
            for start in range(0, r, width):
                tail = last[start : start + width]
                out = np.empty((len(heads) + 1, len(run), len(tail)))
                for row, head in zip(out, heads):
                    row[...] = head[:, None]
                out[-1] = tail
                yield out.reshape(len(out), -1).T


def sample_region_signs(net: ReluNetwork, grid: SampleGrid) -> set[int]:
    """Keys of the region sign sequences witnessed by grid points.

    Points with any node map within _EXCLUSION_TOL of zero or not finite are
    dropped, so every returned sequence is a genuine open-region sample.  A
    chunk holds at most CHUNK_BYTES of node-map values and only its distinct
    keys are kept, so memory depends on neither the grid's resolution nor the
    number of node maps.
    """
    if len(grid.lower) != net.n0:
        raise ValueError(f"grid dimension {len(grid.lower)} != network input {net.n0}")
    n = net.num_node_maps
    keys: set[int] = set()
    for points in grid.chunks(max(1, CHUNK_BYTES // (8 * n))):
        vals = node_map_value_matrix(net, points)
        # +1 / -1 outside the exclusion band, 0 inside it and for a value that is not finite
        entries = (vals >= _EXCLUSION_TOL).view(np.int8) - (vals <= -_EXCLUSION_TOL).view(np.int8)
        np.copyto(entries, 0, where=np.isinf(vals))
        k = pack(entries)
        keys.update(np.unique(k[np.concatenate(([True], k[1:] != k[:-1]))]).tolist())
    return {key for key in keys if not n_zeros(key, n)}
