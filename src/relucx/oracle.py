"""An independent check of the builder: grid sampling of the regions.

The sampled route never touches the solver: it evaluates the network's node
maps at grid points and records which all-nonzero sign patterns occur.
Every pattern seen this way must be a region reported by the builder, and
for a fine enough grid the two sets coincide.

A point's node-map values are one row of `node_map_value_matrix`; each
becomes a signed entry, 0 within the exclusion band or if not finite, and
the entries are packed into a key by exact float64 matvecs (`signs.pack`).
A point is kept when none of its entries is 0.

Not every grid point is evaluated.  A run, the `resolution` points along the
last axis at fixed leading coordinates, is bisected: both of its end points
are evaluated, and a segment between two evaluated points is split at its
middle grid point, each half keeping the key at its outer end, until both
ends are kept points with one key or no grid point lies strictly between
them.  The points where every node map has a fixed sign and lies at least
the exclusion band away from 0 form a convex set: the first layer's maps are
affine, so on a segment whose ends agree they keep their signs and margins,
each next layer's maps are then affine on that segment too, and so on.
Every grid point between two kept ends of one key therefore has that key and
is kept, so the keys found are those of all grid points, and time grows
with the region boundaries each run crosses times log2(resolution), not
with resolution**n0.

One call evaluates at most CHUNK_BYTES of node-map values, a batch of
max(1, CHUNK_BYTES // (8 N)) points for N node maps: the middle points of
the deepest pending segments, and, once none is left pending, the end points
of new runs.  Working depth-first keeps at most about 2 * batch *
log2(resolution) segments pending, so memory depends on neither the
resolution nor the number of node maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .model import ReluNetwork, node_map_value_matrix
from .signs import pack

__all__ = [
    "SampleGrid",
    "sample_region_signs",
]

# Bytes of node-map values evaluated by one call in sample_region_signs.
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


def sample_region_signs(net: ReluNetwork, grid: SampleGrid) -> set[int]:
    """Keys of the region sign sequences witnessed by grid points.

    Points with any node map within _EXCLUSION_TOL of zero or not finite are
    dropped, so every returned sequence is a genuine open-region sample.  Each
    run of the last axis is bisected between points of one key (see the module
    docstring), with at most CHUNK_BYTES of node-map values per call, so memory
    depends on neither the grid's resolution nor the number of node maps.
    """
    if len(grid.lower) != net.n0:
        raise ValueError(f"grid dimension {len(grid.lower)} != network input {net.n0}")
    r, n0 = grid.resolution, net.n0
    budget = max(1, CHUNK_BYTES // (8 * net.num_node_maps))
    axes = [np.linspace(lo, hi, r) for lo, hi in zip(grid.lower, grid.upper)]
    found: set[int] = set()

    def codes_at(flat: np.ndarray) -> np.ndarray:
        """Key of each grid point of row-major index `flat` if kept, else -1 - flat."""
        out = []
        for start in range(0, len(flat), budget):
            part = flat[start : start + budget]
            points = np.empty((n0, len(part)))  # coordinate-major
            for k, axis in enumerate(axes):  # index on axis k: digit k in base r
                points[k] = axis[part // r ** (n0 - 1 - k) % r]
            vals = node_map_value_matrix(net, points.T)
            # +1 / -1 outside the exclusion band, 0 inside it and for NaN
            entries = (vals >= _EXCLUSION_TOL).view(np.int8)
            entries -= (vals <= -_EXCLUSION_TOL).view(np.int8)
            kept = entries.all(axis=1) & ~np.isinf(vals).any(axis=1)
            keys = np.where(kept, pack(entries), -1 - part)
            distinct = np.sort(keys[kept])
            found.update(distinct[:1].tolist())
            found.update(distinct[1:][distinct[1:] != distinct[:-1]].tolist())
            out.append(keys)
        return np.concatenate(out)

    # Open segments: blocks of (lo, hi) rows of row-major indices and (code at
    # lo, code at hi) rows.  Depth never decreases along the list nor within a
    # block, so a call takes the deepest ones.
    stack: list[tuple[np.ndarray, np.ndarray]] = []
    runs, started = r ** (n0 - 1), 0
    while stack or started < runs:
        pos, code = stack.pop() if stack else (np.empty((2, 0), np.int64),) * 2
        while stack and pos.shape[1] < budget:
            below = stack.pop()
            pos, code = np.hstack([below[0], pos]), np.hstack([below[1], code])
        if pos.shape[1] > budget:  # the shallowest ones wait
            stack.append((pos[:, :-budget], code[:, :-budget]))
            pos, code = pos[:, -budget:], code[:, -budget:]
        # runs start only once the stack is empty, as many as fill the call
        count = (budget - pos.shape[1]) // 2 if pos.size else max(1, budget // 2)
        first = np.arange(started, min(runs, started + count)) * r
        started += len(first)
        mid = (pos[0] + pos[1]) // 2
        codes = codes_at(np.concatenate([mid, first, first + r - 1]))
        # each half keeps its outer end and takes the middle as its inner end
        pos, code = np.repeat(pos, 2, axis=1), np.repeat(code, 2, axis=1)
        pos[1, ::2] = pos[0, 1::2] = mid
        code[1, ::2] = code[0, 1::2] = codes[: len(mid)]
        if len(first):  # new runs go below the halves
            pos = np.concatenate([[first, first + r - 1], pos], axis=1)
            code = np.concatenate([codes[len(mid) :].reshape(2, -1), code], axis=1)
        # open while a grid point lies strictly inside and the ends differ: an
        # excluded point's code is its own
        open_ = np.flatnonzero((pos[1] - pos[0] > 1) & (code[0] != code[1]))
        if len(open_):
            stack.append((pos.take(open_, axis=1), code.take(open_, axis=1)))
    return found
