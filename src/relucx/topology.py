"""Cell complex assembly, mod-2 boundary maps, and decision-boundary topology.

Cells are the packed sign-sequence keys (see `relucx.signs`) of the cube
closure of the vertex keys, graded by dimension (n_0 minus the zero count)
and ascending within a grade.  Boundary matrices over GF(2) are read off the
keys: a facet of a cell is its key with one nonzero field set to 0, provided
that key is itself a cell.  The closure holds every completion of every
vertex, so resolving any zero of a cell to +1 or -1 lands on a cell by
construction; what can fail is a missed vertex, which the Euler
characteristic check in `assemble` catches.

The decision boundary is the subcomplex of cells whose output entry is 0.
Its one-point compactification adds a single vertex at infinity; every edge
contributes one GF(2) unit to the infinity row per missing endpoint (an edge
missing both endpoints contributes none, mod 2), and higher cells get no
infinity term since a k-cell with k >= 2 has trivial mod-2 incidence with a
0-cell.  Betti numbers come from bit-packed Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import ReluNetwork, node_map_values, region_affine_maps
from .signs import cube_closure, facet_keys, n_zeros, text, unpack

__all__ = [
    "CubicalComplex",
    "ChainComplexGF2",
    "BettiReport",
    "ClosureViolation",
    "BoundaryInconsistent",
    "assemble",
    "boundary_matrices",
    "decision_boundary",
    "compactify",
    "betti_gf2",
    "gf2_rank",
    "render_db_svg",
]


class ClosureViolation(Exception):
    """The assembled cells do not have the Euler characteristic of R^n0."""


class BoundaryInconsistent(Exception):
    """Consecutive boundary matrices do not compose to zero over GF(2)."""


@dataclass(frozen=True)
class CubicalComplex:
    """Cell keys of n entries, graded by cell dimension 0..n0."""

    n0: int
    n: int
    grading: tuple[tuple[int, ...], ...]

    @cached_property
    def cells(self) -> frozenset[int]:
        return frozenset().union(*self.grading)

    def dim_counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.grading)


@dataclass(frozen=True)
class ChainComplexGF2:
    """dims[k] cells in grade k; boundaries[k-1] holds the columns of d_k.

    A column is an int bitmask over the (k-1)-grade cell indices.  After
    `compactify`, grade 0 includes one extra cell (the point at infinity)
    at the last index.
    """

    dims: tuple[int, ...]
    boundaries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BettiReport:
    betti: tuple[int, ...]
    bounded: int
    unbounded: int


def assemble(vertex_keys: Iterable[int], n: int) -> CubicalComplex:
    """Full complex generated by the vertex keys of n entries: cube closure, graded.

    Raises `ClosureViolation` when the cells do not have the Euler
    characteristic of R^n0.
    """
    verts = list(vertex_keys)
    if not verts:
        raise ValueError("cannot assemble a complex from zero vertices")
    n0 = n_zeros(verts[0], n)
    for v in verts:
        if n_zeros(v, n) != n0:
            raise ValueError(
                f"vertex {text(v, n)} has {n_zeros(v, n)} zeros, expected {n0} on every vertex"
            )
    closure = cube_closure(verts, n)
    grading = tuple(tuple(sorted(closure.get(n0 - d, ()))) for d in range(n0 + 1))
    cx = CubicalComplex(n0, n, grading)
    # The open cells partition R^n0, whose compactly supported Euler
    # characteristic is (-1)^n0; a missed vertex can break this although the
    # cube closure is closed under resolving zeros whatever the vertices.
    euler = sum((-1) ** dim * count for dim, count in enumerate(cx.dim_counts()))
    if euler != (-1) ** n0:
        raise ClosureViolation(
            f"cells have Euler characteristic {euler}, expected {(-1) ** n0} for R^{n0}"
        )
    return cx


def _facet_column(key: int, n: int, rows: Mapping[int, int]) -> int:
    """Bitmask of the present facets (one nonzero entry zeroed)."""
    col = 0
    for facet in facet_keys(key, n):
        row = rows.get(facet)
        if row is not None:
            col ^= 1 << row
    return col


def boundary_matrices(cx: CubicalComplex) -> ChainComplexGF2:
    """Mod-2 boundary maps of the complex as given (no compactification)."""
    boundaries = []
    for k in range(1, len(cx.grading)):
        rows = {key: i for i, key in enumerate(cx.grading[k - 1])}
        boundaries.append(tuple(_facet_column(key, cx.n, rows) for key in cx.grading[k]))
    return ChainComplexGF2(cx.dim_counts(), tuple(boundaries))


def decision_boundary(cx: CubicalComplex) -> CubicalComplex:
    """Subcomplex of cells whose output-map entry (the last one) is zero."""
    # the last entry is the lowest two-bit field, and 0 is coded 0b01
    grading = tuple(tuple(key for key in grade if key & 3 == 1) for grade in cx.grading)
    return CubicalComplex(cx.n0, cx.n, grading)


def compactify(db: CubicalComplex) -> ChainComplexGF2:
    """Chain complex of the one-point compactification of the decision boundary.

    Grades run 0..n0-1 (the boundary has no n0-cells).  The extra 0-cell at
    infinity occupies the last grade-0 index.
    """
    n0 = db.n0
    if any(db.grading[n0]):
        raise ValueError("decision boundary cannot contain top-dimensional cells")
    chain = boundary_matrices(db)
    inf_row = chain.dims[0]
    edges = []
    for key, col in zip(db.grading[1], chain.boundaries[0]):
        count = col.bit_count()  # an edge with one endpoint ends at infinity
        assert count <= 2, f"edge {text(key, db.n)} has {count} vertex facets"
        edges.append(col | (count == 1) << inf_row)
    dims = (inf_row + 1, *chain.dims[1:n0])
    return ChainComplexGF2(dims, (tuple(edges), *chain.boundaries[1 : n0 - 1]))


def gf2_rank(columns: Sequence[int]) -> int:
    """Rank of a set of GF(2) vectors given as int bitmasks."""
    pivots: dict[int, int] = {}  # top bit -> the one stored vector with that top bit
    for vec in columns:
        while vec:
            top = vec.bit_length()
            if top not in pivots:
                pivots[top] = vec
                break
            vec ^= pivots[top]
    return len(pivots)


def _check_dd_zero(chain: ChainComplexGF2) -> None:
    for k in range(1, len(chain.boundaries)):
        lower = chain.boundaries[k - 1]
        for col in chain.boundaries[k]:
            acc = 0
            bits = col
            while bits:
                low = bits & -bits
                acc ^= lower[low.bit_length() - 1]
                bits ^= low
            if acc:
                raise BoundaryInconsistent(
                    f"d_{k} . d_{k + 1} has a nonzero column over GF(2)"
                )


def betti_gf2(chain: ChainComplexGF2) -> BettiReport:
    """Mod-2 Betti numbers plus bounded/unbounded component counts.

    bounded = b_0 - 1 and unbounded = b_top - b_0 + 1: all unbounded pieces
    of the boundary merge through the point at infinity, which also accounts
    for the extra component when the boundary is empty.
    """
    _check_dd_zero(chain)
    ranks = [0, *(gf2_rank(cols) for cols in chain.boundaries), 0]  # rank of d_k at k
    betti = [dim - ranks[k] - ranks[k + 1] for k, dim in enumerate(chain.dims)]
    b0 = betti[0]
    return BettiReport(tuple(betti), bounded=b0 - 1, unbounded=betti[-1] - b0 + 1)


# ---------------------------------------------------------------------------
# SVG rendering of two-dimensional decision boundaries


def _clip_segment(p: np.ndarray, q: np.ndarray, lo: float, hi: float):
    """Liang-Barsky clip of segment p->q to the square [lo, hi]^2."""
    d = q - p
    t0, t1 = 0.0, 1.0
    for axis in range(2):
        for side, bound in ((-1.0, lo), (1.0, hi)):
            denom = side * d[axis]
            dist = side * (bound - p[axis])
            if denom == 0.0:
                if dist < 0.0:
                    return None
                continue
            t = dist / denom
            if denom < 0.0:
                t0 = max(t0, t)
            else:
                t1 = min(t1, t)
            if t0 > t1:
                return None
    return p + t0 * d, p + t1 * d


_SVG_SIZE = 600  # width and height of the drawing, in pixels


def render_db_svg(
    net: ReluNetwork,
    vertex_coords: Mapping[int, np.ndarray],
    db: CubicalComplex,
    box: tuple[float, float],
    path: str,
) -> None:
    """Draw the decision boundary of a 2-input network, clipped to [lo, hi]^2."""
    if net.n0 != 2:
        raise ValueError("SVG rendering is only defined for n_0 = 2")
    lo, hi = float(box[0]), float(box[1])
    if not hi > lo:
        raise ValueError("box must satisfy lo < hi")
    span = hi - lo
    scale = _SVG_SIZE / span

    def to_svg(pt: np.ndarray) -> tuple[float, float]:
        return ((pt[0] - lo) * scale, (hi - pt[1]) * scale)

    segments = []
    for key in db.grading[1]:
        entries = unpack([key], db.n)[0]
        normals, offsets = region_affine_maps(net, entries[:-1], net.depth + 1)
        normal, offset = normals[-1], offsets[-1]
        norm = float(np.linalg.norm(normal))
        if norm == 0.0:
            continue
        direction = np.array([-normal[1], normal[0]]) / norm
        facets = facet_keys(key, db.n)
        ends = [np.asarray(vertex_coords[f], dtype=float) for f in facets if f in vertex_coords]
        reach = 4.0 * span + 4.0 * max((float(np.max(np.abs(e))) for e in ends), default=0.0)
        if len(ends) == 2:
            a, b = ends
        elif len(ends) == 1:
            v = ends[0]
            eps = 1e-4 * span
            probe = node_map_values(net, v + eps * direction)
            hidden_ok = np.array_equal(probe[:-1] > 0, entries[:-1] > 0)
            d = direction if hidden_ok else -direction
            a, b = v, v + reach * d
        else:
            center = np.array([(lo + hi) / 2.0, (lo + hi) / 2.0])
            foot = center - normal * float(normal @ center + offset) / (norm * norm)
            a, b = foot - reach * direction, foot + reach * direction
        clipped = _clip_segment(a, b, lo, hi)
        if clipped is not None:
            segments.append((text(key, db.n), clipped))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect x="0" y="0" width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for title, (a, b) in segments:
        (x1, y1), (x2, y2) = to_svg(a), to_svg(b)
        lines.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="black" stroke-width="1.5"><title>{title}</title></line>'
        )
    for key in db.grading[0]:
        pt = vertex_coords.get(key)
        if pt is None:
            continue
        x, y = to_svg(np.asarray(pt, dtype=float))
        if 0.0 <= x <= _SVG_SIZE and 0.0 <= y <= _SVG_SIZE:
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="black"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
