"""Layer-by-layer enumeration of the cells of a ReLU network's input complex.

The complex is built one layer at a time, each layer k the same way: its
vertices lie inside the regions of the complex built so far.  A vertex is
the solution of l layer-k equations together with n_0 - l equations of
earlier layers, drawn from the zero sets of the region's vertices, and it
counts only if the signs of all remaining earlier maps at it match the
region's.  Before the first layer the complex is the whole space, one
region with no vertices, so every n_0-subset of the first layer's equations
is a candidate and must meet in a vertex.  Zeros of the solved equations
are structural: they are recorded from the system, never thresholded.

A layer's work is done over arrays.  The maps of all its regions are
composed by one stacked `matmul`, and its candidate systems form one index
array.  A candidate whose face of its region is bounded, but has a new map
of one sign at all the face's vertices, cannot meet that face and is
dropped before any solve.  The rest are solved and checked in blocks of
`batch_points(net)` candidates (the batch rule in `relucx.model`), each with
one batched `solve` and `cond`, bit-equal to one call per candidate, and one
forward pass of the network, whose signs at a point are a region's exactly
in its closure; the earliest failing candidate refuses the network.  Each
layer merges the accepted rows in one array pass that keeps one vertex per key.

Vertices and regions are keyed by packed sign sequences (`relucx.signs`);
text is made only for error messages.  A state's vertices are one table of
the arrays the solves produce (keys, coordinates, zero sets, residuals),
and its region incidence, the regions with the rows of the vertices in each
one's closure, is three arrays sorted from one array of completions on first
read, so the last layer's is built only if something reads it.  Only
`topology.assemble` builds the full cube closure, once per network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .model import ReluNetwork, batch_points, node_map_value_matrix, stacked_region_affine_maps
from .model import region_affine_maps  # noqa: F401  (unused here; perfbench/tracing.py patches it)
from .signs import completions, pack, text, unpack
from .signs import cube_closure  # noqa: F401  (unused here; perfbench/tracing.py patches it)

__all__ = [
    "LayerBuildState",
    "DegenerateNetwork",
    "DuplicateMismatch",
    "ArchitectureUnsupported",
    "first_layer_vertices",
    "extend_layer",
    "build_complex",
]


class DegenerateNetwork(Exception):
    """The network violates genericity/supertransversality at working precision."""


class DuplicateMismatch(Exception):
    """Two vertices share a sign sequence but disagree in coordinates."""


class ArchitectureUnsupported(Exception):
    """Architecture outside the builder's contract (needs n_0 >= 2 and n_1 >= n_0)."""


# Largest residual a solved system may leave, and largest coordinate gap of
# two vertices with one sign sequence, scaled by (1 + |coords|) where compared.
_RESIDUAL_TOL = 1e-6
_MERGE_TOL = 1e-6
# A node map closer to 0 than this where its sign is needed, or a system with
# a larger condition estimate, makes the network degenerate.
_DEGENERACY_TOL = 1e-8
_COND_MAX = 1e12


@dataclass
class LayerBuildState:
    """Complex data after processing layers 1..layer (sign prefixes of length covered)."""

    layer: int
    covered: int
    vertices: list[int]  # the keys; row i of the columns below is vertex vertices[i]
    coords: np.ndarray  # (V, n_0)
    zero_sets: np.ndarray  # (V, n_0): flat indices of the solved node maps, ascending
    residuals: np.ndarray  # (V,)

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_region_incidence` of the vertex table, computed on first read."""
        return _region_incidence(self.vertices, self.zero_sets, self.covered)

    @property
    def regions(self) -> frozenset[int]:
        """The region keys, as a set."""
        return frozenset(self.incidence[0].tolist())


def _region_incidence(keys, zero_sets, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The regions (all-nonzero completions) of n-entry keys, ascending, and their incidences.

    Per (region, key in its closure), sorted by region, then row: the region's index and the row.
    """
    cells = completions(keys, zero_sets, n, (-1, 1))
    regions, owners = np.unique(cells.ravel(), return_inverse=True)
    order = np.argsort(owners, kind="stable")
    return regions, owners[order], order // cells.shape[1]


def _sign_check(vals: np.ndarray, free, context):
    """The `_refuse` check for a free value in a row of `vals` near 0 or not finite."""
    size = np.abs(vals)
    bad = free & ~((size >= _DEGENERACY_TOL) & (size < np.inf))

    def message(i):
        value = vals[i][bad[i]][0]
        if abs(value) < _DEGENERACY_TOL:
            return f"{context(i)}: node map value {value:.3e} within degeneracy tolerance of 0"
        return f"{context(i)}: node map value {value} is not finite"

    return bad.any(axis=1), message


def _refuse(*checks) -> None:
    """Raise DegenerateNetwork for the earliest row that fails any check.

    A check is a boolean mask over the rows and a function of a row index
    giving the message; the row raises with the first check it fails.
    """
    masks = np.array([mask for mask, _ in checks], dtype=bool)
    failing = masks.any(axis=0)
    if failing.any():
        row = int(failing.argmax())
        raise DegenerateNetwork(checks[int(masks[:, row].argmax())][1](row))


def _unique_vertices(keys, xs, zero_sets, residuals, conds, n: int):
    """One vertex per distinct key: its least (residual, condition, coords) candidate.

    Every candidate is compared with the vertex chosen for its key, so the
    outcome does not depend on the candidates' order; one farther from it
    than _MERGE_TOL, scaled by 1 + the larger norm, raises DuplicateMismatch.
    Returns the table's columns in key order: keys, coords, zero sets, residuals.
    """
    distinct, group, counts = np.unique(keys, return_inverse=True, return_counts=True)
    chosen = np.lexsort((*xs.T[::-1], conds, residuals, group))[np.cumsum(counts) - counts]
    held = chosen[group]
    norms = np.linalg.norm(xs, axis=1)
    gaps = np.max(np.abs(xs - xs[held]), axis=1)
    far = np.flatnonzero(gaps > _MERGE_TOL * (1.0 + np.maximum(norms, norms[held])))
    if len(far):
        c = far[0]
        raise DuplicateMismatch(
            f"sign sequence {text(int(keys[c]), n)} held by two vertices {gaps[c]:.3e} apart"
        )
    return distinct.tolist(), xs[chosen], zero_sets[chosen], residuals[chosen]


def first_layer_vertices(net: ReluNetwork) -> LayerBuildState:
    """Vertices and regions of the first-layer hyperplane arrangement.

    The complex before the first layer is the whole space: one region with
    no vertices and no signs.  Its candidates, all n_0-subsets of the
    layer's hyperplanes, are solved and checked like a later layer's, in
    blocks.  Every subset must meet in a single well-conditioned point and
    every other first-layer map must be bounded away from zero there;
    otherwise the arrangement is not generic and the build aborts.
    """
    n0, n1 = net.architecture[:2]
    if n0 < 2:
        raise ArchitectureUnsupported(f"input dimension n_0 = {n0}, needs n_0 >= 2")
    if n1 < n0:
        raise ArchitectureUnsupported(
            f"first hidden layer has {n1} units, needs at least n_0 = {n0}"
        )
    rows = np.array(list(combinations(range(n1), n0)), dtype=np.int32)
    layer = net.layers[0]
    return LayerBuildState(1, n1, *_solve_candidates(
        net, layer.weights[None], layer.bias[None], np.zeros((1, 0), dtype=np.int8),
        np.zeros(len(rows), dtype=np.int32), rows, 0, lambda r, alpha: f"first layer at {alpha}",
    ))


def _layer_candidates(
    state: LayerBuildState, positive: np.ndarray, base: int, n_k: int, n0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Region ids (C,) and rows (C, n_0) into the region maps of the candidates a new map crosses.

    Candidate (region r, new rows J, old rows I) solves for a point of the
    face F of r's closure whose vertices are the members of r with I in
    their zero sets.  F is bounded when each of its edges, an (n_0 - 1)-subset
    containing I, is held by exactly two members; then F is the hull of its
    vertices, and a map of J with one sign over them (`positive`, the layer's
    signs at the state's vertices) does not vanish on F, so the candidate is
    dropped unsolved.  The rest run over the regions in key order, then l
    ascending, then the l-subsets of the layer's rows, then the (n_0 - l)-subsets
    of the region's vertex zero sets in sorted order; each row lists its
    new-layer rows first.
    """
    _, owners, members = state.incidence  # one entry per (region, vertex of its closure)
    edges = list(combinations(range(n0), n0 - 1))  # as positions in a zero set
    ids, rows, keys = [], [], []  # keys: each kept candidate's face, new subset and l
    for ell in range(1, min(n0, n_k) + 1):
        new = np.array(list(combinations(range(n_k), ell)), dtype=np.int32)
        picks = list(combinations(range(n0), n0 - ell))
        # one entry per (region, member, old subset), sorted by region, then subset
        owner = np.repeat(owners, len(picks))
        subsets = state.zero_sets[members][:, picks].reshape(len(owner), n0 - ell)
        sort = np.lexsort((*subsets.T[::-1], owner))
        subsets, owner = subsets[sort], owner[sort]
        step = (owner[1:] != owner[:-1]) | (subsets[1:] != subsets[:-1]).any(axis=1)
        starts = np.flatnonzero(np.r_[True, step])  # one face per (region, old subset)
        held = np.diff(starts, append=len(sort))  # its vertices
        if ell == 1:  # an edge is a ray unless two vertices hold it
            rays = np.empty(len(sort), dtype=bool)
            rays[sort] = np.repeat(held != 2, held)
            rays = rays.reshape(-1, n0)
        # a face is unbounded when an edge of it through one of its vertices is a ray
        inside = np.array([[set(pick) <= set(edge) for edge in edges] for pick in picks])
        opened = (rays[:, None, :] & inside).any(axis=2).ravel()[sort]
        unbounded = np.logical_or.reduceat(opened, starts)
        signs = positive[np.repeat(members, len(picks))[sort]]
        ups = np.add.reduceat(signs, starts, dtype=np.int64)  # positive vertices per face
        crossed = (ups > 0) & (ups < held[:, None])
        face, maps = np.nonzero(unbounded[:, None] | crossed[:, new].all(axis=2))
        ids.append(owner[starts][face])
        rows.append(np.hstack([base + new[maps], subsets[starts][face]]))
        keys.append((face, maps, np.full(len(face), ell)))
    ids, rows = np.concatenate(ids), np.concatenate(rows)
    face, maps, ells = map(np.concatenate, zip(*keys))
    order = np.lexsort((face, maps, ells, ids))
    return ids[order], rows[order]


def _block_vertices(net, normals, offsets, region_signs, ids, rows, base, context):
    """Solve one block of candidates, check them by a forward pass of `net`, keep the accepted.

    `normals` (R, m, n_0), `offsets` (R, m) and `region_signs` (R, base) hold
    the region maps and signs; candidate c solves rows `rows[c]` of region
    `ids[c]`.  A candidate that solves to no point of its region is dropped,
    but base 0 means the one region is the whole space, where every
    candidate must meet in one well-conditioned point.  The accepted ones
    come back as arrays of keys, coordinates, zero sets, residuals and
    condition estimates, in candidate order.  The earliest failing candidate
    raises DegenerateNetwork, prefixed `context(region, rows)`.
    """
    mats = normals[ids[:, None], rows]
    rhss = offsets[ids[:, None], rows]
    xs = np.full(rhss.shape, np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        # a zero slogdet sign is the zero LU pivot that solve rejects: those stay NaN
        ok = np.linalg.slogdet(mats)[0] != 0
        xs[ok] = np.linalg.solve(mats[ok], -rhss[ok, :, None])[..., 0]
    vals = node_map_value_matrix(net, xs)[:, : normals.shape[1]]
    signs = region_signs[ids]
    unsolved = np.ones(vals.shape, dtype=bool)
    unsolved[np.arange(len(rows))[:, None], rows] = False
    remaining = unsolved[:, :base]

    # Structurally parallel systems (new-layer maps that are exact multiples
    # of old ones in a rank-deficient region) solve to a pseudo-solution at
    # ~1/eps scale; backward stability keeps |mat @ x + rhs| tiny for every
    # genuine intersection, so a large residual means "no intersection".
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.max(np.abs((mats @ xs[..., None])[..., 0] + rhss), axis=1)
        vals_old = vals[:, :base]
        solved = np.isfinite(xs).all(axis=1) & ~(residual > _RESIDUAL_TOL)
        # a remaining map near 0 or not finite refuses only a candidate whose strictly
        # signed remaining maps all match its region: one outside the region is no vertex
        size = np.abs(vals_old)
        unsure = remaining & ~((size >= _DEGENERACY_TOL) & (size < np.inf))
        closed = solved & np.all(unsure | ~remaining | (np.sign(vals_old) == signs), axis=1)
        near = closed & (remaining & (size < _DEGENERACY_TOL)).any(axis=1)
        lost = closed & unsure.any(axis=1)
        # the whole space (base 0) checks every candidate, the later layers the closed ones
        walk = np.flatnonzero(closed) if base else np.arange(len(rows))
    conds = np.linalg.cond(mats[walk])

    def subset(i):
        return tuple(rows[walk[i]].tolist())

    def where(i):
        return context(ids[walk[i]], subset(i))

    def system(i):
        return f"{where(i)}: accepted system" if base else f"first layer: subsystem {subset(i)}"

    # a later layer walks only solved candidates, so only the first can fail on residual
    _refuse(
        (near[walk], lambda i: f"{where(i)}: remaining node map within degeneracy "
         "tolerance of 0 at a candidate vertex"),
        (lost[walk], lambda i: f"{where(i)}: remaining node map not finite at a candidate vertex"),
        (~(conds <= _COND_MAX), lambda i: f"{system(i)} has condition estimate {conds[i]:.3e}"),
        (residual[walk] > _RESIDUAL_TOL, lambda i: f"{system(i)} solved with residual "
         f"{residual[walk[i]]:.3e}"),
        _sign_check(vals[walk, base:], unsolved[walk, base:], where),
    )
    # a walked row that is not refused has every remaining old map strictly of its region's sign
    keys = pack(np.where(unsolved[walk], np.where(vals[walk] > 0, 1, -1), 0))
    # every old row is below every new row, so sorting lists the old ones first
    return keys, xs[walk], np.sort(rows[walk], axis=1), residual[walk], conds


def _solve_candidates(net, normals, offsets, region_signs, ids, rows, base, context):
    """One vertex per key of all candidates, solved and checked a block at a time.

    Takes the arguments of `_block_vertices`; returns `_unique_vertices`' columns.
    """
    block = batch_points(net)
    cuts = range(block, len(ids), block)
    blocks = [
        _block_vertices(net, normals, offsets, region_signs, block_ids, block_rows, base, context)
        for block_ids, block_rows in zip(np.split(ids, cuts), np.split(rows, cuts))
    ]
    return _unique_vertices(*(np.concatenate(part) for part in zip(*blocks)), normals.shape[1])


def extend_layer(net: ReluNetwork, k: int, state: LayerBuildState) -> LayerBuildState:
    """Extend the complex over the node maps of layer k (k = depth+1 is the output map).

    Existing vertices keep their rows and gain strict signs for the new maps.
    New vertices are solved for all regions at once, in blocks, and appended
    in key order; any order of the candidates gives the same state.
    """
    if k != state.layer + 1:
        raise ValueError(f"state covers layers 1..{state.layer}, cannot extend to layer {k}")
    base = net.layer_offset(k)
    if base != state.covered:
        raise ValueError("state prefix length does not match the network architecture")
    n_k = net.architecture[k]
    n = base + n_k

    # (a) carry existing vertices over, extending their keys by evaluation
    olds = state.vertices
    vals = node_map_value_matrix(net, state.coords)[:, base:n]
    _refuse(
        _sign_check(vals, True, lambda i: f"layer {k} at existing vertex {text(olds[i], base)}")
    )
    tails = pack(np.where(vals > 0, 1, -1)).tolist()
    keys = [key << 2 * n_k | tail for key, tail in zip(olds, tails)]

    # (b) solve for new vertices inside every region of the current complex
    regions = state.incidence[0]
    ids, rows = _layer_candidates(state, vals > 0, base, n_k, net.n0)
    region_signs = unpack(regions, base)
    normals, offsets = stacked_region_affine_maps(net, region_signs > 0, k)

    def where(r, subset=None):
        return f"layer {k}, region {text(int(regions[r]), base)}"

    finite = np.isfinite(normals).all(axis=(1, 2)) & np.isfinite(offsets).all(axis=1)
    _refuse((~finite, lambda r: f"{where(r)}: region map has a non-finite entry"))
    new_keys, *new_columns = _solve_candidates(
        net, normals, offsets, region_signs, ids, rows, base, where
    )
    # carried keys have no layer-k zero and new ones have at least one, so none collide
    columns = zip((state.coords, state.zero_sets, state.residuals), new_columns)
    return LayerBuildState(k, n, keys + new_keys, *map(np.concatenate, columns))


def build_complex(net: ReluNetwork) -> LayerBuildState:
    """Run the full pipeline: first layer, hidden layers, then the output map."""
    state = first_layer_vertices(net)
    for k in range(2, net.depth + 2):
        state = extend_layer(net, k, state)
    return state
