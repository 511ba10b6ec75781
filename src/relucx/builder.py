"""Layer-by-layer enumeration of the cells of a ReLU network's input complex.

The complex is built one layer at a time.  The first layer is a plain
hyperplane arrangement, so its vertices are the solutions of all n_0-subsets
of the layer's equations.  Each later layer k contributes vertices inside
every region of the complex built so far: a vertex is the solution of l
new-layer equations together with n_0 - l equations of earlier layers, the
old equations being drawn from the zero sets of vertices incident to the
region, and a solution counts only if the signs of all remaining earlier
maps at it match the region's signs.  Zeros of the solved equations are
structural: they are recorded from the system, never thresholded from
evaluations.

A layer's work is done over arrays.  The maps of all its regions are
composed by one stacked `matmul`, and the candidate systems of all its
regions form one index array, in candidate order.  They are solved and
checked in fixed blocks of BLOCK_CANDIDATES: the exact residual, sign and
condition checks run as stacked `matmul` and batched `cond`, which give the
same bits as one call per candidate; a block's sign rows are packed into
keys at once, and Python only walks the accepted vertices into the merge.
The first layer's subsets go through the same blocks: one batched `cond`,
one `solve` and one `matmul` per block, then a walk in subset order that
raises at the first failing subset.

Vertices and regions are keyed by packed sign sequences (`relucx.signs`);
text is made only for error messages.  Regions are never solved for
directly; a state's region incidence maps each all-nonzero completion of a
vertex key (a region) to the vertices in its closure.  It is computed on
first read, in one pass over the keys, so the last layer's is built only if
something reads it.  Only `topology.assemble` builds the full cube closure,
once per network.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .model import ReluNetwork, node_map_value_matrix, stacked_region_affine_maps
from .model import region_affine_maps  # noqa: F401  (unused here; perfbench/tracing.py patches it)
from .signs import completion_keys, pack, text, unpack
from .signs import cube_closure  # noqa: F401  (unused here; perfbench/tracing.py patches it)

__all__ = [
    "Vertex",
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

# Candidate systems that first_layer_vertices and extend_layer solve and
# check at once; a fixed block bounds the arrays of one step however many
# candidates a layer has.
BLOCK_CANDIDATES = 128


@dataclass(frozen=True, eq=False)
class Vertex:
    coords: np.ndarray
    key: int  # packed sign sequence
    zero_set: tuple[int, ...]  # flat node indices of the solved equations
    max_residual: float
    solve_condition: float


@dataclass
class LayerBuildState:
    """Complex data after processing layers 1..layer (sign prefixes of length covered)."""

    layer: int
    covered: int
    vertices: dict[int, Vertex]

    @cached_property
    def incidence(self) -> dict[int, list[Vertex]]:
        """Region -> incident vertices, computed from `vertices` on first read."""
        return _region_incidence(self.vertices, self.covered)

    @property
    def regions(self):
        """The regions, as a read-only set-like view."""
        return self.incidence.keys()


def _region_incidence(vertices: dict[int, Vertex], n: int) -> dict[int, list[Vertex]]:
    """Map each all-nonzero completion (region) of the n-entry vertex keys to its vertices."""
    incidence: defaultdict[int, list[Vertex]] = defaultdict(list)
    patterns: dict[int, list[int]] = {}
    for key, vert in vertices.items():
        for region in completion_keys(key, n, (-1, 1), patterns):
            incidence[region].append(vert)
    return dict(incidence)


def _strict_sign(value: float, context: str) -> int:
    if abs(value) < _DEGENERACY_TOL:
        raise DegenerateNetwork(
            f"{context}: node map value {value:.3e} within degeneracy tolerance of 0"
        )
    return 1 if value > 0 else -1


def _strict_signs(vals: np.ndarray, context) -> np.ndarray:
    """`_strict_sign` over an array; only its first entry near 0 calls `context(index)`."""
    near = np.abs(vals) < _DEGENERACY_TOL
    if near.any():
        first = np.unravel_index(near.argmax(), near.shape)
        _strict_sign(vals[first], context(first))
    return np.where(vals > 0, 1, -1)


def _vertex_rank(v: Vertex) -> tuple:
    # total order making duplicate resolution independent of discovery order
    return (v.max_residual, v.solve_condition, tuple(v.coords))


def _merge_vertex(table: dict[int, Vertex], cand: Vertex, n: int) -> None:
    held = table.get(cand.key)
    if held is None:
        table[cand.key] = cand
        return
    scale = 1.0 + max(
        float(np.linalg.norm(held.coords)), float(np.linalg.norm(cand.coords))
    )
    gap = float(np.max(np.abs(held.coords - cand.coords)))
    if gap > _MERGE_TOL * scale:
        raise DuplicateMismatch(
            f"sign sequence {text(cand.key, n)} held by two vertices {gap:.3e} apart"
        )
    if _vertex_rank(cand) < _vertex_rank(held):
        table[cand.key] = cand


def first_layer_vertices(net: ReluNetwork) -> LayerBuildState:
    """Vertices and regions of the first-layer hyperplane arrangement.

    Every n_0-subset of the layer's hyperplanes must meet in a single
    well-conditioned point and every other first-layer map must be bounded
    away from zero there; otherwise the arrangement is not generic and the
    build aborts.
    """
    n0 = net.n0
    n1 = net.architecture[1]
    if n0 < 2:
        raise ArchitectureUnsupported(f"input dimension n_0 = {n0}, needs n_0 >= 2")
    if n1 < n0:
        raise ArchitectureUnsupported(
            f"first hidden layer has {n1} units, needs at least n_0 = {n0}"
        )
    layer = net.layers[0]
    alphas = list(combinations(range(n1), n0))
    vertices: dict[int, Vertex] = {}
    for start in range(0, len(alphas), BLOCK_CANDIDATES):
        for vert in _first_layer_block(layer, alphas[start : start + BLOCK_CANDIDATES]):
            vertices[vert.key] = vert
    return LayerBuildState(1, n1, vertices)


def _first_layer_block(layer, alphas):
    """Solve and check one block of first-layer subsets; yield their vertices.

    Batched `cond`, `solve` and stacked `matmul` give the same bits as one
    call per subset.  Subsets are walked in order, and the first failing one
    raises DegenerateNetwork with the check it fails first: condition, then
    residual, then a free map near zero.
    """
    weights, bias = layer.weights, layer.bias
    subsets = np.array(alphas)
    conds = np.linalg.cond(weights[subsets])
    well = np.isfinite(conds) & ~(conds > _COND_MAX)
    xs = np.full(subsets.shape, np.nan)
    if well.any():
        xs[well] = np.linalg.solve(weights[subsets[well]], -bias[subsets[well], None])[..., 0]
    vals = (weights @ xs[..., None])[..., 0] + bias
    residuals = np.max(np.abs(np.take_along_axis(vals, subsets, axis=1)), axis=1)
    free = np.ones(vals.shape, dtype=bool)
    np.put_along_axis(free, subsets, False, axis=1)
    near = np.any(free & (np.abs(vals) < _DEGENERACY_TOL), axis=1)
    keys = pack(np.where(free, np.where(vals > 0, 1, -1), 0)).tolist()
    for i, alpha in enumerate(alphas):
        cond = float(conds[i])
        if not well[i]:
            raise DegenerateNetwork(
                f"first layer: subsystem {alpha} has condition estimate {cond:.3e}"
            )
        residual = float(residuals[i])
        if residual > _RESIDUAL_TOL:
            raise DegenerateNetwork(
                f"first layer: subsystem {alpha} solved with residual {residual:.3e}"
            )
        if near[i]:
            _strict_signs(vals[i][free[i]], lambda _: f"first layer at {alpha}")
        yield Vertex(xs[i].copy(), keys[i], alpha, residual, cond)


def _layer_candidates(
    state: LayerBuildState, regions: list[int], base: int, n_k: int, n0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Region ids (C,) and rows (C, n_0) into the region maps of every candidate.

    Candidates run over `regions`, then l ascending, then the l-subsets of
    the layer's rows, then the (n_0 - l)-subsets of the region's vertex zero
    sets in sorted order; each row lists its new-layer rows first.
    """
    news, counts, olds = [], [], []
    for ell in range(1, min(n0, n_k) + 1):
        news.append(base + np.array(list(combinations(range(n_k), ell)), dtype=np.int32))
        count, flat = [], []
        for region in regions:
            members = state.incidence[region]
            subsets = sorted({s for v in members for s in combinations(v.zero_set, n0 - ell)})
            count.append(len(subsets))
            for subset in subsets:  # flattened, so no subset tuple outlives its region
                flat.extend(subset)
        counts.append(count)
        olds.append(np.array(flat, dtype=np.int32).reshape(sum(count), n0 - ell))
    counts = np.array(counts).T  # (R, L): old subsets per region and l
    first_old = np.cumsum(counts, axis=0) - counts
    sizes = counts * [len(new) for new in news]
    starts = np.cumsum(sizes).reshape(sizes.shape) - sizes  # region-major, then l
    rows = np.empty((sizes.sum(), n0), dtype=np.int32)
    for i, new in enumerate(news):
        ell, size, count = new.shape[1], sizes[:, i], np.repeat(counts[:, i], sizes[:, i])
        # candidate p of region r pairs new subset p // count with old subset p % count
        p = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        dest = p + np.repeat(starts[:, i], size)
        rows[dest, :ell] = new[p // count]
        rows[dest, ell:] = olds[i][np.repeat(first_old[:, i], size) + p % count]
    return np.repeat(np.arange(len(regions), dtype=np.int32), sizes.sum(axis=1)), rows


def _block_vertices(normals, offsets, region_signs, ids, rows, base, context):
    """Solve and exactly check one block of candidates; yield its vertices.

    `normals` (R, m, n_0), `offsets` (R, m) and `region_signs` (R, base) hold
    the layer's region maps and signs; candidate c solves rows `rows[c]` of
    region `ids[c]`.  Vertices come in candidate order; the first candidate
    that fails a check raises DegenerateNetwork, prefixed `context(region)`.
    """
    mats = normals[ids[:, None], rows]
    rhss = offsets[ids[:, None], rows]
    try:
        xs = np.linalg.solve(mats, -rhss[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Some member is exactly singular (parallel within the region, e.g. a
        # new-layer map that is constant there); solve the others.  A zero
        # slogdet sign is the LU factorisation's zero pivot that solve rejects.
        xs = np.full(rhss.shape, np.nan)
        ok = np.linalg.slogdet(mats)[0] != 0
        if ok.any():
            xs[ok] = np.linalg.solve(mats[ok], -rhss[ok, :, None])[..., 0]
    signs = region_signs[ids]
    unsolved = np.ones((len(rows), normals.shape[1]), dtype=bool)
    unsolved[np.arange(len(rows))[:, None], rows] = False
    remaining = unsolved[:, :base]

    # Stacked matmul and cond give the same bits as one call per candidate.
    # Structurally parallel systems (new-layer maps that are exact multiples
    # of old ones in a rank-deficient region) solve to a pseudo-solution at
    # ~1/eps scale; backward stability keeps |mat @ x + rhs| tiny for every
    # genuine intersection, so a large residual means "no intersection".
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.max(np.abs((mats @ xs[..., None])[..., 0] + rhss), axis=1)
        vals_old = (normals[ids, :base] @ xs[..., None])[..., 0] + offsets[ids, :base]
    solved = np.isfinite(xs).all(axis=1) & ~(residual > _RESIDUAL_TOL)
    near = solved & np.any(remaining & (np.abs(vals_old) < _DEGENERACY_TOL), axis=1)
    inside = solved & np.all(~remaining | (np.sign(vals_old) == signs), axis=1)
    walk = np.flatnonzero(near | inside)
    conds = np.linalg.cond(mats[walk])
    wids = ids[walk]
    vals_new = (normals[wids, base:] @ xs[walk, :, None])[..., 0] + offsets[wids, base:]
    free = unsolved[walk, base:]
    tail_near = np.any(free & (np.abs(vals_new) < _DEGENERACY_TOL), axis=1)
    tails = np.where(free, np.where(vals_new > 0, 1, -1), 0)
    keys = pack(np.hstack([np.where(remaining[walk], signs[walk], 0), tails])).tolist()
    for i, c in enumerate(walk.tolist()):
        if near[c]:
            raise DegenerateNetwork(
                f"{context(ids[c])}: remaining node map within "
                f"degeneracy tolerance of 0 at a candidate vertex"
            )
        # accepted: xs[c] is a vertex in the closure of its region
        cond = float(conds[i])
        if not np.isfinite(cond) or cond > _COND_MAX:
            raise DegenerateNetwork(
                f"{context(ids[c])}: accepted system has condition estimate {cond:.3e}"
            )
        if tail_near[i]:
            _strict_signs(vals_new[i][free[i]], lambda _: context(ids[c]))
        # every old row is below every new row, and both parts come sorted
        zero_set = tuple(sorted(rows[c].tolist()))
        yield Vertex(xs[c].copy(), keys[i], zero_set, float(residual[c]), cond)


def extend_layer(net: ReluNetwork, k: int, state: LayerBuildState) -> LayerBuildState:
    """Extend the complex over the node maps of layer k (k = depth+1 is the output map).

    Existing vertices keep their coordinates and gain strict signs for the new
    maps.  New vertices are solved for all regions at once, BLOCK_CANDIDATES
    candidate systems at a time; the merge of results is order-independent,
    so any order of the candidates yields the same state.
    """
    if k != state.layer + 1:
        raise ValueError(f"state covers layers 1..{state.layer}, cannot extend to layer {k}")
    base = net.layer_offset(k)
    if base != state.covered:
        raise ValueError("state prefix length does not match the network architecture")
    n_k = net.architecture[k]
    n = base + n_k

    # (a) carry existing vertices over, extending their keys by evaluation
    carried: dict[int, Vertex] = {}
    if state.vertices:
        olds = list(state.vertices.values())
        coords = np.array([v.coords for v in olds])
        vals = node_map_value_matrix(net, coords)[:, base:n]
        tails = _strict_signs(
            vals, lambda ij: f"layer {k} at existing vertex {text(olds[ij[0]].key, base)}"
        )
        for tail, vert in zip(pack(tails).tolist(), olds):
            key = vert.key << 2 * n_k | tail
            carried[key] = Vertex(
                vert.coords, key, vert.zero_set, vert.max_residual, vert.solve_condition
            )

    # (b) solve for new vertices inside every region of the current complex
    regions = sorted(state.regions)
    ids, rows = _layer_candidates(state, regions, base, n_k, net.n0)
    region_signs = unpack(regions, base)
    normals, offsets = stacked_region_affine_maps(net, region_signs > 0, k)
    discovered: dict[int, Vertex] = {}
    for start in range(0, len(ids), BLOCK_CANDIDATES):
        block = slice(start, start + BLOCK_CANDIDATES)
        for vert in _block_vertices(
            normals, offsets, region_signs, ids[block], rows[block], base,
            lambda r: f"layer {k}, region {text(regions[r], base)}",
        ):
            _merge_vertex(discovered, vert, n)

    vertices = dict(carried)
    for key, vert in discovered.items():
        if key in vertices:  # cannot happen: carried keys have no layer-k zeros
            raise DuplicateMismatch(f"sign sequence {text(key, n)} already carried over")
        vertices[key] = vert
    return LayerBuildState(k, n, vertices)


def build_complex(net: ReluNetwork) -> LayerBuildState:
    """Run the full pipeline: first layer, hidden layers, then the output map."""
    state = first_layer_vertices(net)
    for k in range(2, net.depth + 2):
        state = extend_layer(net, k, state)
    return state
