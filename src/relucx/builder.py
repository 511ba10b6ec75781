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

Within a region every candidate system is gathered into one (B, n_0, n_0)
batch and solved by a single `np.linalg.solve` call.  A vectorised screen
(finite solution, residual, signs of the remaining earlier maps) drops the
candidates that cannot be accepted; its margins cover the rounding gap
between batched and single evaluations, so it only ever keeps a superset of
the accepted candidates.  The survivors are then visited in candidate order
and run through the exact per-candidate checks, which alone decide
acceptance and raise on degeneracy.

Regions are never solved for directly; after every layer one pass over the
vertices maps each all-nonzero completion of a vertex sign sequence (a region)
to the vertices in its closure.  Only `topology.assemble` builds the full cube
closure, once per network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .model import ReluNetwork, node_map_value_matrix, region_affine_maps
from .signs import SignSequence, cube_completions
from .signs import cube_closure  # noqa: F401  (unused here; perfbench/tracing.py patches it)

__all__ = [
    "Tolerances",
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


@dataclass(frozen=True)
class Tolerances:
    degeneracy_tol: float = 1e-8
    cond_max: float = 1e12
    residual_tol: float = 1e-6
    merge_tol: float = 1e-6  # scaled by (1 + |coords|) at the comparison site


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True, eq=False)
class Vertex:
    coords: np.ndarray
    signs: SignSequence
    zero_set: tuple[int, ...]  # flat node indices of the solved equations
    max_residual: float
    solve_condition: float


@dataclass
class LayerBuildState:
    """Complex data after processing layers 1..layer (sign prefixes of length covered)."""

    layer: int
    covered: int
    vertices: dict[SignSequence, Vertex] = field(default_factory=dict)
    incidence: dict[SignSequence, list[Vertex]] = field(default_factory=dict)  # region -> vertices

    @property
    def regions(self):
        """The regions, as a read-only set-like view."""
        return self.incidence.keys()


def _region_incidence(vertices: dict[SignSequence, Vertex]) -> dict[SignSequence, list[Vertex]]:
    """Map each all-nonzero completion (region) to the vertices incident to it."""
    incidence: dict[SignSequence, list[Vertex]] = {}
    for key, vert in vertices.items():
        for region in cube_completions(key, values=(-1, 1)):
            incidence.setdefault(region, []).append(vert)
    return incidence


def _strict_sign(value: float, tol: Tolerances, context: str) -> int:
    if abs(value) < tol.degeneracy_tol:
        raise DegenerateNetwork(
            f"{context}: node map value {value:.3e} within degeneracy tolerance of 0"
        )
    return 1 if value > 0 else -1


def _strict_signs(vals: np.ndarray, tol: Tolerances, context) -> np.ndarray:
    """`_strict_sign` over an array; only its first entry near 0 calls `context(index)`."""
    near = np.abs(vals) < tol.degeneracy_tol
    if near.any():
        first = np.unravel_index(near.argmax(), near.shape)
        _strict_sign(vals[first], tol, context(first))
    return np.where(vals > 0, 1, -1)


def _vertex_rank(v: Vertex) -> tuple:
    # total order making duplicate resolution independent of discovery order
    return (v.max_residual, v.solve_condition, tuple(v.coords))


def _merge_vertex(table: dict[SignSequence, Vertex], cand: Vertex, tol: Tolerances) -> None:
    held = table.get(cand.signs)
    if held is None:
        table[cand.signs] = cand
        return
    scale = 1.0 + max(
        float(np.linalg.norm(held.coords)), float(np.linalg.norm(cand.coords))
    )
    gap = float(np.max(np.abs(held.coords - cand.coords)))
    if gap > tol.merge_tol * scale:
        raise DuplicateMismatch(
            f"sign sequence {cand.signs} held by two vertices {gap:.3e} apart"
        )
    if _vertex_rank(cand) < _vertex_rank(held):
        table[cand.signs] = cand


def first_layer_vertices(net: ReluNetwork, tol: Tolerances = DEFAULT_TOLERANCES) -> LayerBuildState:
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
    weights = net.layers[0].weights
    bias = net.layers[0].bias
    vertices: dict[SignSequence, Vertex] = {}
    for alpha in combinations(range(n1), n0):
        sub = weights[list(alpha)]
        cond = float(np.linalg.cond(sub))
        if not np.isfinite(cond) or cond > tol.cond_max:
            raise DegenerateNetwork(
                f"first layer: subsystem {alpha} has condition estimate {cond:.3e}"
            )
        x = np.linalg.solve(sub, -bias[list(alpha)])
        vals = weights @ x + bias
        residual = float(np.max(np.abs(vals[list(alpha)])))
        if residual > tol.residual_tol:
            raise DegenerateNetwork(
                f"first layer: subsystem {alpha} solved with residual {residual:.3e}"
            )
        free = [j for j in range(n1) if j not in alpha]
        entries = np.zeros(n1, dtype=int)
        entries[free] = _strict_signs(vals[free], tol, lambda _: f"first layer at {alpha}")
        signs = SignSequence.from_entries(entries.tolist())
        vertices[signs] = Vertex(x, signs, alpha, residual, cond)
    return LayerBuildState(1, n1, vertices, _region_incidence(vertices))


def _candidate_rows(
    new_rows: dict[int, np.ndarray], olds_by_size: dict[int, set[tuple[int, ...]]], n0: int
) -> np.ndarray:
    """Row indices into a region's maps of every candidate system, shape (B, n_0).

    Candidates run over l ascending, then the l-subsets of new rows in
    combinations order, then the (n_0 - l)-subsets of old rows in sorted
    order; each row lists its new-layer rows first.
    """
    blocks = []
    for ell, news in new_rows.items():
        subsets = sorted(olds_by_size[n0 - ell])
        olds = np.array(subsets, dtype=np.intp).reshape(len(subsets), n0 - ell)
        blocks.append(
            np.hstack([np.repeat(news, len(olds), axis=0), np.tile(olds, (len(news), 1))])
        )
    return np.concatenate(blocks)


def _solve_and_screen(
    normals: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray,
    sign_arr: np.ndarray,
    tol: Tolerances,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve every candidate system of a region at once and screen the solutions.

    Returns the systems `mats` (B, n_0, n_0) and `rhss` (B, n_0), the
    solutions `xs` (B, n_0), NaN where a system is exactly singular, and a
    mask `keep` (B,) of the candidates that may pass the exact checks.  The
    mask is a superset of those: each margin is twice the tolerance plus a
    bound on the gap between two evaluations of the same (n_0 + 1)-term sum
    in different orders, so batched rounding never drops a candidate that
    the per-candidate residual and sign checks would accept or raise on.
    """
    base = len(sign_arr)
    mats = normals[rows]
    rhss = offsets[rows]
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
    gap = 2 * (normals.shape[1] + 1) * np.finfo(float).eps
    with np.errstate(invalid="ignore", over="ignore"):
        abs_xs = np.abs(xs)
        resid = np.abs(np.einsum("bij,bj->bi", mats, xs) + rhss)
        resid_gap = gap * (np.einsum("bij,bj->bi", np.abs(mats), abs_xs) + np.abs(rhss))
        vals = xs @ normals[:base].T + offsets[:base]
        vals_gap = gap * (abs_xs @ np.abs(normals[:base]).T + np.abs(offsets[:base]))
        remaining = np.ones((len(rows), len(offsets)), dtype=bool)
        remaining[np.arange(len(rows))[:, None], rows] = False
        remaining = remaining[:, :base]
        # Written as "not provably out" so that a NaN from overflow keeps the
        # candidate, as it would pass the exact checks' comparisons too.
        agree = ~remaining | (np.sign(vals) == sign_arr)
        near = remaining & ~(np.abs(vals) >= 2 * tol.degeneracy_tol + vals_gap)
        keep = (
            np.isfinite(xs).all(axis=1)
            & ~np.any(resid > 2 * tol.residual_tol + resid_gap, axis=1)
            & (agree.all(axis=1) | near.any(axis=1))
        )
    return mats, rhss, xs, keep


def extend_layer(
    net: ReluNetwork,
    k: int,
    state: LayerBuildState,
    tol: Tolerances = DEFAULT_TOLERANCES,
    region_order=None,
) -> LayerBuildState:
    """Extend the complex over the node maps of layer k (k = depth+1 is the output map).

    Existing vertices keep their coordinates and gain strict signs for the new
    maps.  New vertices are solved region by region; the merge of results is
    order-independent, so any schedule over the regions yields the same state.
    """
    if k != state.layer + 1:
        raise ValueError(f"state covers layers 1..{state.layer}, cannot extend to layer {k}")
    n0 = net.n0
    base = net.layer_offset(k)
    if base != state.covered:
        raise ValueError("state prefix length does not match the network architecture")
    n_k = net.architecture[k]

    # (a) carry existing vertices over, extending their signs by evaluation
    carried: dict[SignSequence, Vertex] = {}
    if state.vertices:
        olds = list(state.vertices.values())
        coords = np.array([v.coords for v in olds])
        vals = node_map_value_matrix(net, coords)[:, base : base + n_k]
        tails = _strict_signs(
            vals, tol, lambda ij: f"layer {k} at existing vertex {olds[ij[0]].signs}"
        )
        for tail, vert in zip(tails.tolist(), olds):
            signs = vert.signs.concat(tail)
            carried[signs] = Vertex(
                vert.coords, signs, vert.zero_set, vert.max_residual, vert.solve_condition
            )

    # (b) solve for new vertices inside every region of the current complex
    if region_order is None:
        regions = sorted(state.regions)
    else:
        regions = list(region_order)
        if set(regions) != set(state.regions):
            raise ValueError("region_order must enumerate exactly the state's regions")
    discovered: dict[SignSequence, Vertex] = {}
    ells = range(1, min(n0, n_k) + 1)
    new_rows = {
        ell: base + np.array(list(combinations(range(n_k), ell)), dtype=np.intp)
        for ell in ells
    }
    for region in regions:
        members = state.incidence[region]
        normals, offsets = region_affine_maps(net, region, k)
        old_normals, new_normals = normals[:base], normals[base:]
        old_offsets, new_offsets = offsets[:base], offsets[base:]
        region_entries = region.entries
        sign_arr = np.array(region_entries, dtype=float)

        olds_by_size: dict[int, set[tuple[int, ...]]] = {n0 - ell: set() for ell in ells}
        for vert in members:
            for s in olds_by_size:
                olds_by_size[s].update(combinations(vert.zero_set, s))
        rows = _candidate_rows(new_rows, olds_by_size, n0)
        mats, rhss, xs, keep = _solve_and_screen(normals, offsets, rows, sign_arr, tol)

        # The screen only discards; these exact checks decide, in candidate order.
        for c in np.flatnonzero(keep):
            mat, rhs, x = mats[c], rhss[c], xs[c].copy()
            row = rows[c].tolist()
            old_subset = [r for r in row if r < base]
            new_subset = [r - base for r in row if r >= base]
            # Structurally parallel systems (rank-deficient regions make
            # new-layer functionals exact multiples of old ones) float through
            # solve with det ~ eps and a pseudo-solution at ~1/eps scale.
            # Backward stability keeps |mat @ x + rhs| tiny for every genuine
            # finite intersection, so a large absolute residual identifies
            # "no intersection", not a tolerance failure.
            residual = float(np.max(np.abs(mat @ x + rhs)))
            if residual > tol.residual_tol:
                continue
            vals_old = old_normals @ x + old_offsets
            remaining = np.ones(base, dtype=bool)
            remaining[old_subset] = False
            near = np.abs(vals_old[remaining]) < tol.degeneracy_tol
            if near.any():
                raise DegenerateNetwork(
                    f"layer {k}, region {region}: remaining node map within "
                    f"degeneracy tolerance of 0 at a candidate vertex"
                )
            if not np.all(np.sign(vals_old[remaining]) == sign_arr[remaining]):
                continue
            # accepted: x is a vertex in the closure of this region
            cond = float(np.linalg.cond(mat))
            if not np.isfinite(cond) or cond > tol.cond_max:
                raise DegenerateNetwork(
                    f"layer {k}, region {region}: accepted system has "
                    f"condition estimate {cond:.3e}"
                )
            vals_new = new_normals @ x + new_offsets
            free = [j for j in range(n_k) if j not in new_subset]
            tail = np.zeros(n_k, dtype=int)
            tail[free] = _strict_signs(
                vals_new[free], tol, lambda _: f"layer {k}, region {region}"
            )
            entries = [0 if f in old_subset else region_entries[f] for f in range(base)]
            signs = SignSequence.from_entries(entries + tail.tolist())
            zero_set = tuple(sorted(old_subset)) + tuple(base + j for j in new_subset)
            _merge_vertex(discovered, Vertex(x, signs, zero_set, residual, cond), tol)

    vertices = dict(carried)
    for signs, vert in discovered.items():
        if signs in vertices:  # cannot happen: carried keys have no layer-k zeros
            raise DuplicateMismatch(f"sign sequence {signs} already carried over")
        vertices[signs] = vert
    return LayerBuildState(k, base + n_k, vertices, _region_incidence(vertices))


def build_complex(net: ReluNetwork, tol: Tolerances = DEFAULT_TOLERANCES) -> LayerBuildState:
    """Run the full pipeline: first layer, hidden layers, then the output map."""
    state = first_layer_vertices(net, tol)
    for k in range(2, net.depth + 2):
        state = extend_layer(net, k, state, tol)
    return state
