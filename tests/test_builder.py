"""Vertex enumeration: frozen hand values, brute-force oracles, invariants."""

import itertools
import json
import math
import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucx import (
    AffineLayer,
    ArchitectureUnsupported,
    DegenerateNetwork,
    DuplicateMismatch,
    ReluNetwork,
    build_complex,
    cube_closure,
    extend_layer,
    first_layer_vertices,
    product,
    random_init,
    write_model,
)
import relucx.builder
import relucx.model
import relucx.topology
from relucx.builder import _region_incidence, _unique_vertices
from relucx.cli import _analyze, main
from relucx.model import node_map_value_matrix, region_affine_maps
from relucx.signs import unpack
from conftest import entries_of, from_text, key_of, n_zeros, zero_positions
from test_signs import equal_zero_vertex_sets, reference_cube_completions


def rows_by_key(state):
    """The row of each key in a state's vertex table."""
    return {key: i for i, key in enumerate(state.vertices)}


def incidence_lists(incidence):
    """Region -> its member rows, in region order, from `_region_incidence`'s three arrays."""
    regions, owners, members = incidence
    assert (np.diff(regions) > 0).all() and (np.diff(owners) >= 0).all()
    keys = regions.tolist()
    lists = {key: [] for key in keys}
    for owner, row in zip(owners.tolist(), members.tolist()):
        lists[keys[owner]].append(row)
    return lists


# ---------------------------------------------------------------------------
# hand example: identity first layer, output relu(x) + relu(y) - 1


def test_hand_example_vertices(hand_net):
    state = build_complex(hand_net)
    assert len(state.vertices) == 3
    expect = {
        key_of([0, 0, -1]): ((0.0, 0.0), (0, 1)),
        key_of([0, 1, 0]): ((0.0, 1.0), (0, 2)),
        key_of([1, 0, 0]): ((1.0, 0.0), (1, 2)),
    }
    rows = rows_by_key(state)
    assert rows.keys() == expect.keys()
    for signs, (coords, zero_set) in expect.items():
        assert np.allclose(state.coords[rows[signs]], coords, atol=1e-12)
        assert tuple(state.zero_sets[rows[signs]].tolist()) == zero_set


def test_hand_example_closure_counts(hand_net):
    state = build_complex(hand_net)
    closure = cube_closure(state.vertices, state.covered)
    assert len(closure[2]) == 3  # vertices
    assert len(closure[1]) == 9  # edges
    assert len(closure[0]) == 7  # regions
    assert state.regions == set(closure[0])


# ---------------------------------------------------------------------------
# first layer as a plain hyperplane arrangement


def test_identity_arrangement():
    net = ReluNetwork(
        (2, 2, 1),
        (AffineLayer(np.eye(2), np.zeros(2)), AffineLayer(np.ones((1, 2)), np.ones(1))),
    )
    state = first_layer_vertices(net)
    assert state.vertices == [key_of([0, 0])]
    assert np.allclose(state.coords[0], [0.0, 0.0], atol=1e-12)
    assert state.regions == {key_of(e) for e in ([1, 1], [1, -1], [-1, 1], [-1, -1])}


def test_three_generic_lines():
    net = random_init((2, 3, 1), 0)
    state = first_layer_vertices(net)
    closure = cube_closure(state.vertices, state.covered)
    assert len(closure[2]) == 3
    assert len(closure[1]) == 9
    assert len(closure[0]) == 7


def test_single_layer_counts_match_arrangement_combinatorics():
    from math import comb

    for n0, n1 in itertools.product((2, 3), range(3, 9)):
        if n1 < n0:
            continue
        for seed in range(10):
            state = first_layer_vertices(random_init((n0, n1, 1), seed))
            assert len(state.vertices) == comb(n1, n0)
            assert len(state.regions) == sum(comb(n1, i) for i in range(n0 + 1))


def test_first_layer_coords_match_cramer_oracle():
    net = random_init((2, 5, 1), 12)
    w, b = net.layers[0].weights, net.layers[0].bias
    oracle = []
    for i, j in itertools.combinations(range(5), 2):
        det = w[i, 0] * w[j, 1] - w[i, 1] * w[j, 0]
        x = (-b[i] * w[j, 1] + b[j] * w[i, 1]) / det
        y = (-w[i, 0] * b[j] + w[j, 0] * b[i]) / det
        oracle.append((x, y))
    got = sorted(map(tuple, first_layer_vertices(net).coords.tolist()))
    for (gx, gy), (ox, oy) in zip(got, sorted(oracle)):
        assert abs(gx - ox) < 1e-9 and abs(gy - oy) < 1e-9


def test_euler_relation_single_layer():
    for n1, seed in ((3, 1), (4, 2), (5, 3), (8, 4)):
        state = first_layer_vertices(random_init((2, n1, 1), seed))
        closure = cube_closure(state.vertices, state.covered)
        v = len(closure.get(2, ()))
        e = len(closure.get(1, ()))
        r = len(closure.get(0, ()))
        assert v - e + r == 1


# ---------------------------------------------------------------------------
# full builds against an independent enumeration


def brute_force_full_vertices(net, lo=-20.0, hi=20.0, res=400):
    """Vertex keys of a (2,n1,1) build found without the layer-wise solver.

    First-layer vertices are all line-pair crossings; boundary vertices come
    from solving {output functional on region r} = 0 against each line, with
    the region functionals composed directly and candidates kept only if all
    uncrossed lines match r's signs strictly.
    """
    w1, b1 = net.layers[0].weights, net.layers[0].bias
    w2, b2 = net.layers[1].weights, net.layers[1].bias
    n1 = w1.shape[0]
    axes = np.linspace(lo, hi, res)
    gx, gy = np.meshgrid(axes, axes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    z1 = pts @ w1.T + b1
    keep = np.all(np.abs(z1) > 1e-6, axis=1)
    patterns = {tuple(row) for row in np.where(z1[keep] > 0, 1, -1).tolist()}

    keys = {}
    for i, j in itertools.combinations(range(n1), 2):
        x = np.linalg.solve(w1[[i, j]], -b1[[i, j]])
        vals = w1 @ x + b1
        entries = [0 if t in (i, j) else (1 if vals[t] > 0 else -1) for t in range(n1)]
        out = float((w2 @ np.maximum(vals, 0.0) + b2)[0])
        keys[tuple(entries) + ((1 if out > 0 else -1),)] = x
    for pat in sorted(patterns):
        mask = np.array([1.0 if s > 0 else 0.0 for s in pat])
        gn = (w2 @ (mask[:, None] * w1))[0]
        go = float((w2 @ (mask * b1) + b2)[0])
        for j in range(n1):
            mat = np.array([w1[j], gn])
            if abs(np.linalg.det(mat)) < 1e-9:
                continue
            x = np.linalg.solve(mat, -np.array([b1[j], go]))
            vals = w1 @ x + b1
            ok = all(
                abs(vals[t]) > 1e-8 and (vals[t] > 0) == (pat[t] > 0)
                for t in range(n1)
                if t != j
            )
            if ok:
                entries = [0 if t == j else pat[t] for t in range(n1)]
                keys[tuple(entries) + (0,)] = x
    return {key_of(k): v for k, v in keys.items()}


@pytest.mark.parametrize("seed", [5, 6, 7, 21])
def test_full_build_matches_brute_force(seed):
    net = random_init((2, 5, 1), seed)
    state = build_complex(net)
    oracle = brute_force_full_vertices(net)
    rows = rows_by_key(state)
    assert rows.keys() == oracle.keys()
    for signs, x in oracle.items():
        assert np.allclose(state.coords[rows[signs]], x, atol=1e-8)


# ---------------------------------------------------------------------------
# structural invariants of built states


@pytest.mark.parametrize(
    "arch,seed", [((2, 5, 1), 1), ((2, 4, 4, 1), 9), ((3, 5, 1), 2), ((2, 20, 12, 1), 0)]
)
def test_vertex_invariants(arch, seed):
    # (2,20,12,1) has 33 node maps, so its last keys are wider than 64 bits
    net = random_init(arch, seed)
    states = [first_layer_vertices(net)]
    for k in range(2, net.depth + 2):
        states.append(extend_layer(net, k, states[-1]))
    for prev, state in zip([None] + states, states):
        # the four columns are row-aligned, one row per key
        size = len(state.vertices)
        assert all(type(key) is int for key in state.vertices)
        assert state.coords.shape == state.zero_sets.shape == (size, net.n0)
        assert state.residuals.shape == (size,)
        for key, zero_set in zip(state.vertices, state.zero_sets.tolist()):
            assert zero_positions(key, state.covered) == tuple(zero_set)
        assert (state.residuals <= relucx.builder._RESIDUAL_TOL).all()
        carried = len(prev.vertices) if prev else 0
        if prev:
            # carried rows keep their place, coordinates, zero sets and residuals
            shift = 2 * (state.covered - prev.covered)
            assert [key >> shift for key in state.vertices[:carried]] == prev.vertices
            assert state.coords[:carried].tobytes() == prev.coords.tobytes()
            assert state.zero_sets[:carried].tobytes() == prev.zero_sets.tobytes()
            assert state.residuals[:carried].tobytes() == prev.residuals.tobytes()
        # the new rows follow in key order
        assert state.vertices[carried:] == sorted(state.vertices[carried:])
    assert state.covered == net.num_node_maps
    coords = state.coords
    if len(coords) > 1:
        gaps = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        gaps[np.diag_indices(len(coords))] = np.inf
        assert float(gaps.min()) > 1e-7


@pytest.mark.parametrize(
    "arch,seed", [((2, 5, 1), 1), ((2, 4, 4, 1), 9), ((3, 6, 6, 1), 0)]
)
def test_closure_purity_and_region_incidence(arch, seed):
    net = random_init(arch, seed)
    states = [first_layer_vertices(net)]
    for k in range(2, net.depth + 2):
        states.append(extend_layer(net, k, states[-1]))
    for state in states:
        # the regions are the closure's top grade, and each region's incident
        # vertices are exactly the vertices in its closure
        n = state.covered
        assert state.regions == set(cube_closure(state.vertices, n)[0])
        for region, members in incidence_lists(state.incidence).items():
            assert members == [
                i for i, key in enumerate(state.vertices) if product(key, region) == region
            ]
    closure = cube_closure(state.vertices, n)
    for zeros, grade in closure.items():
        for cell in grade:
            assert n_zeros(cell, n) == zeros
            assert any(product(v, cell) == cell for v in state.vertices)


def reference_region_incidence(keys, n):
    """The incidence over `reference_cube_completions` of the n-entry vertex keys, as rows."""
    incidence = {}
    for row, key in enumerate(keys):
        for region in reference_cube_completions(key, n, values=(-1, 1)):
            incidence.setdefault(region, []).append(row)
    return incidence


@settings(max_examples=200)
@given(equal_zero_vertex_sets())
def test_region_incidence_matches_reference(case):
    keys, n, _ = case
    got = _region_incidence(keys, np.array([zero_positions(key, n) for key in keys]), n)
    want = reference_region_incidence(keys, n)
    # same regions in key order, each with the same vertex rows in row order
    assert list(incidence_lists(got).items()) == sorted(want.items())


@pytest.mark.parametrize("arch,seed", [((2, 6, 6, 6, 1), 0), ((4, 6, 1), 1), ((5, 8, 1), 1)])
def test_region_incidence_matches_reference_on_builds(arch, seed):
    net = random_init(arch, seed)
    states = [first_layer_vertices(net)]
    for k in range(2, net.depth + 2):
        states.append(extend_layer(net, k, states[-1]))
    for state in states:
        want = reference_region_incidence(state.vertices, state.covered)
        assert list(incidence_lists(state.incidence).items()) == sorted(want.items())


@pytest.mark.parametrize("arch", [(2, 6, 6, 6, 1), (3, 6, 6, 1)])
def test_only_assemble_runs_a_full_closure(monkeypatch, arch):
    def refuse(*args):
        raise AssertionError("the builder ran a full cube closure")

    calls = []

    def counted(*args):
        calls.append(1)
        return cube_closure(*args)

    monkeypatch.setattr(relucx.builder, "cube_closure", refuse)
    monkeypatch.setattr(relucx.topology, "cube_closure", counted)
    net = random_init(arch, 0)
    build_complex(net)
    assert calls == []
    _analyze(net)
    assert len(calls) == 1


def test_single_vertex_cube_closure():
    closure = cube_closure([key_of([0, 0])], 2)
    assert {z: len(g) for z, g in closure.items()} == {2: 1, 1: 4, 0: 4}
    assert sum(len(g) for g in closure.values()) == 9


def test_last_layer_incidence_computed_on_first_read(monkeypatch):
    calls = []
    real = relucx.builder._region_incidence

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(relucx.builder, "_region_incidence", counted)
    state = build_complex(random_init((2, 6, 6, 6, 1), 0))
    assert len(calls) == 3  # layers 1-3, each read by the next extend_layer
    regions = state.regions
    assert len(calls) == 4  # the output layer's, when first read
    assert state.regions == regions and len(calls) == 4  # and then kept


def test_schedule_independence(monkeypatch):
    net = random_init((2, 5, 5, 1), 3)
    ref = build_complex(net)
    real = relucx.builder._layer_candidates
    rng = np.random.default_rng(0)
    orders = [lambda n: np.arange(n)[::-1]] + [rng.permutation] * 3
    calls = []

    def shuffled(*args):
        ids, rows = real(*args)
        order = orders[len(calls) // 2](len(ids))  # one order per build of two layers
        calls.append(1)
        return ids[order], rows[order]

    monkeypatch.setattr(relucx.builder, "_layer_candidates", shuffled)
    for _ in orders:
        other = build_complex(net)
        assert state_fingerprint(other) == state_fingerprint(ref)
    assert len(calls) == 2 * len(orders)


def test_dead_unit_build_succeeds():
    net = random_init((2, 5, 5, 1), 4)
    w2 = net.layers[1].weights.copy()
    b2 = net.layers[1].bias.copy()
    w2[0] = np.abs(w2[0])  # nonnegative input weights + huge bias: unit never fires zero
    b2[0] = 1000.0
    dead = ReluNetwork(net.architecture, (net.layers[0], AffineLayer(w2, b2), net.layers[2]))
    state = build_complex(dead)
    flat = dead.layer_offset(2)  # the modified unit's node index
    assert state.vertices
    assert (unpack(state.vertices, state.covered)[:, flat] == 1).all()


# ---------------------------------------------------------------------------
# batched vertex search against a per-candidate reference


def reference_strict_sign(value, context):
    if abs(value) < relucx.builder._DEGENERACY_TOL:
        raise DegenerateNetwork(
            f"{context}: node map value {value:.3e} within degeneracy tolerance of 0"
        )
    return 1 if value > 0 else -1


# a vertex found by a reference search, with the condition estimate of its system
Candidate = namedtuple("Candidate", "coords zero_set residual cond")


def reference_merge(candidates, n):
    """The least (residual, condition, coords) candidate of each key's candidates.

    Every candidate must lie within 1e-6 of it, scaled by 1 + the larger norm.
    """
    table = {}
    for key, verts in candidates.items():
        best = min(verts, key=lambda v: (v.residual, v.cond, tuple(v.coords)))
        for v in verts:
            scale = 1.0 + max(np.linalg.norm(best.coords), np.linalg.norm(v.coords))
            gap = float(np.max(np.abs(best.coords - v.coords)))
            if gap > 1e-6 * scale:
                raise DuplicateMismatch(f"sign sequence {key} held by two vertices")
        table[key] = best
    return table


def reference_new_vertices(net, k, state):
    """Layer-k vertices of `extend_layer`, found one candidate system at a time.

    The same candidates in the same order as the batched search, each solved
    by its own np.linalg.solve and checked on the spot.
    """
    n0, base, n_k = net.n0, net.layer_offset(k), net.architecture[k]
    incidence = reference_region_incidence(state.vertices, base)
    zero_sets = state.zero_sets.tolist()
    found = {}
    subset_sizes = [n0 - ell for ell in range(1, min(n0, n_k) + 1)]
    for region in sorted(state.regions):
        region_entries = entries_of(region, base)
        normals, offsets = region_affine_maps(net, region_entries, k)
        old_normals, new_normals = normals[:base], normals[base:]
        old_offsets, new_offsets = offsets[:base], offsets[base:]
        sign_arr = np.array(region_entries, dtype=float)
        olds_by_size = {s: set() for s in subset_sizes}
        for row in incidence[region]:
            for s in subset_sizes:
                olds_by_size[s].update(itertools.combinations(zero_sets[row], s))
        for ell in range(1, min(n0, n_k) + 1):
            for new_subset in itertools.combinations(range(n_k), ell):
                m_new = new_normals[list(new_subset)]
                c_new = new_offsets[list(new_subset)]
                for old_subset in sorted(olds_by_size[n0 - ell]):
                    if old_subset:
                        mat = np.vstack([m_new, old_normals[list(old_subset)]])
                        rhs = np.concatenate([c_new, old_offsets[list(old_subset)]])
                    else:
                        mat, rhs = m_new, c_new
                    try:
                        x = np.linalg.solve(mat, -rhs)
                    except np.linalg.LinAlgError:
                        continue
                    if not np.all(np.isfinite(x)):
                        continue
                    residual = float(np.max(np.abs(mat @ x + rhs)))
                    if residual > relucx.builder._RESIDUAL_TOL:
                        continue
                    vals_old = old_normals @ x + old_offsets
                    remaining = np.ones(base, dtype=bool)
                    remaining[list(old_subset)] = False
                    near = np.abs(vals_old[remaining]) < relucx.builder._DEGENERACY_TOL
                    if not np.all(near | (np.sign(vals_old[remaining]) == sign_arr[remaining])):
                        continue
                    if np.any(near):
                        raise DegenerateNetwork("remaining node map near 0")
                    cond = float(np.linalg.cond(mat))
                    if not np.isfinite(cond) or cond > relucx.builder._COND_MAX:
                        raise DegenerateNetwork("accepted system ill-conditioned")
                    vals_new = new_normals @ x + new_offsets
                    entries = [0 if f in old_subset else region_entries[f] for f in range(base)]
                    entries += [
                        0 if j in new_subset else reference_strict_sign(vals_new[j], "ref")
                        for j in range(n_k)
                    ]
                    zero_set = tuple(sorted(old_subset)) + tuple(base + j for j in new_subset)
                    vert = Candidate(x, zero_set, residual, cond)
                    found.setdefault(key_of(entries), []).append(vert)
    return reference_merge(found, base + n_k)


def assert_table_matches(state, rows, want):
    """Rows `rows` (key -> row) of a state's table hold the candidates `want`, bit for bit."""
    assert rows.keys() == want.keys()
    for key, v in want.items():
        i = rows[key]
        assert state.coords[i].tobytes() == v.coords.tobytes()
        assert tuple(state.zero_sets[i].tolist()) == tuple(v.zero_set)
        assert state.residuals[i] == v.residual


def assert_layer_matches_reference(net, k, state):
    """Extend `state` over layer k; its new rows must be the reference's, bit for bit."""
    nxt = extend_layer(net, k, state)
    base = net.layer_offset(k)
    rows = {key: i for key, i in rows_by_key(nxt).items() if nxt.zero_sets[i, -1] >= base}
    assert_table_matches(nxt, rows, reference_new_vertices(net, k, state))
    return nxt


def assert_layers_match_reference(net):
    state = first_layer_vertices(net)
    for k in range(2, net.depth + 2):
        state = assert_layer_matches_reference(net, k, state)


@pytest.mark.parametrize(
    "arch,seed",
    [(arch, seed) for arch in ((2, 8, 8, 1), (2, 6, 6, 6, 1), (3, 6, 6, 1)) for seed in (0, 1, 2)]
    + [((4, 6, 1), seed) for seed in (0, 1)],
)
def test_batched_search_matches_reference(arch, seed):
    assert_layers_match_reference(random_init(arch, seed))


def screened_candidates(net, k, state):
    """Layer k's candidates that the face screen keeps: region ids and rows."""
    base, n_k = net.layer_offset(k), net.architecture[k]
    positive = node_map_value_matrix(net, state.coords)[:, base : base + n_k] > 0
    return relucx.builder._layer_candidates(state, positive, base, n_k, net.n0)


def screened_out(net, k, state):
    """Candidates the face screen drops at each l: the reference's count less the kept ones."""
    n0, base, n_k = net.n0, net.layer_offset(k), net.architecture[k]
    _, rows = screened_candidates(net, k, state)
    kept = np.bincount((rows >= base).sum(axis=1), minlength=n0 + 1)
    zero_sets = state.zero_sets.tolist()
    dropped = np.zeros(n0 + 1, dtype=int)
    for ell in range(1, min(n0, n_k) + 1):
        for members in incidence_lists(state.incidence).values():
            faces = {s for i in members for s in itertools.combinations(zero_sets[i], n0 - ell)}
            dropped[ell] += math.comb(n_k, ell) * len(faces)
        dropped[ell] -= kept[ell]
    return dropped


@pytest.mark.parametrize(
    "arch,seed", [((3, 6, 6, 1), 0), ((3, 6, 6, 1), 1), ((2, 6, 6, 6, 1), 0), ((4, 6, 6, 1), 0)]
)
def test_face_screen_is_sound(arch, seed):
    # every layer's new vertices are the unscreened reference's, bit for bit,
    # on nets where the screen drops candidates of bounded faces at l >= 2
    net = random_init(arch, seed)
    state = first_layer_vertices(net)
    dropped = np.zeros(net.n0 + 1, dtype=int)
    for k in range(2, net.depth + 2):
        dropped += screened_out(net, k, state)
        state = assert_layer_matches_reference(net, k, state)
    assert dropped[0] == 0 and (dropped >= 0).all()
    assert dropped[2:].any()


def screen_net():
    # identity first layer; layer 2 is g1 = x + y - 1 and g2 = x - 2y + 0.5 on
    # the quadrant x, y > 0; the output is relu(g1) + relu(g2) - 0.7
    return ReluNetwork(
        (2, 2, 2, 1),
        (
            AffineLayer(np.eye(2), np.zeros(2)),
            AffineLayer(np.array([[1.0, 1.0], [1.0, -2.0]]), np.array([-1.0, 0.5])),
            AffineLayer(np.ones((1, 2)), np.array([-0.7])),
        ),
    )


def test_face_screen_drops_an_uncrossed_bounded_edge():
    # region (1,1,-1,1) is the quadrilateral (0,0), (0,0.25), (0.5,0.5), (1,0),
    # where the output is -0.2, -0.7, -0.7, 0.8: it crosses only the edges
    # y = 0 (row 1) and g1 = 0 (row 2), so x = 0 (row 0) and g2 = 0 (row 3) go unsolved
    net = screen_net()
    state = extend_layer(net, 2, first_layer_vertices(net))
    ids, rows = screened_candidates(net, 3, state)
    region = sorted(state.regions).index(from_text("(1,1,-1,1)"))
    assert rows[ids == region].tolist() == [[4, 1], [4, 2]]
    assert_layers_match_reference(net)


def test_face_screen_keeps_rays():
    # region (1,-1,1,1) has one vertex, (1, 0), and two rays; on the ray
    # y = 0, x >= 1 the output is 2x - 1.2 > 0, yet an unbounded face is kept
    net = screen_net()
    state = extend_layer(net, 2, first_layer_vertices(net))
    ids, rows = screened_candidates(net, 3, state)
    assert len(incidence_lists(state.incidence)[from_text("(1,-1,1,1)")]) == 1
    region = sorted(state.regions).index(from_text("(1,-1,1,1)"))
    assert rows[ids == region].tolist() == [[4, 1], [4, 2]]


def reference_first_layer_vertices(net):
    """First-layer vertices found one subset at a time, each checked on the spot."""
    weights, bias = net.layers[0].weights, net.layers[0].bias
    n1 = net.architecture[1]
    vertices = {}
    for alpha in itertools.combinations(range(n1), net.n0):
        sub = weights[list(alpha)]
        cond = float(np.linalg.cond(sub))
        if not np.isfinite(cond) or cond > relucx.builder._COND_MAX:
            raise DegenerateNetwork(
                f"first layer: subsystem {alpha} has condition estimate {cond:.3e}"
            )
        x = np.linalg.solve(sub, -bias[list(alpha)])
        vals = weights @ x + bias
        residual = float(np.max(np.abs(vals[list(alpha)])))
        if residual > relucx.builder._RESIDUAL_TOL:
            raise DegenerateNetwork(
                f"first layer: subsystem {alpha} solved with residual {residual:.3e}"
            )
        entries = [0] * n1
        for j in range(n1):
            if j not in alpha:
                entries[j] = reference_strict_sign(vals[j], f"first layer at {alpha}")
        vertices[key_of(entries)] = Candidate(x, alpha, residual, cond)
    return vertices


TOLERANCE_NAMES = ("_DEGENERACY_TOL", "_COND_MAX", "_RESIDUAL_TOL")
DEFAULT_TOLERANCES = tuple(getattr(relucx.builder, name) for name in TOLERANCE_NAMES)

# (degeneracy, condition, residual) bounds: each set past the first makes some check fail
FIRST_LAYER_TOLERANCES = [
    DEFAULT_TOLERANCES,
    (DEFAULT_TOLERANCES[0], 3.0, DEFAULT_TOLERANCES[2]),  # the condition check
    (*DEFAULT_TOLERANCES[:2], 0.0),  # a subsystem solved with a rounding residual
    (0.05, *DEFAULT_TOLERANCES[1:]),  # a free map near zero
]


def set_tolerances(monkeypatch, case):
    for name, value in zip(TOLERANCE_NAMES, case):
        monkeypatch.setattr(relucx.builder, name, value)


@pytest.mark.parametrize(
    "case", FIRST_LAYER_TOLERANCES, ids=["default", "cond", "residual", "near"]
)
@pytest.mark.parametrize(
    "arch", [(2, 16, 1), (2, 40, 1), (3, 6, 6, 1), (4, 8, 8, 1), (5, 8, 1), (6, 7, 1)]
)
def test_batched_first_layer_matches_reference(monkeypatch, arch, case):
    set_tolerances(monkeypatch, case)
    for seed in range(3):
        net = random_init(arch, seed)
        try:
            want = reference_first_layer_vertices(net)
        except DegenerateNetwork as exc:
            with pytest.raises(DegenerateNetwork) as got:
                first_layer_vertices(net)
            assert str(got.value) == str(exc)
            continue
        state = first_layer_vertices(net)
        assert_table_matches(state, rows_by_key(state), want)


def test_batched_first_layer_covers_every_check(monkeypatch):
    # each tolerance set above makes at least one of its nets raise its own check
    messages = []
    for case in FIRST_LAYER_TOLERANCES[1:]:
        set_tolerances(monkeypatch, case)
        for seed in range(3):
            try:
                reference_first_layer_vertices(random_init((2, 16, 1), seed))
            except DegenerateNetwork as exc:
                messages.append(str(exc))
    assert any("condition estimate" in m for m in messages)
    assert any("solved with residual" in m for m in messages)
    assert any("within degeneracy tolerance" in m for m in messages)


def test_batched_search_with_singular_members(monkeypatch):
    # x < 0, y < 0 switches off the whole first layer, so both layer-2 maps
    # are constant there and every system drawing on one of them is singular
    net = ReluNetwork(
        (2, 2, 2, 1),
        (
            AffineLayer(np.eye(2), np.zeros(2)),
            AffineLayer(np.array([[1.0, 1.0], [1.0, -2.0]]), np.array([-1.0, 0.5])),
            AffineLayer(np.ones((1, 2)), np.array([-0.7])),
        ),
    )
    slogdet = np.linalg.slogdet
    # per block, the members of slogdet sign 0; solve would raise on one, so the
    # build matching the reference shows they were left unsolved
    singular = []

    def spy(a):
        result = slogdet(a)
        singular.append(int((result[0] == 0).sum()))
        return result

    monkeypatch.setattr(np.linalg, "slogdet", spy)
    assert_layers_match_reference(net)
    assert sum(singular) > 0


def test_candidate_outside_its_region_is_not_refused(tmp_path, capsys):
    # In the region x > 0, y > 0 both layer-2 maps extend to lines through
    # (-1, 0), where the extension of y vanishes.  That candidate lies
    # outside the region (x < 0 there), so it is no vertex and refuses nothing.
    net = ReluNetwork(
        (2, 2, 2, 1),
        (
            AffineLayer(np.eye(2), np.zeros(2)),
            AffineLayer(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 1.0])),
            AffineLayer(np.ones((1, 2)), np.array([-0.5])),
        ),
    )
    assert_layers_match_reference(net)
    path = tmp_path / "m.json"
    write_model(net, str(path))
    assert main(["oracle-check", "--model", str(path), "--resolution", "400"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regions_builder"] == report["regions_sampled"] == 6
    assert report["missing"] == report["violations"] == []


REFUSALS = ("existing vertex", "remaining node map", "accepted system", "node map value")


def refusal(search, *args):
    """The kind of DegenerateNetwork that search(*args) raises, or None."""
    try:
        search(*args)
    except DegenerateNetwork as exc:
        return next(kind for kind in REFUSALS if kind in str(exc))


def test_near_remaining_map_refusal_matches_reference(monkeypatch):
    # a looser degeneracy tolerance puts remaining maps near 0 at some
    # candidates whose other remaining signs match their region
    monkeypatch.setattr(relucx.builder, "_DEGENERACY_TOL", 0.01)
    kinds = []
    for arch, seed in itertools.product(((2, 6, 6, 1), (3, 6, 6, 1), (2, 8, 8, 1)), range(10)):
        net = random_init(arch, seed)
        if refusal(first_layer_vertices, net):
            continue
        state = first_layer_vertices(net)
        for k in range(2, net.depth + 2):
            got = refusal(extend_layer, net, k, state)
            if got != "existing vertex":  # step (a), which the reference does not run
                assert got == refusal(reference_new_vertices, net, k, state)
            if got:
                kinds.append(got)
                break
            state = extend_layer(net, k, state)
    assert "remaining node map" in kinds


# ---------------------------------------------------------------------------
# failure modes


FIRST_LAYER_COND = r"^first layer: subsystem \(0, 1\) has condition estimate "


def test_duplicate_hyperplane_is_degenerate():
    net = ReluNetwork(
        (2, 3, 1),
        (
            AffineLayer(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(3)),
            AffineLayer(np.ones((1, 3)), np.ones(1)),
        ),
    )
    with pytest.raises(DegenerateNetwork, match=FIRST_LAYER_COND):
        first_layer_vertices(net)


def test_near_parallel_hyperplanes_exceed_cond_max():
    net = ReluNetwork(
        (2, 2, 1),
        (
            AffineLayer(np.array([[1.0, 0.0], [1.0, 1e-14]]), np.array([0.0, 1.0])),
            AffineLayer(np.ones((1, 2)), np.ones(1)),
        ),
    )
    with pytest.raises(DegenerateNetwork, match=FIRST_LAYER_COND):
        first_layer_vertices(net)


def test_zero_first_layer_row_is_degenerate():
    # row 3 is the zero map: every subsystem drawing on it is singular
    weights = random_init((3, 4, 1), 0).layers[0].weights.copy()
    weights[3] = 0.0
    net = ReluNetwork(
        (3, 4, 1), (AffineLayer(weights, np.ones(4)), AffineLayer(np.ones((1, 4)), np.ones(1)))
    )
    with pytest.raises(
        DegenerateNetwork, match=r"^first layer: subsystem \(0, 1, 3\) has condition estimate "
    ):
        first_layer_vertices(net)


def test_output_through_first_layer_vertex_is_degenerate():
    # relu(x) + relu(y) vanishes at the arrangement vertex (0,0)
    net = ReluNetwork(
        (2, 2, 1),
        (AffineLayer(np.eye(2), np.zeros(2)), AffineLayer(np.ones((1, 2)), np.zeros(1))),
    )
    with pytest.raises(DegenerateNetwork, match=r"^layer 2 at existing vertex \(0,0\): node map"):
        build_complex(net)


def test_concurrent_first_layer_lines_are_degenerate():
    # x = 0, y = 0 and x + y = 0 meet in one point
    net = ReluNetwork(
        (2, 3, 1),
        (
            AffineLayer(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.zeros(3)),
            AffineLayer(np.ones((1, 3)), np.ones(1)),
        ),
    )
    with pytest.raises(DegenerateNetwork, match=r"^first layer at \(0, 1\): node map"):
        first_layer_vertices(net)


def concurrent_bent_net():
    # both layer-2 units cross x=0 at (0,1): three curves through one point
    return ReluNetwork(
        (2, 2, 2, 1),
        (
            AffineLayer(np.eye(2), np.zeros(2)),
            AffineLayer(np.array([[1.0, 1.0], [2.0, -1.0]]), np.array([-1.0, 1.0])),
            AffineLayer(np.ones((1, 2)), np.array([0.3])),
        ),
    )


def test_concurrent_bent_hyperplanes_are_degenerate():
    net = concurrent_bent_net()
    with pytest.raises(DegenerateNetwork, match=r"^layer 2, region \(-1,1\): node map"):
        build_complex(net)


@pytest.mark.parametrize(
    "old_first,big,fault",
    [
        (True, [1e308, 1e308], "remaining node map not finite at a candidate vertex"),
        (True, [1e308, -1e308], "remaining node map not finite at a candidate vertex"),
        (False, [1e308, 1e308], "node map value inf is not finite"),
        (False, [1e308, -1e308], "node map value -?(inf|nan) is not finite"),
    ],
)
def test_non_finite_value_at_a_candidate_is_degenerate(old_first, big, fault):
    # a (2,2,2,1) net where a map with weights of size `big`, old or new, overflows
    # at a layer-2 candidate while the region's composed maps stay finite
    big = np.array(big)
    if old_first:
        # layer 1 is big / 10 and a row orthogonal to it, layer 2 its inverse: on
        # region (1,1) the new maps are x - 30 and y - 20, solved at (30, 20), where
        # the old maps' term 1e307 * 30 is beyond the float range
        w1 = np.array([big, big * [1, -1]]) / 10
        hidden = [(w1, [0.0, 0.0]), (w1.T / 1e307 / 2e307, [-30.0, -20.0])]
    else:
        # layer 2 is relu(y) - 2 and big . relu(x, y) + 1: the candidate solving the
        # old map x and the first new map is (0, 2), where the second is +-2e308
        hidden = [(np.eye(2), [0.0, 0.0]), (np.array([[0.0, 1.0], big]), [-2.0, 1.0])]
    layers = [AffineLayer(np.array(w), np.array(b)) for w, b in hidden]
    net = ReluNetwork((2, 2, 2, 1), (*layers, AffineLayer(np.ones((1, 2)), np.array([0.3]))))
    with pytest.raises(DegenerateNetwork, match=rf"^layer 2, region \([-1,]+\): {fault}$"):
        build_complex(net)


def test_narrow_first_layer_unsupported():
    with pytest.raises(ArchitectureUnsupported):
        build_complex(random_init((3, 2, 1), 0))
    with pytest.raises(ArchitectureUnsupported):
        first_layer_vertices(random_init((3, 2, 1), 0))
    with pytest.raises(ArchitectureUnsupported):
        first_layer_vertices(random_init((1, 3, 1), 0))


def test_extend_layer_contract_errors(hand_net):
    state = first_layer_vertices(hand_net)
    with pytest.raises(ValueError):
        extend_layer(hand_net, 3, state)


def unique_vertices(candidates):
    """`_unique_vertices`' columns over (coords, residual, condition) candidates of one key."""
    coords, residuals, conds = (np.array(column) for column in zip(*candidates))
    keys = np.full(len(candidates), key_of([0, 0, 1]))
    zero_sets = np.tile([0, 1], (len(candidates), 1))
    return _unique_vertices(keys, coords, zero_sets, residuals, conds, 3)


def test_duplicates_resolve_independent_of_order():
    # B and C are each within 1e-6 of A but 1.8e-6 apart: every candidate is
    # compared with the chosen vertex A, never with another candidate
    a = ([0.0, 0.0], 1e-13, 2.0)
    b = ([0.9e-6, 0.0], 1e-12, 5.0)
    c = ([-0.9e-6, 0.0], 1e-12, 5.0)
    for order in itertools.permutations((a, b, c)):
        keys, coords, zero_sets, residuals = unique_vertices(order)
        assert keys == [key_of([0, 0, 1])] and zero_sets.tolist() == [[0, 1]]
        assert coords.tolist() == [a[0]] and residuals.tolist() == [a[1]]
    far = ([2e-6, 0.0], 1e-12, 5.0)
    for order in ((a, far), (far, a)):
        with pytest.raises(DuplicateMismatch, match=r"^sign sequence \(0,0,1\) held by two"):
            unique_vertices(order)


# ---------------------------------------------------------------------------
# candidate blocks: the split into blocks changes nothing

# candidates per block; None is the default, the model's batch rule
BLOCK_SIZES = (1, 3, 128, None)
DEFAULT_BLOCK_SIZE = relucx.builder.batch_points


def use_block(monkeypatch, block):
    """Solve `block` candidates at a time, or as many as the default allows for None."""
    size = DEFAULT_BLOCK_SIZE if block is None else (lambda net: block)
    monkeypatch.setattr(relucx.builder, "batch_points", size)


def state_fingerprint(state):
    """Everything a layer state holds, in row and dict order, down to the bits."""
    columns = (state.coords, state.zero_sets, state.residuals)
    incidence = list(incidence_lists(state.incidence).items())
    return state.vertices, [c.tobytes() for c in columns], incidence


def layer_fingerprints(net):
    state = first_layer_vertices(net)
    prints = [state_fingerprint(state)]
    for k in range(2, net.depth + 2):
        state = extend_layer(net, k, state)
        prints.append(state_fingerprint(state))
    return prints


def degenerate_outcome(build):
    with pytest.raises(DegenerateNetwork) as exc:
        build()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("arch", [(2, 6, 6, 6, 1), (3, 6, 6, 1), (4, 6, 1)])
def test_block_size_independence(monkeypatch, arch):
    net = random_init(arch, 0)
    outcomes = []
    for block in BLOCK_SIZES:
        use_block(monkeypatch, block)
        outcomes.append(layer_fingerprints(net))
    assert all(outcome == outcomes[0] for outcome in outcomes)


def parallel_late_rows_net():
    # row 19 is twice row 14: subset (14, 19), in the second block of 128, is singular
    net = random_init((2, 20, 1), 0)
    net.layers[0].weights[19] = 2 * net.layers[0].weights[14]
    return net


@pytest.mark.parametrize(
    "make_net,message",
    [
        (concurrent_bent_net, r"^layer 2, region \(-1,1\): node map value"),
        (parallel_late_rows_net, r"^first layer: subsystem \(14, 19\) has condition estimate "),
    ],
)
def test_raise_is_block_size_independent(monkeypatch, make_net, message):
    net = make_net()
    outcomes = []
    for block in BLOCK_SIZES:
        use_block(monkeypatch, block)
        outcomes.append(degenerate_outcome(lambda: build_complex(net)))
    assert outcomes[0][0] is DegenerateNetwork
    assert re.match(message, outcomes[0][1])
    assert all(outcome == outcomes[0] for outcome in outcomes)


def test_ill_conditioned_accepted_system_raises(monkeypatch):
    # cond_max between the largest first-layer condition and the largest of
    # layer 2: the first layer passes and extend_layer refuses a layer-2 vertex
    net = random_init((2, 6, 6, 1), 0)
    state = first_layer_vertices(net)
    first = max(v.cond for v in reference_first_layer_vertices(net).values())
    second = max(v.cond for v in reference_new_vertices(net, 2, state).values())
    assert first < second
    monkeypatch.setattr(relucx.builder, "_COND_MAX", (first * second) ** 0.5)
    state = first_layer_vertices(net)
    outcomes = []
    for block in BLOCK_SIZES:
        use_block(monkeypatch, block)
        outcomes.append(degenerate_outcome(lambda: extend_layer(net, 2, state)))
    message = r"^layer 2, region \([-1,]+\): accepted system has condition estimate "
    assert re.match(message, outcomes[0][1])
    assert all(outcome == outcomes[0] for outcome in outcomes)
    with pytest.raises(DegenerateNetwork, match="accepted system ill-conditioned"):
        reference_new_vertices(net, 2, state)


@pytest.mark.parametrize("budget", [1000, 1 << 16, relucx.model.BATCH_BYTES])
def test_no_solve_exceeds_one_block(monkeypatch, budget):
    # every block's node-map values, 8 bytes for each of the N maps per candidate,
    # fit the budget, or the block is at most two candidates, and a layer with
    # candidates to spare fills its blocks
    block_vertices, solve = relucx.builder._block_vertices, np.linalg.solve
    blocks, batches = [], []

    def block_spy(net, normals, offsets, region_signs, ids, *args):
        blocks.append((len(ids), 8 * net.num_node_maps))
        return block_vertices(net, normals, offsets, region_signs, ids, *args)

    def solve_spy(a, b):
        batches.append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
        return solve(a, b)

    monkeypatch.setattr(relucx.builder, "_block_vertices", block_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    monkeypatch.setattr(relucx.model, "BATCH_BYTES", budget)
    for arch in ((2, 8, 8, 1), (3, 6, 6, 1), (2, 20, 1)):
        build_complex(random_init(arch, 0))
    assert all(count <= 2 or count * nbytes <= budget for count, nbytes in blocks)
    assert any(count == max(2, budget // nbytes) for count, nbytes in blocks)
    assert max(batches) <= max(count for count, _ in blocks)


@pytest.mark.parametrize("arch,systems", [((2, 8, 8, 1), 890), ((3, 6, 6, 1), 4035)])
def test_solved_systems_are_pinned(monkeypatch, arch, systems):
    # the systems np.linalg.solve sees in a build, which factorises no block
    # twice; before the face screen they were 2508 and 9678
    solve = np.linalg.solve
    batches = []

    def spy(a, b):
        batches.append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    build_complex(random_init(arch, 0))
    assert sum(batches) == systems
