"""Vertex enumeration: frozen hand values, brute-force oracles, invariants."""

import itertools
import json
import re

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
    Vertex,
    build_complex,
    cube_closure,
    extend_layer,
    first_layer_vertices,
    product,
    random_init,
    region_affine_maps,
    write_model,
)
import relucx.builder
import relucx.topology
from relucx.builder import _region_incidence, _unique_vertices
from relucx.cli import _analyze, main
from relucx.signs import n_zeros, unpack
from conftest import entries_of, key_of, zero_positions
from test_signs import reference_cube_completions, sparse_zero_sequences


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
    assert set(state.vertices) == set(expect)
    for signs, (coords, zero_set) in expect.items():
        v = state.vertices[signs]
        assert np.allclose(v.coords, coords, atol=1e-12)
        assert tuple(sorted(v.zero_set)) == zero_set


def test_hand_example_closure_counts(hand_net):
    state = build_complex(hand_net)
    closure = cube_closure(state.vertices, state.covered)
    assert len(closure[2]) == 3  # vertices
    assert len(closure[1]) == 9  # edges
    assert len(closure[0]) == 7  # regions
    assert state.regions == closure[0]


# ---------------------------------------------------------------------------
# first layer as a plain hyperplane arrangement


def test_identity_arrangement():
    net = ReluNetwork(
        (2, 2, 1),
        (AffineLayer(np.eye(2), np.zeros(2)), AffineLayer(np.ones((1, 2)), np.ones(1))),
    )
    state = first_layer_vertices(net)
    assert list(state.vertices) == [key_of([0, 0])]
    v = state.vertices[key_of([0, 0])]
    assert np.allclose(v.coords, [0.0, 0.0], atol=1e-12)
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
    got = sorted((float(v.coords[0]), float(v.coords[1])) for v in first_layer_vertices(net).vertices.values())
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
    assert set(state.vertices) == set(oracle)
    for signs, x in oracle.items():
        assert np.allclose(state.vertices[signs].coords, x, atol=1e-8)


# ---------------------------------------------------------------------------
# structural invariants of built states


@pytest.mark.parametrize("arch,seed", [((2, 5, 1), 1), ((2, 4, 4, 1), 9), ((3, 5, 1), 2)])
def test_vertex_invariants(arch, seed):
    net = random_init(arch, seed)
    state = build_complex(net)
    assert state.covered == net.num_node_maps
    for key, v in state.vertices.items():
        assert len(v.zero_set) == net.n0
        assert zero_positions(key, state.covered) == tuple(sorted(v.zero_set))
        assert v.max_residual <= relucx.builder._RESIDUAL_TOL
        assert np.isfinite(v.solve_condition)
    coords = np.array([v.coords for v in state.vertices.values()])
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
        assert state.regions == cube_closure(state.vertices, n)[0]
        for region, members in state.incidence.items():
            assert members == [
                v for key, v in state.vertices.items() if product(key, region) == region
            ]
    closure = cube_closure(state.vertices, n)
    for zeros, grade in closure.items():
        for cell in grade:
            assert n_zeros(cell, n) == zeros
            assert any(product(v, cell) == cell for v in state.vertices)


def reference_region_incidence(vertices, n):
    """The incidence over `reference_cube_completions` of the n-entry vertex keys."""
    incidence = {}
    for key, vert in vertices.items():
        for region in reference_cube_completions(key, n, values=(-1, 1)):
            incidence.setdefault(region, []).append(vert)
    return incidence


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(sparse_zero_sequences(n), min_size=0, max_size=8, unique=True)
    )
))
def test_region_incidence_matches_reference(case):
    n, seqs = case
    # any value stands in for a vertex: only identity and order are compared
    vertices = {key: object() for key, _ in seqs}
    got = _region_incidence(vertices, n)
    want = reference_region_incidence(vertices, n)
    assert list(got) == list(want)  # same regions, same order
    assert all(got[r] == want[r] for r in want)  # same vertices, same order


@pytest.mark.parametrize("arch,seed", [((2, 6, 6, 6, 1), 0), ((4, 6, 1), 1), ((5, 8, 1), 1)])
def test_region_incidence_matches_reference_on_builds(arch, seed):
    net = random_init(arch, seed)
    states = [first_layer_vertices(net)]
    for k in range(2, net.depth + 2):
        states.append(extend_layer(net, k, states[-1]))
    for state in states:
        want = reference_region_incidence(state.vertices, state.covered)
        assert list(state.incidence) == list(want)
        assert all(state.incidence[r] == want[r] for r in want)


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

    def vertex_table(state):
        return {
            s: (v.coords.tobytes(), v.zero_set, v.max_residual, v.solve_condition)
            for s, v in state.vertices.items()
        }

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
        assert vertex_table(other) == vertex_table(ref)
        assert other.regions == ref.regions
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
    assert (unpack(list(state.vertices), state.covered)[:, flat] == 1).all()


# ---------------------------------------------------------------------------
# batched vertex search against a per-candidate reference


def reference_strict_sign(value, context):
    if abs(value) < relucx.builder._DEGENERACY_TOL:
        raise DegenerateNetwork(
            f"{context}: node map value {value:.3e} within degeneracy tolerance of 0"
        )
    return 1 if value > 0 else -1


def reference_merge(candidates, n):
    """The least (residual, condition, coords) vertex of each key's candidates.

    Every candidate must lie within 1e-6 of it, scaled by 1 + the larger norm.
    """
    table = {}
    for key, verts in candidates.items():
        best = min(verts, key=lambda v: (v.max_residual, v.solve_condition, tuple(v.coords)))
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
    incidence = _region_incidence(state.vertices, base)
    found = {}
    subset_sizes = [n0 - ell for ell in range(1, min(n0, n_k) + 1)]
    for region in sorted(state.regions):
        region_entries = entries_of(region, base)
        normals, offsets = region_affine_maps(net, region_entries, k)
        old_normals, new_normals = normals[:base], normals[base:]
        old_offsets, new_offsets = offsets[:base], offsets[base:]
        sign_arr = np.array(region_entries, dtype=float)
        olds_by_size = {s: set() for s in subset_sizes}
        for vert in incidence[region]:
            for s in subset_sizes:
                olds_by_size[s].update(itertools.combinations(vert.zero_set, s))
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
                    vert = Vertex(x, zero_set, residual, cond)
                    found.setdefault(key_of(entries), []).append(vert)
    return reference_merge(found, base + n_k)


def assert_layers_match_reference(net):
    state = first_layer_vertices(net)
    for k in range(2, net.depth + 2):
        nxt = extend_layer(net, k, state)
        base = net.layer_offset(k)
        got = {s: v for s, v in nxt.vertices.items() if v.zero_set[-1] >= base}
        ref = reference_new_vertices(net, k, state)
        assert got.keys() == ref.keys()
        for signs, v in ref.items():
            w = got[signs]
            assert np.array_equal(w.coords, v.coords)
            assert w.zero_set == v.zero_set
            assert w.max_residual == v.max_residual
            assert w.solve_condition == v.solve_condition
        state = nxt


@pytest.mark.parametrize(
    "arch,seed",
    [(arch, seed) for arch in ((2, 8, 8, 1), (2, 6, 6, 6, 1), (3, 6, 6, 1)) for seed in (0, 1, 2)]
    + [((4, 6, 1), seed) for seed in (0, 1)],
)
def test_batched_search_matches_reference(arch, seed):
    assert_layers_match_reference(random_init(arch, seed))


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
        vertices[key_of(entries)] = Vertex(x, alpha, residual, cond)
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


@pytest.mark.parametrize("case", FIRST_LAYER_TOLERANCES, ids=["default", "cond", "residual", "near"])
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
        got = first_layer_vertices(net).vertices
        assert list(got) == list(want)
        for key, v in want.items():
            g = got[key]
            assert g.coords.tobytes() == v.coords.tobytes() and g.zero_set == v.zero_set
            assert (g.max_residual, g.solve_condition) == (v.max_residual, v.solve_condition)


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
    solve = np.linalg.solve
    singular_batches = []

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            if np.ndim(a) == 3:
                singular_batches.append(len(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    assert_layers_match_reference(net)
    assert singular_batches


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


def test_duplicate_hyperplane_is_degenerate():
    net = ReluNetwork(
        (2, 3, 1),
        (
            AffineLayer(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(3)),
            AffineLayer(np.ones((1, 3)), np.ones(1)),
        ),
    )
    with pytest.raises(DegenerateNetwork):
        first_layer_vertices(net)


def test_near_parallel_hyperplanes_exceed_cond_max():
    net = ReluNetwork(
        (2, 2, 1),
        (
            AffineLayer(np.array([[1.0, 0.0], [1.0, 1e-14]]), np.array([0.0, 1.0])),
            AffineLayer(np.ones((1, 2)), np.ones(1)),
        ),
    )
    with pytest.raises(DegenerateNetwork):
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
    """`_unique_vertices` over (coords, residual, condition) candidates of one key."""
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
        (vert,) = unique_vertices(order).values()
        assert vert.coords.tolist() == a[0]
        assert (vert.max_residual, vert.solve_condition) == a[1:]
    far = ([2e-6, 0.0], 1e-12, 5.0)
    for order in ((a, far), (far, a)):
        with pytest.raises(DuplicateMismatch, match=r"^sign sequence \(0,0,1\) held by two"):
            unique_vertices(order)


# ---------------------------------------------------------------------------
# fixed candidate blocks: the split into blocks changes nothing

DEFAULT_BLOCK = relucx.builder.BLOCK_CANDIDATES
BLOCK_SIZES = (1, 3, DEFAULT_BLOCK)


def state_fingerprint(state):
    """Everything a layer state holds, in dict and list order, down to the bits."""
    vertices = [
        (s, v.coords.tobytes(), v.zero_set, v.max_residual, v.solve_condition)
        for s, v in state.vertices.items()
    ]
    keys = {id(v): s for s, v in state.vertices.items()}
    incidence = [(r, [keys[id(v)] for v in vs]) for r, vs in state.incidence.items()]
    return vertices, incidence


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
        monkeypatch.setattr(relucx.builder, "BLOCK_CANDIDATES", block)
        outcomes.append(layer_fingerprints(net))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


@pytest.mark.parametrize(
    "make_net,message",
    [
        (concurrent_bent_net, r"^layer 2, region \(-1,1\): node map value"),
    ],
)
def test_raise_is_block_size_independent(monkeypatch, make_net, message):
    net = make_net()
    outcomes = []
    for block in BLOCK_SIZES:
        monkeypatch.setattr(relucx.builder, "BLOCK_CANDIDATES", block)
        outcomes.append(degenerate_outcome(lambda: build_complex(net)))
    assert outcomes[0][0] is DegenerateNetwork
    assert re.match(message, outcomes[0][1])
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_ill_conditioned_accepted_system_raises(monkeypatch):
    # cond_max between the largest first-layer condition and the largest of
    # layer 2: the first layer passes and extend_layer refuses a layer-2 vertex
    net = random_init((2, 6, 6, 1), 0)
    state = first_layer_vertices(net)
    first = max(v.solve_condition for v in state.vertices.values())
    second = max(v.solve_condition for v in extend_layer(net, 2, state).vertices.values())
    assert first < second
    monkeypatch.setattr(relucx.builder, "_COND_MAX", (first * second) ** 0.5)
    state = first_layer_vertices(net)
    outcomes = []
    for block in BLOCK_SIZES:
        monkeypatch.setattr(relucx.builder, "BLOCK_CANDIDATES", block)
        outcomes.append(degenerate_outcome(lambda: extend_layer(net, 2, state)))
    message = r"^layer 2, region \([-1,]+\): accepted system has condition estimate "
    assert re.match(message, outcomes[0][1])
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    with pytest.raises(DegenerateNetwork, match="accepted system ill-conditioned"):
        reference_new_vertices(net, 2, state)


@pytest.mark.parametrize("block", [3, DEFAULT_BLOCK])
def test_no_solve_exceeds_one_block(monkeypatch, block):
    solve = np.linalg.solve
    batches = []

    def spy(a, b):
        batches.append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    monkeypatch.setattr(relucx.builder, "BLOCK_CANDIDATES", block)
    for arch in ((2, 8, 8, 1), (3, 6, 6, 1)):
        build_complex(random_init(arch, 0))
    assert max(batches) == block
