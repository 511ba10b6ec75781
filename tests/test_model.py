"""Network structure, node-map evaluation, region functionals, serialization."""

import tracemalloc

import numpy as np
import pytest

from relucx import (
    AffineLayer,
    extend_layer,
    first_layer_vertices,
    ModelFormatError,
    ReluNetwork,
    node_map_value_matrix,
    random_init,
    read_model,
    write_model,
)
from relucx.model import (
    network_from_dict,
    network_to_dict,
    region_affine_maps,
    stacked_region_affine_maps,
)
from relucx.signs import unpack


def node_map_values(net, x):
    """Values of all node maps at one input point."""
    return node_map_value_matrix(net, [x])[0]


def forward_oracle(net, x):
    """Pure-python forward pass collecting every pre-activation plus the output."""
    h = list(map(float, x))
    out = []
    for t, layer in enumerate(net.layers):
        z = [
            sum(float(w) * v for w, v in zip(row, h)) + float(b)
            for row, b in zip(layer.weights, layer.bias)
        ]
        out.extend(z)
        h = [max(v, 0.0) for v in z]
    return out


# ---------------------------------------------------------------------------
# architecture bookkeeping


def test_network_properties(hand_net):
    assert hand_net.n0 == 2
    assert hand_net.depth == 1
    assert hand_net.num_node_maps == 3
    assert hand_net.layer_offset(1) == 0
    assert hand_net.layer_offset(2) == 2


# ---------------------------------------------------------------------------
# node-map evaluation


def test_hand_net_values(hand_net):
    assert np.allclose(node_map_values(hand_net, [0.0, 0.0]), [0.0, 0.0, -1.0])
    assert np.allclose(node_map_values(hand_net, [2.0, 2.0]), [2.0, 2.0, 3.0])
    assert np.allclose(node_map_values(hand_net, [-1.0, -1.0]), [-1.0, -1.0, -1.0])
    # relu clips the negative coordinate before the output map
    assert np.allclose(node_map_values(hand_net, [2.0, -5.0]), [2.0, -5.0, 1.0])


def test_values_match_forward_oracle():
    rng = np.random.default_rng(3)
    for arch in ((2, 5, 1), (3, 4, 6, 1), (2, 3, 3, 3, 1)):
        net = random_init(arch, 11)
        pts = rng.standard_normal((40, arch[0])) * 4
        vals = node_map_value_matrix(net, pts)
        assert vals.shape == (40, net.num_node_maps)
        for row, x in zip(vals, pts):
            assert np.allclose(row, forward_oracle(net, x), rtol=0, atol=1e-12)


def test_value_matrix_holds_one_layer_of_activations():
    net = random_init((2, 60, 60, 1), 0)  # 121 node maps, hidden layers of 60
    pts = np.random.default_rng(0).uniform(-20.0, 20.0, (4096, 2))
    tracemalloc.start()
    try:
        vals = node_map_value_matrix(net, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (P, N) result plus one hidden layer's activations, 60/121 of it;
    # per-layer arrays and their concatenation hold twice the result
    assert vals.shape == (4096, 121) and peak < 1.5 * vals.nbytes


def test_layer_one_values_exact():
    for seed in range(10):
        net = random_init((3, 7, 4, 1), seed)
        x = np.random.default_rng(seed + 999).standard_normal(3) * 5
        vals = node_map_values(net, x)
        assert np.array_equal(vals[:7], net.layers[0].weights @ x + net.layers[0].bias)


def test_dimension_mismatch_rejected(hand_net):
    with pytest.raises(ValueError):
        node_map_values(hand_net, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# per-region affine functionals


def test_hand_net_region_functionals(hand_net):
    # second unit masked off: output restricts to x - 1
    normals, offsets = region_affine_maps(hand_net, [1, -1], 2)
    assert normals.shape == (3, 2) and offsets.shape == (3,)
    assert np.allclose(normals[2], [1.0, 0.0])
    assert offsets[2] == pytest.approx(-1.0)
    # first-layer functionals are the raw rows regardless of region
    assert np.allclose(normals[0], [1.0, 0.0]) and offsets[0] == 0.0
    assert np.allclose(normals[1], [0.0, 1.0]) and offsets[1] == 0.0


def test_all_positive_region_is_plain_composition():
    net = random_init((3, 4, 4, 1), 2)
    normals, offsets = region_affine_maps(net, [1] * 8, 3)
    w1, b1 = net.layers[0].weights, net.layers[0].bias
    w2, b2 = net.layers[1].weights, net.layers[1].bias
    w3, b3 = net.layers[2].weights, net.layers[2].bias
    mat = w3 @ w2 @ w1
    off = w3 @ (w2 @ b1 + b2) + b3
    assert np.allclose(normals[-1], mat[0])
    assert offsets[-1] == pytest.approx(off[0])


def test_region_functionals_match_values_inside_region():
    net = random_init((2, 5, 1), 17)
    rng = np.random.default_rng(40)
    pts = rng.standard_normal((400, 2)) * 5
    vals = node_map_value_matrix(net, pts)
    checked = 0
    for x, row in zip(pts, vals):
        if np.any(np.abs(row) < 1e-6):
            continue
        prefix = [1 if v > 0 else -1 for v in row[:5]]
        normals, offsets = region_affine_maps(net, prefix, 2)
        got = normals @ x + offsets
        assert np.allclose(got, row, rtol=1e-9, atol=1e-12)
        checked += 1
        if checked >= 100:
            break
    assert checked >= 100


def reference_region_affine_maps(net, region_signs, upto_layer):
    """The maps of one region, composed layer by layer on their own."""
    active = np.asarray(region_signs) > 0
    mat = net.layers[0].weights.astype(float)
    off = net.layers[0].bias.astype(float)
    normals, offsets = [mat], [off]
    pos = 0
    for layer_no in range(1, upto_layer):
        width = net.architecture[layer_no]
        mask = active[pos : pos + width].astype(float)
        pos += width
        nxt = net.layers[layer_no]
        mat = nxt.weights @ (mask[:, None] * mat)
        off = nxt.weights @ (mask * off) + nxt.bias
        normals.append(mat)
        offsets.append(off)
    return np.concatenate(normals), np.concatenate(offsets)


@pytest.mark.parametrize("arch", [(2, 6, 6, 6, 1), (3, 6, 6, 1), (4, 6, 1)])
def test_stacked_maps_match_per_region_reference(arch):
    # every region of every layer, the output map's layer k = depth + 1 included
    net = random_init(arch, 0)
    normals, offsets = stacked_region_affine_maps(net, np.zeros((1, 0), dtype=bool), 1)
    ref = reference_region_affine_maps(net, [], 1)
    assert np.array_equal(normals[0], ref[0]) and np.array_equal(offsets[0], ref[1])
    state = first_layer_vertices(net)
    for k in range(2, net.depth + 2):
        regions = unpack(sorted(state.regions), state.covered)
        active = regions > 0
        normals, offsets = stacked_region_affine_maps(net, active, k)
        assert normals.shape == (len(regions), net.layer_offset(k + 1), net.n0)
        for r, region in enumerate(regions):
            ref_normals, ref_offsets = reference_region_affine_maps(net, region, k)
            assert np.array_equal(normals[r], ref_normals)
            assert np.array_equal(offsets[r], ref_offsets)
            one_normals, one_offsets = region_affine_maps(net, region, k)
            assert np.array_equal(one_normals, ref_normals)
            assert np.array_equal(one_offsets, ref_offsets)
        state = extend_layer(net, k, state)


def test_region_functionals_validate_prefix(hand_net):
    with pytest.raises(ValueError):
        region_affine_maps(hand_net, [1, 0], 2)
    with pytest.raises(ValueError):
        region_affine_maps(hand_net, [1], 2)
    with pytest.raises(ValueError):
        region_affine_maps(hand_net, [1, 1], 3)


# ---------------------------------------------------------------------------
# random initialization


def test_random_init_deterministic():
    a = random_init((2, 5, 1), 0)
    b = random_init((2, 5, 1), 0)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    c = random_init((2, 5, 1), 1)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_random_init_shapes():
    net = random_init((3, 15, 8, 1), 5)
    assert net.layers[0].weights.shape == (15, 3)
    assert net.layers[1].weights.shape == (8, 15)
    assert net.layers[2].weights.shape == (1, 8)
    assert net.layers[2].bias.shape == (1,)


def test_random_init_standard_normal_moments():
    # 10^4 weight draws in one layer behave like iid N(0,1)
    w = random_init((100, 100, 1), 0).layers[0].weights.ravel()
    assert abs(float(np.mean(w))) < 0.05
    assert abs(float(np.var(w)) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# serialization


def test_model_json_round_trip(tmp_path):
    net = random_init((2, 5, 5, 1), 23)
    path = tmp_path / "model.json"
    write_model(net, str(path))
    back = read_model(str(path))
    assert back.architecture == net.architecture
    for la, lb in zip(net.layers, back.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_read_model_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ModelFormatError):
        read_model(str(bad))
    with pytest.raises(OSError):
        read_model(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.pop("architecture"), "architecture"),
        (lambda d: d.pop("layers"), "layers"),
        (lambda d: d.__setitem__("architecture", [2, 5]), "architecture"),
        (lambda d: d.__setitem__("architecture", [2, 5, 2]), "architecture"),
        (lambda d: d.__setitem__("architecture", [2, 0, 1]), "architecture[1]"),
        (lambda d: d["layers"].pop(), "layers"),
        (lambda d: d["layers"][0].pop("bias"), "layers[0]"),
        (lambda d: d["layers"][0]["weights"].pop(), "layers[0].weights"),
        (lambda d: d["layers"][0]["weights"][0].pop(), "layers[0].weights row 0"),
        (lambda d: d["layers"][1]["bias"].append(0.0), "layers[1].bias"),
        (
            lambda d: d["layers"][0]["bias"].__setitem__(0, float("nan")),
            "layers[0]",
        ),
    ],
)
def test_malformed_model_names_field(mutate, needle):
    data = network_to_dict(random_init((2, 5, 1), 1))
    mutate(data)
    with pytest.raises(ModelFormatError) as err:
        network_from_dict(data)
    assert needle in str(err.value)


def test_network_shape_validation():
    with pytest.raises(ModelFormatError):
        ReluNetwork((2, 1), ())
    with pytest.raises(ModelFormatError):
        ReluNetwork((2, 2, 2), (AffineLayer(np.eye(2), np.zeros(2)),) * 2)
    with pytest.raises(ModelFormatError):
        ReluNetwork(
            (2, 2, 1),
            (
                AffineLayer(np.eye(3), np.zeros(3)),
                AffineLayer(np.ones((1, 2)), np.zeros(1)),
            ),
        )
