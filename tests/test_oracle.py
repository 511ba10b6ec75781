"""Grid-sampling soundness and vertex perturbation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucx import SampleGrid, build_complex, random_init, sample_region_signs
from relucx import model, oracle
from relucx.model import node_map_value_matrix
from relucx.signs import unpack
from conftest import key_of


def grid_points(grid):
    """Every point of the grid, rows in row-major order of the axes (last axis fastest)."""
    axes = [np.linspace(lo, hi, grid.resolution) for lo, hi in zip(grid.lower, grid.upper)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def reference_sample_region_signs(net, grid, exclusion_tol=1e-6):
    """The whole-grid sampler: every point at once, row-wise np.unique of int8 signs."""
    vals = node_map_value_matrix(net, grid_points(grid))
    keep = np.all((np.abs(vals) >= exclusion_tol) & np.isfinite(vals), axis=1)
    signs = np.where(vals[keep] > 0, 1, -1).astype(np.int8)
    unique = np.unique(signs, axis=0) if signs.size else signs
    return {key_of(row.tolist()) for row in unique}


def test_sample_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid((0.0,), (1.0, 2.0), 10)
    with pytest.raises(ValueError):
        SampleGrid((0.0, 0.0), (1.0, 1.0), 1)
    with pytest.raises(ValueError):
        SampleGrid((0.0, 2.0), (1.0, 1.0), 10)
    with pytest.raises(ValueError):
        SampleGrid.square(-1e308, 1e308, 2, 50)  # extent overflows to inf
    with pytest.raises(ValueError):
        SampleGrid((0.0, 0.0), (1.0, float("inf")), 10)


def test_sample_grid_rejects_more_points_than_an_index_reaches():
    largest = int(np.iinfo(np.intp).max)
    SampleGrid.square(0.0, 1.0, 1, largest)  # the largest index itself: accepted, nothing made
    for n0, resolution in ((1, largest + 1), (2, 2**32), (8, 400)):
        with pytest.raises(ValueError, match=rf"^grid of {resolution}\^{n0} points exceeds"):
            SampleGrid.square(0.0, 1.0, n0, resolution)


def test_hand_example_sampled_regions(hand_net):
    grid = SampleGrid.square(-3.0, 3.0, 2, 200)
    sampled = sample_region_signs(hand_net, grid)
    expect = {
        key_of([1, 1, 1]),
        key_of([1, 1, -1]),
        key_of([1, -1, 1]),
        key_of([1, -1, -1]),
        key_of([-1, 1, 1]),
        key_of([-1, 1, -1]),
        key_of([-1, -1, -1]),  # relu(x)+relu(y) = 0 < 1 on the whole third quadrant
    }
    assert sampled == expect


def test_sampled_regions_dimension_check(hand_net):
    with pytest.raises(ValueError):
        sample_region_signs(hand_net, SampleGrid.square(-1.0, 1.0, 3, 5))


@pytest.mark.parametrize("arch,seed", [((2, 5, 1), 8), ((2, 5, 5, 1), 14), ((3, 4, 1), 5)])
def test_sampling_is_subset_of_built_regions(arch, seed):
    net = random_init(arch, seed)
    state = build_complex(net)
    sampled = sample_region_signs(net, SampleGrid.square(-15.0, 15.0, arch[0], 60))
    assert sampled <= state.regions


@pytest.mark.parametrize(
    "arch,seed,box,resolution",
    [
        ((2, 5, 1), 1000, 20.0, 300),  # criterion 3 architectures and box
        ((2, 5, 5, 1), 2000, 20.0, 300),
        ((3, 4, 4, 1), 7, 15.0, 48),
        ((2, 40, 30, 1), 0, 15.0, 260),  # 71 node maps: keys beyond int64
        ((2, 8, 8, 1), 0, 7.5e307, 64),  # node values overflow to +-inf and NaN
    ],
)
def test_streamed_sampling_matches_reference(arch, seed, box, resolution):
    net = random_init(arch, seed)
    grid = SampleGrid.square(-box, box, arch[0], resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        if box > 1e300:
            vals = node_map_value_matrix(net, grid_points(grid))
            assert np.isinf(vals).sum() > 1000 and np.isnan(vals).any()
        sampled = sample_region_signs(net, grid)
        assert sampled and sampled == reference_sample_region_signs(net, grid)


def test_sampling_memory_does_not_grow_with_resolution():
    net = random_init((3, 4, 4, 1), 0)
    # 4.1 M points: the points and value matrix of the whole grid alone are
    # ~390 MB, one chunk's are a few MB
    grid = SampleGrid.square(-15.0, 15.0, 3, 160)
    tracemalloc.start()
    try:
        sample_region_signs(net, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("chunk_points", [2, 101, None], ids=["two-point", "prime", "whole-grid"])
@pytest.mark.parametrize(
    "arch,seed,box,resolution",
    [
        (None, None, 8.0, 33),  # hand_net: step 0.5, so many points lie exactly on its lines
        ((2, 40, 30, 1), 0, 15.0, 40),  # 71 node maps: keys beyond int64
        ((2, 8, 8, 1), 0, 7.5e307, 64),  # node values overflow to +-inf and NaN
    ],
    ids=["hand", "wide-keys", "overflow"],
)
def test_sampling_does_not_depend_on_chunk_size(
    monkeypatch, hand_net, chunk_points, arch, seed, box, resolution
):
    net = hand_net if arch is None else random_init(arch, seed)
    grid = SampleGrid.square(-box, box, net.n0, resolution)
    points = grid_points(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = node_map_value_matrix(net, points)
    if arch is None:  # excluded points lie inside runs, at their ends and fill a whole run
        on_line = np.flatnonzero((whole == 0).any(axis=1))
        assert len(on_line) > 50 and (np.diff(on_line) == 1).any()
        assert {0, resolution // 2, resolution - 1} <= set((on_line % resolution).tolist())

    # Each requested point's values are read from the one whole-grid evaluation:
    # matmul rounds a row differently by the number of rows it is given, so a
    # value near the float maximum can overflow in a one-row call and not in
    # the whole grid's.  This test is about the batching, not about that rounding.
    budget = chunk_points or len(points)
    axis = np.linspace(-box, box, resolution)
    requested = []

    def grid_values(net_, batch):
        assert net_ is net and 0 < len(batch) <= budget
        index = np.minimum(np.searchsorted(axis, batch), resolution - 1)
        assert np.array_equal(axis[index], batch)  # every requested point is a grid point
        requested.append(np.ravel_multi_index(tuple(index.T), (resolution,) * net.n0))
        return whole[requested[-1]]

    monkeypatch.setattr(oracle, "node_map_value_matrix", grid_values)
    monkeypatch.setattr(model, "BATCH_BYTES", 8 * net.num_node_maps * budget)
    sampled = sample_region_signs(net, grid)
    requested = np.concatenate(requested)
    assert len(np.unique(requested)) == len(requested)  # no point is evaluated twice
    with np.errstate(over="ignore", invalid="ignore"):
        assert sampled and sampled == reference_sample_region_signs(net, grid)


def test_hand_example_bisection_evaluates_few_points(monkeypatch, hand_net):
    grid = SampleGrid.square(-3.0, 3.0, 2, 200)
    evaluated = []

    def spy(net, points):
        evaluated.append(len(points))
        return node_map_value_matrix(net, points)

    monkeypatch.setattr(oracle, "node_map_value_matrix", spy)
    sampled = sample_region_signs(hand_net, grid)
    assert sum(evaluated) <= 0.1 * 200**2
    assert len(sampled) == 7 and sampled == reference_sample_region_signs(hand_net, grid)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["2,k,1", "2,k,k,1", "3,k,1"]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.integers(2, 24),
    st.floats(1.0, 30.0),
)
def test_bisection_matches_reference_on_random_nets(shape, k, seed, resolution, box):
    arch = tuple(k if part == "k" else int(part) for part in shape.split(","))
    net = random_init(arch, seed)
    grid = SampleGrid.square(-box, box, arch[0], resolution)
    assert sample_region_signs(net, grid) == reference_sample_region_signs(net, grid)


def test_sampling_memory_does_not_grow_with_node_maps():
    net = random_init((2, 60, 60, 1), 0)  # 121 node maps
    grid = SampleGrid.square(-20.0, 20.0, 2, 256)
    tracemalloc.start()
    try:
        sample_region_signs(net, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the grid's value matrix is 63 MB; one call's values are model.BATCH_BYTES
    assert peak < 4e6


def perturb_check(net, key, coords, epsilon=1e-4, trials=64):
    """Probe a sphere of radius epsilon around a claimed vertex of a full build.

    The vertex is at `coords` with packed sign sequence `key`, as in row i
    of a built state: `state.coords[i]` and `state.vertices[i]`.

    Genuine vertices show both signs of every zero coordinate among the
    probes while every nonzero coordinate holds its sign.  Deterministic:
    the probe directions come from a generator seeded with 0.
    """
    u = np.random.default_rng(0).standard_normal((trials, net.n0))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = np.asarray(coords, dtype=float) + epsilon * u
    vals = node_map_value_matrix(net, pts)
    for i, s in enumerate(unpack([key], net.num_node_maps)[0].tolist()):
        col = vals[:, i]
        if s == 0:
            if not ((col > 0).any() and (col < 0).any()):
                return False
        else:
            if not np.all(np.sign(col) == s):
                return False
    return True


def test_perturb_check_accepts_built_vertices(hand_net):
    state = build_complex(hand_net)
    for key, coords in zip(state.vertices, state.coords):
        assert perturb_check(hand_net, key, coords, epsilon=0.05)
    net = random_init((2, 5, 1), 3)
    state = build_complex(net)
    for key, coords in zip(state.vertices, state.coords):
        assert perturb_check(net, key, coords, epsilon=1e-3)


def test_perturb_check_rejects_fakes(hand_net):
    state = build_complex(hand_net)
    key = key_of([0, 1, 0])
    coords = state.coords[state.vertices.index(key)]
    assert not perturb_check(hand_net, key, coords + np.array([0.3, 0.3]), epsilon=1e-3)
    # claiming a crossing where the map is locally constant-sign also fails
    assert not perturb_check(hand_net, key_of([0, 0, 0]), coords, epsilon=1e-3)


def test_perturb_check_deterministic(hand_net):
    state = build_complex(hand_net)
    key, coords = state.vertices[0], state.coords[0]
    a = perturb_check(hand_net, key, coords, epsilon=0.05, trials=16)
    b = perturb_check(hand_net, key, coords, epsilon=0.05, trials=16)
    assert a == b is True
