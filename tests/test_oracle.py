"""Grid-sampling soundness, arrangement combinatorics, vertex perturbation."""

import tracemalloc

import numpy as np
import pytest

from relucx import (
    SampleGrid,
    Vertex,
    arrangement_counts,
    build_complex,
    perturb_check,
    random_init,
    sample_region_signs,
)
from relucx.model import node_map_value_matrix
from relucx.oracle import CHUNK_POINTS
from conftest import key_of


def reference_sample_region_signs(net, grid, exclusion_tol=1e-6):
    """The whole-grid sampler: every point at once, row-wise np.unique of int8 signs."""
    axes = [np.linspace(lo, hi, grid.resolution) for lo, hi in zip(grid.lower, grid.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = node_map_value_matrix(net, np.stack([m.ravel() for m in mesh], axis=1))
    keep = np.all(np.abs(vals) >= exclusion_tol, axis=1)
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


def test_sample_grid_chunks():
    grid = SampleGrid.square(-1.0, 1.0, 2, 3)
    pts = np.concatenate(list(grid.chunks()))
    mesh = np.meshgrid(*[np.linspace(-1.0, 1.0, 3)] * 2, indexing="ij")
    assert np.array_equal(pts, np.stack([m.ravel() for m in mesh], axis=1))
    assert [tuple(p) for p in pts[:3]] == [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0)]

    grid = SampleGrid((-2.0, 0.5), (3.0, 4.0), 300)
    chunks = list(grid.chunks())
    assert len(chunks) == 2 and len(chunks[0]) == CHUNK_POINTS
    assert sum(len(c) for c in chunks) == 300**2
    assert tuple(chunks[0][0]) == (-2.0, 0.5) and tuple(chunks[-1][-1]) == (3.0, 4.0)


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
            vals = node_map_value_matrix(net, np.concatenate(list(grid.chunks())))
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


def test_arrangement_counts_values():
    assert arrangement_counts(2, 2) == (1, 4)
    assert arrangement_counts(2, 5) == (10, 16)
    assert arrangement_counts(3, 5) == (10, 26)
    assert arrangement_counts(2, 0) == (0, 1)
    with pytest.raises(ValueError):
        arrangement_counts(0, 3)


def test_perturb_check_accepts_built_vertices(hand_net):
    state = build_complex(hand_net)
    for key, v in state.vertices.items():
        assert perturb_check(hand_net, key, v, epsilon=0.05)
    net = random_init((2, 5, 1), 3)
    for key, v in build_complex(net).vertices.items():
        assert perturb_check(net, key, v, epsilon=1e-3)


def test_perturb_check_rejects_fakes(hand_net):
    state = build_complex(hand_net)
    key = key_of([0, 1, 0])
    v = state.vertices[key]
    off = Vertex(v.coords + np.array([0.3, 0.3]), v.zero_set, 0.0, 1.0)
    assert not perturb_check(hand_net, key, off, epsilon=1e-3)
    # claiming a crossing where the map is locally constant-sign also fails
    fake = Vertex(v.coords, (0, 1, 2), 0.0, 1.0)
    assert not perturb_check(hand_net, key_of([0, 0, 0]), fake, epsilon=1e-3)


def test_perturb_check_deterministic(hand_net):
    key, v = next(iter(build_complex(hand_net).vertices.items()))
    a = perturb_check(hand_net, key, v, epsilon=0.05, trials=16)
    b = perturb_check(hand_net, key, v, epsilon=0.05, trials=16)
    assert a == b is True
