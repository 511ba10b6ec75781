"""Grid-sampling soundness, arrangement combinatorics, vertex perturbation."""

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
from relucx.signs import SignSequence

S = SignSequence.from_entries


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


def test_sample_grid_points():
    grid = SampleGrid.square(-1.0, 1.0, 2, 3)
    pts = grid.points()
    assert pts.shape == (9, 2)
    assert pts.min() == -1.0 and pts.max() == 1.0
    assert [tuple(p) for p in pts[:3]] == [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0)]


def test_hand_example_sampled_regions(hand_net):
    grid = SampleGrid.square(-3.0, 3.0, 2, 200)
    sampled = sample_region_signs(hand_net, grid)
    expect = {
        S([1, 1, 1]),
        S([1, 1, -1]),
        S([1, -1, 1]),
        S([1, -1, -1]),
        S([-1, 1, 1]),
        S([-1, 1, -1]),
        S([-1, -1, -1]),  # relu(x)+relu(y) = 0 < 1 on the whole third quadrant
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


def test_arrangement_counts_values():
    assert arrangement_counts(2, 2) == (1, 4)
    assert arrangement_counts(2, 5) == (10, 16)
    assert arrangement_counts(3, 5) == (10, 26)
    assert arrangement_counts(2, 0) == (0, 1)
    with pytest.raises(ValueError):
        arrangement_counts(0, 3)


def test_perturb_check_accepts_built_vertices(hand_net):
    state = build_complex(hand_net)
    for v in state.vertices.values():
        assert perturb_check(hand_net, v, epsilon=0.05)
    net = random_init((2, 5, 1), 3)
    for v in build_complex(net).vertices.values():
        assert perturb_check(net, v, epsilon=1e-3)


def test_perturb_check_rejects_fakes(hand_net):
    state = build_complex(hand_net)
    v = state.vertices[S([0, 1, 0])]
    off = Vertex(v.coords + np.array([0.3, 0.3]), v.signs, v.zero_set, 0.0, 1.0)
    assert not perturb_check(hand_net, off, epsilon=1e-3)
    # claiming a crossing where the map is locally constant-sign also fails
    lying_signs = S([0, 0, 0])
    fake = Vertex(v.coords, lying_signs, (0, 1, 2), 0.0, 1.0)
    assert not perturb_check(hand_net, fake, epsilon=1e-3)


def test_perturb_check_deterministic(hand_net):
    v = next(iter(build_complex(hand_net).vertices.values()))
    a = perturb_check(hand_net, v, epsilon=0.05, trials=16)
    b = perturb_check(hand_net, v, epsilon=0.05, trials=16)
    assert a == b is True
