"""Complex assembly, GF(2) boundary maps, compactified Betti numbers, SVG."""

import itertools
import re

import numpy as np
import pytest

from relucx import (
    AffineLayer,
    BoundaryInconsistent,
    ChainComplexGF2,
    ClosureViolation,
    CubicalComplex,
    ReluNetwork,
    assemble,
    betti_gf2,
    boundary_matrices,
    build_complex,
    compactify,
    decision_boundary,
    first_layer_vertices,
    gf2_rank,
    product,
    random_init,
    render_db_svg,
)
import relucx.model
import relucx.topology
from conftest import entries_of, entry, key_of, n_zeros, replace
from relucx.model import node_map_value_matrix, region_affine_maps
from relucx.signs import facet_keys, text


def assemble_state(state):
    return assemble(state.vertices, state.covered)


def rank_oracle(columns, nrows):
    """Reference GF(2) rank by plain row reduction on a dense 0/1 matrix."""
    mat = np.zeros((len(columns), nrows), dtype=np.uint8)
    for r, col in enumerate(columns):
        for b in range(nrows):
            mat[r, b] = (col >> b) & 1
    rank = 0
    for c in range(nrows):
        piv = None
        for r in range(rank, len(columns)):
            if mat[r, c]:
                piv = r
                break
        if piv is None:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        for r in range(len(columns)):
            if r != rank and mat[r, c]:
                mat[r] ^= mat[rank]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# assembly


def test_assemble_hand_example(hand_net):
    state = build_complex(hand_net)
    cx = assemble_state(state)
    assert cx.n0 == 2
    assert cx.dim_counts() == (3, 9, 7)
    assert len(cx.cells) == 19
    # boundary rows count through the grades in order, each grade ascending
    flat = [key for grade in cx.grading for key in grade]
    assert len(flat) == 19 and set(flat) == cx.cells
    for grade in cx.grading:
        assert list(grade) == sorted(grade)


def test_assemble_single_vertex():
    cx = assemble([key_of([0, 0, 1, -1])], 4)
    assert cx.n0 == 2
    assert cx.dim_counts() == (1, 4, 4)
    assert len(cx.cells) == 9


def test_assemble_rejects_mixed_or_empty_input():
    with pytest.raises(ValueError):
        assemble([], 3)
    with pytest.raises(ValueError, match=r"^vertex \(0,1,1\) has 1 zeros, expected 2"):
        assemble([key_of([0, 0, 1]), key_of([0, 1, 1])], 3)


def test_grading_duality(hand_net):
    state = build_complex(hand_net)
    cx = assemble_state(state)
    for dim, grade in enumerate(cx.grading):
        assert all(cx.n0 - n_zeros(key, cx.n) == dim for key in grade)
    by_zeros = {}
    for key in cx.cells:
        by_zeros[n_zeros(key, cx.n)] = by_zeros.get(n_zeros(key, cx.n), 0) + 1
    assert by_zeros == {2: 3, 1: 9, 0: 7}


def test_assemble_rejects_missed_vertex_by_euler_characteristic():
    # without its first vertex the closure stays closed, but one cell short
    state = build_complex(random_init((2, 5, 1), 5))
    verts = sorted(state.vertices)
    assert assemble(verts, state.covered).dim_counts() == (10, 25, 16)
    with pytest.raises(ClosureViolation, match="Euler characteristic 0"):
        assemble(verts[1:], state.covered)


# ---------------------------------------------------------------------------
# boundary matrices


def test_three_line_arrangement_boundary():
    state = first_layer_vertices(random_init((2, 3, 1), 0))
    cx = assemble_state(state)
    assert cx.dim_counts() == (3, 9, 7)
    chain = boundary_matrices(cx)
    weights = sorted(col.bit_count() for col in chain.boundaries[0])
    # three bounded segments between vertex pairs, six unbounded rays
    assert weights == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    assert gf2_rank(chain.boundaries[0]) == 3
    assert rank_oracle(chain.boundaries[0], 3) == 3


@pytest.mark.parametrize("arch,seed", [((2, 5, 1), 0), ((2, 4, 4, 1), 6), ((3, 5, 1), 3)])
def test_dd_zero_on_built_complexes(arch, seed):
    state = build_complex(random_init(arch, seed))
    cx = assemble_state(state)
    chain = boundary_matrices(cx)
    for k in range(1, len(chain.boundaries)):
        lower = chain.boundaries[k - 1]
        for col in chain.boundaries[k]:
            acc = 0
            bits = col
            while bits:
                low = bits & -bits
                acc ^= lower[low.bit_length() - 1]
                bits ^= low
            assert acc == 0


@pytest.mark.parametrize("arch,seed", [((2, 5, 1), 0), ((2, 4, 4, 1), 6)])
def test_edges_have_at_most_two_vertex_facets(arch, seed):
    cx = assemble_state(build_complex(random_init(arch, seed)))
    chain = boundary_matrices(cx)
    counts = [col.bit_count() for col in chain.boundaries[0]]
    assert all(c <= 2 for c in counts)
    if cx.dim_counts()[0]:
        assert any(c < 2 for c in counts)  # rays escaping to infinity exist


def test_commuting_products_land_in_complex():
    cx = assemble_state(build_complex(random_init((2, 4, 1), 1)))
    for a, b in itertools.combinations(cx.cells, 2):
        ab = product(a, b)
        if ab == product(b, a):
            assert ab in cx.cells


# ---------------------------------------------------------------------------
# GF(2) rank


def test_gf2_rank_edge_cases():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b1]) == 1
    assert gf2_rank([0b11, 0b10, 0b01]) == 2


def test_gf2_rank_matches_elimination_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        nrows = int(rng.integers(1, 24))
        ncols = int(rng.integers(1, 24))
        cols = [int(rng.integers(0, 1 << nrows)) for _ in range(ncols)]
        assert gf2_rank(cols) == rank_oracle(cols, nrows)


# ---------------------------------------------------------------------------
# decision boundary and compactification


def test_decision_boundary_hand_example(hand_net):
    cx = assemble_state(build_complex(hand_net))
    db = decision_boundary(cx)
    assert db.dim_counts() == (2, 3, 0)
    assert set(db.grading[0]) == {key_of([0, 1, 0]), key_of([1, 0, 0])}
    assert set(db.grading[1]) == {key_of([1, 1, 0]), key_of([-1, 1, 0]), key_of([1, -1, 0])}
    # faces of boundary cells stay in the boundary
    for key in db.cells:
        for p in range(db.n):
            if entry(key, db.n, p) != 0:
                facet = replace(key, db.n, p, 0)
                if facet in cx.cells:
                    assert facet in db.cells


def test_compactify_hand_example(hand_net):
    cx = assemble_state(build_complex(hand_net))
    db = decision_boundary(cx)
    chain = compactify(db)
    assert chain.dims == (3, 3)  # two vertices + infinity; segment + two rays
    inf_bit = 1 << 2
    with_inf = [col for col in chain.boundaries[0] if col & inf_bit]
    assert len(with_inf) == 2  # exactly the two rays
    report = betti_gf2(chain)
    assert report.betti == (1, 1)
    assert report.bounded == 0
    assert report.unbounded == 1


def test_compactify_rejects_top_cells(hand_net):
    cx = assemble_state(build_complex(hand_net))
    with pytest.raises(ValueError):
        compactify(cx)


def test_empty_decision_boundary():
    # output 0.01 relu(x) + 0.01 relu(y) + 10 never crosses zero
    net = ReluNetwork(
        (2, 2, 1),
        (
            AffineLayer(np.eye(2), np.zeros(2)),
            AffineLayer(np.array([[0.01, 0.01]]), np.array([10.0])),
        ),
    )
    db = decision_boundary(assemble_state(build_complex(net)))
    assert db.dim_counts() == (0, 0, 0)
    report = betti_gf2(compactify(db))
    assert report.betti == (1, 0)
    assert report.bounded == 0
    assert report.unbounded == 0


def test_single_full_line_compactifies_to_circle():
    db = CubicalComplex(2, 2, ((), (key_of([1, 0]),), ()))
    chain = compactify(db)
    assert chain.dims == (1, 1)
    assert chain.boundaries[0] == (0,)  # both ends at infinity cancel mod 2
    report = betti_gf2(chain)
    assert report.betti == (1, 1)
    assert report.bounded == 0 and report.unbounded == 1


# ---------------------------------------------------------------------------
# Betti numbers on synthetic chains


def test_circle_chain():
    report = betti_gf2(ChainComplexGF2((1, 1), ((0,),)))
    assert report.betti == (1, 1)
    assert report.bounded == 0 and report.unbounded == 1


def test_two_disjoint_circles():
    report = betti_gf2(ChainComplexGF2((2, 2), ((0, 0),)))
    assert report.betti == (2, 2)
    assert report.bounded == 1 and report.unbounded == 1


def test_boundary_inconsistent_detected():
    chain = ChainComplexGF2((2, 1, 1), ((0b11,), (0b1,)))
    with pytest.raises(BoundaryInconsistent):
        betti_gf2(chain)


# ---------------------------------------------------------------------------
# SVG rendering


def test_render_db_svg_hand_example(hand_net, tmp_path):
    state = build_complex(hand_net)
    db = decision_boundary(assemble_state(state))
    coords = dict(zip(state.vertices, state.coords))
    out = tmp_path / "db.svg"
    render_db_svg(hand_net, coords, db, (-3.0, 3.0), str(out))
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<line") == 3
    assert text.count("<circle") == 2
    assert "<title>(1,1,0)</title>" in text
    assert "<title>(-1,1,0)</title>" in text
    assert "<title>(1,-1,0)</title>" in text
    # the segment runs between the two boundary vertices
    assert 'x1="300.000" y1="200.000" x2="400.000" y2="300.000"' in text
    # the rays leave those vertices along x < 0 and y < 0 respectively
    assert 'x1="300.000" y1="200.000" x2="0.000" y2="200.000"' in text
    assert 'x1="400.000" y1="300.000" x2="400.000" y2="600.000"' in text
    assert 'cx="300.000" cy="200.000"' in text
    assert 'cx="400.000" cy="300.000"' in text


def test_render_db_svg_one_map_call_and_ray_sides(monkeypatch, tmp_path):
    # the edges' maps come from one stacked call, and a ray's side from the signs
    # of the map vanishing at its vertex, with no node map evaluated; this net has
    # rays leaving their vertex along each direction of their line
    net = random_init((2, 6, 6, 6, 1), 0)
    state = build_complex(net)
    db = decision_boundary(assemble_state(state))
    coords = dict(zip(state.vertices, state.coords))
    hi = float(np.abs(state.coords).max()) + 1.0  # every vertex inside the box
    rays = {}  # title -> vertex and ray direction, probed beside the vertex
    for key in db.grading[1]:
        ends = [coords[f] for f in facet_keys(key, db.n) if f in coords]
        if len(ends) == 1:
            entries = np.array(entries_of(key, db.n))
            normal = region_affine_maps(net, entries[:-1], net.depth + 1)[0][-1]
            d = np.array([-normal[1], normal[0]]) / np.linalg.norm(normal)
            probe = node_map_value_matrix(net, [ends[0] + 2e-4 * hi * d])[0]
            ahead = np.array_equal(np.sign(probe[:-1]), entries[:-1])
            rays[text(key, db.n)] = (ends[0], d if ahead else -d, ahead)
    assert {ahead for _, _, ahead in rays.values()} == {True, False}

    calls = {"maps": 0, "values": 0}
    stacked, values = relucx.topology.stacked_region_affine_maps, node_map_value_matrix

    def map_spy(*args):
        calls["maps"] += 1
        return stacked(*args)

    def value_spy(*args):
        calls["values"] += 1
        return values(*args)

    monkeypatch.setattr(relucx.topology, "stacked_region_affine_maps", map_spy)
    monkeypatch.setattr(relucx.model, "node_map_value_matrix", value_spy)
    monkeypatch.setattr(relucx.topology, "node_map_value_matrix", value_spy, raising=False)
    out = tmp_path / "db.svg"
    render_db_svg(net, coords, db, (-hi, hi), str(out))
    assert calls == {"maps": 1, "values": 0}

    scale = 600 / (2 * hi)
    lines = re.findall(r'x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)" .*?<title>(\S+)</title>',
                       out.read_text())
    drawn = {title: np.array(ends, dtype=float) for *ends, title in lines}
    for title, (v, d, _) in rays.items():
        x1, y1, x2, y2 = drawn[title]
        assert np.allclose([x1, y1], [(v[0] + hi) * scale, (hi - v[1]) * scale], atol=1e-3)
        assert (x2 - x1) * d[0] - (y2 - y1) * d[1] > 0


def test_render_db_svg_requires_plane(tmp_path):
    net = random_init((3, 4, 1), 0)
    state = build_complex(net)
    db = decision_boundary(assemble_state(state))
    with pytest.raises(ValueError):
        render_db_svg(net, {}, db, (-3.0, 3.0), str(tmp_path / "x.svg"))
