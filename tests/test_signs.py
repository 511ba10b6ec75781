"""Sign-sequence algebra: frozen values, reference oracle, and semigroup laws."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import concat, entry, from_text, replace, zero_positions
from relucx import SignSequence, product
from relucx.signs import completion_keys, cube_closure, pack, text, unpack

S = SignSequence.from_entries


def naive_product(a: SignSequence, b: SignSequence) -> SignSequence:
    """Elementwise reference: a's entry where nonzero, else b's."""
    return S([x if x != 0 else y for x, y in zip(a.entries, b.entries)])


def reference_cube_completions(a: SignSequence, values=(-1, 0, 1)):
    """The per-zero `replace` chain that the packed-key completions replaced."""
    zeros = zero_positions(a)
    for combo in itertools.product(values, repeat=len(zeros)):
        s = a
        for p, v in zip(zeros, combo):
            s = replace(s, p, v)
        yield s


def reference_cube_closure(vertex_signs) -> dict[int, set[int]]:
    """The keys of the closure over `reference_cube_completions`, graded by zero count."""
    graded: dict[int, set[int]] = {}
    for v in vertex_signs:
        for cell in reference_cube_completions(v):
            graded.setdefault(cell.n_zeros(), set()).add(cell.key)
    return graded


def cube_completions(a: SignSequence, values=(-1, 0, 1)) -> list[SignSequence]:
    """The packed-key completions of a, each wrapped as a sequence."""
    return [SignSequence(a.n, key) for key in completion_keys(a.key, a.n, values, {})]


def all_sequences(n: int) -> list[SignSequence]:
    return [S(e) for e in itertools.product((-1, 0, 1), repeat=n)]


sign_entries = st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=12)


def seq_pair(draw_len):
    return st.lists(
        st.sampled_from((-1, 0, 1)), min_size=draw_len, max_size=draw_len
    ).map(S)


@st.composite
def vertex_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    mk = st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(S)
    return draw(st.lists(mk, min_size=1, max_size=5))


@st.composite
def sparse_zero_sequences(draw, n=None, max_zeros=6):
    """Sequences of up to 40 entries (keys up to 80 bits) with few zeros."""
    n = draw(st.integers(min_value=1, max_value=40)) if n is None else n
    zeros = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=min(n, max_zeros)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return S([0 if i in zeros else s for i, s in enumerate(signs)])


completion_inputs = st.one_of(
    sparse_zero_sequences(),
    st.integers(min_value=1, max_value=7).map(lambda n: S([0] * n)),  # all zeros
    st.lists(st.sampled_from((-1, 1)), min_size=33, max_size=40).map(S),  # no zeros
)


@st.composite
def equal_length_vertex_sets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return draw(st.lists(sparse_zero_sequences(n, max_zeros=4), min_size=0, max_size=8))


@st.composite
def seq_triples(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    mk = st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(S)
    return draw(mk), draw(mk), draw(mk)


# ---------------------------------------------------------------------------
# frozen product values and face examples


def test_product_table_values():
    v = S([1, 1, 0, 0])
    assert product(v, S([1, 1, 1, -1])) == S([1, 1, 1, -1])
    assert product(v, S([1, 1, -1, 0])) == S([1, 1, -1, 0])


def test_face_examples():
    assert product(S([1, 1, 0, 0]), S([1, 1, -1, 0])) == S([1, 1, -1, 0])
    assert product(S([1, 1, -1, 0]), S([1, 1, 1, -1])) != S([1, 1, 1, -1])
    a = S([1, -1, 0, 1])
    assert product(a, a) == a


# ---------------------------------------------------------------------------
# representation details


def test_text_round_trip():
    for e in ([1, 1, -1, 0], [0], [-1, -1], [1, 0, 1, 0, -1]):
        seq = S(e)
        assert seq.text() == "(" + ",".join(str(x) for x in e) + ")"
        assert from_text(seq.text()) == seq
    assert from_text(" ( 1 , -1 , 0 ) ") == S([1, -1, 0])


def test_from_text_rejects_bad_input():
    with pytest.raises(ValueError):
        from_text("1,0,1")
    with pytest.raises(ValueError):
        from_text("(2,0)")


def test_entries_accessors():
    a = S([1, 0, -1, 0])
    assert a.entries == (1, 0, -1, 0)
    assert [entry(a, i) for i in range(4)] == [1, 0, -1, 0]
    assert zero_positions(a) == (1, 3)
    assert a.n_zeros() == 2
    assert len(a) == 4
    assert list(a.entries) == [1, 0, -1, 0]
    assert replace(a, 1, 1) == S([1, 1, -1, 0])
    assert concat(a, [0, 1]) == S([1, 0, -1, 0, 0, 1])
    with pytest.raises(IndexError):
        entry(a, 4)
    with pytest.raises(ValueError):
        replace(a, 0, 2)
    with pytest.raises(ValueError):
        S([1, 2, 0])


def test_canonical_order_is_lexicographic():
    seqs = all_sequences(3)
    by_key = sorted(seqs)
    by_entries = sorted(seqs, key=lambda s: s.entries)
    assert by_key == by_entries


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        product(S([1, 0]), S([1, 0, -1]))


def test_cube_completions_counts():
    a = S([0, 1, 0, -1])
    full = cube_completions(a)
    assert len(full) == 3 ** a.n_zeros()
    assert len(set(full)) == len(full)
    assert a in full
    regions = cube_completions(a, values=(-1, 1))
    assert len(regions) == 2 ** a.n_zeros()
    assert all(r.n_zeros() == 0 for r in regions)
    assert all(product(a, r) == r for r in regions)


# ---------------------------------------------------------------------------
# packed-key completions and closure against the replace-chain reference


@settings(max_examples=300)
@given(completion_inputs, st.sampled_from([(-1, 0, 1), (-1, 1)]))
@example(S([0] * 6), (-1, 0, 1))
@example(S([1, -1] * 20), (-1, 1))
@example(S([0] + [1, -1] * 17 + [0, 0]), (-1, 0, 1))
def test_completions_match_reference_in_order(seq, values):
    got = cube_completions(seq, values)
    assert got == list(reference_cube_completions(seq, values))
    assert [c.n for c in got] == [seq.n] * len(got)


@settings(max_examples=200)
@given(equal_length_vertex_sets())
@example([S([0] * 4), S([1, 0, -1, 0])])
@example([S([0] + [1] * 39), S([-1] * 38 + [0, 0])])
def test_closure_matches_reference(verts):
    n = verts[0].n if verts else 0
    got, want = cube_closure([v.key for v in verts], n), reference_cube_closure(verts)
    assert list(got) == list(want)  # grades in the same order
    assert got == want


def test_closure_rejects_mixed_lengths():
    # keys carry no length: a 3-entry key among 2-entry ones is too wide
    with pytest.raises(ValueError, match="more than 2 entries"):
        cube_closure([S([0, 1]).key, S([0, 1, 1]).key], 2)


# ---------------------------------------------------------------------------
# exhaustive small cases against the reference


def test_product_matches_naive_exhaustively_n2():
    for a in all_sequences(2):
        for b in all_sequences(2):
            assert product(a, b) == naive_product(a, b)


# ---------------------------------------------------------------------------
# semigroup laws and structural properties


@given(sign_entries)
def test_idempotence(entries):
    a = S(entries)
    assert product(a, a) == a


@settings(max_examples=300)
@given(seq_triples())
def test_associativity(triple):
    a, b, c = triple
    assert product(a, product(b, c)) == product(product(a, b), c)


@settings(max_examples=300)
@given(seq_triples())
def test_product_matches_naive(triple):
    a, b, _ = triple
    assert product(a, b) == naive_product(a, b)


@settings(max_examples=300)
@given(seq_triples())
def test_absorption_characterizes_faces(triple):
    a, b, _ = triple
    za, zb = set(zero_positions(a)), set(zero_positions(b))
    agree_off_za = all(
        entry(a, i) == entry(b, i) for i in range(a.n) if i not in za
    )
    assert (product(a, b) == b) == (zb <= za and agree_off_za)


@settings(max_examples=300)
@given(seq_triples())
def test_commutativity_iff_no_opposition(triple):
    a, b, _ = triple
    opposed = any(x * y == -1 for x, y in zip(a.entries, b.entries))
    assert (product(a, b) == product(b, a)) == (not opposed)


@settings(max_examples=200)
@given(vertex_sets())
def test_cube_closure_is_closed_under_resolving_zeros(verts):
    n = verts[0].n
    closure = cube_closure([v.key for v in verts], n)
    cells = {SignSequence(n, key) for grade in closure.values() for key in grade}
    for cell in cells:
        for p in zero_positions(cell):
            assert replace(cell, p, 1) in cells
            assert replace(cell, p, -1) in cells


@given(sign_entries)
def test_n_zeros_counts_zeros(entries):
    assert S(entries).n_zeros() == sum(1 for e in entries if e == 0)


@settings(max_examples=300)
@given(seq_triples())
def test_product_zeros_are_common_zeros(triple):
    a, b, _ = triple
    expected = set(zero_positions(a)) & set(zero_positions(b))
    assert set(zero_positions(product(a, b))) == expected


@settings(max_examples=300)
@given(seq_triples())
def test_face_relation_is_partial_order(triple):
    a, b, c = triple
    if product(a, b) == b and product(b, a) == a:
        assert a == b
    if product(a, b) == b and product(b, c) == c:
        assert product(a, c) == c


# ---------------------------------------------------------------------------
# the packed format: pack, unpack and text against the sequence type


@settings(max_examples=100)
@given(
    st.sampled_from((1, 31, 32, 33, 100)).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
)
def test_pack_unpack_text_round_trip(rows):
    n = len(rows[0])
    seqs = [S(row) for row in rows]
    keys = pack(np.array(rows)).tolist()
    assert keys == [seq.key for seq in seqs]
    assert all(type(k) is int for k in keys)
    assert unpack(keys, n).tolist() == rows
    assert [text(k, n) for k in keys] == [seq.text() for seq in seqs]
