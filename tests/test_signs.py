"""Sign-sequence keys: frozen product values, reference oracle, and semigroup laws."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import (
    concat, entries_of, entry, from_text, key_of, n_zeros, replace, zero_positions,
)
from relucx import product
from relucx.signs import completions, cube_closure, pack, text, unpack


def naive_product(a: int, b: int, n: int) -> int:
    """Elementwise reference: a's entry where nonzero, else b's."""
    return key_of(x if x != 0 else y for x, y in zip(entries_of(a, n), entries_of(b, n)))


def reference_cube_completions(a: int, n: int, values=(-1, 0, 1)):
    """The per-zero `replace` chain that the packed-key completions replaced."""
    zeros = zero_positions(a, n)
    for combo in itertools.product(values, repeat=len(zeros)):
        s = a
        for p, v in zip(zeros, combo):
            s = replace(s, n, p, v)
        yield s


def reference_cube_closure(vertex_keys, n: int) -> dict[int, tuple[int, ...]]:
    """The closure over `reference_cube_completions`, graded by zero count, each grade sorted."""
    graded: dict[int, set[int]] = {}
    for v in vertex_keys:
        for cell in reference_cube_completions(v, n):
            graded.setdefault(n_zeros(cell, n), set()).add(cell)
    return {zeros: tuple(sorted(graded[zeros])) for zeros in sorted(graded)}


def cube_completions(a: int, n: int, values=(-1, 0, 1)) -> list[int]:
    return completions([a], [zero_positions(a, n)], n, values)[0].tolist()


def all_keys(n: int) -> list[int]:
    return [key_of(e) for e in itertools.product((-1, 0, 1), repeat=n)]


sign_entries = st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=12)


def keys_of_length(n: int):
    return st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(key_of)


@st.composite
def vertex_sets(draw):
    """(keys, n): up to five keys of n entries."""
    n = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(keys_of_length(n), min_size=1, max_size=5)), n


@st.composite
def sparse_zero_sequences(draw, n=None, max_zeros=6):
    """(key, n): up to 40 entries (keys up to 80 bits) with few zeros."""
    n = draw(st.integers(min_value=1, max_value=40)) if n is None else n
    zeros = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=min(n, max_zeros)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return key_of([0 if i in zeros else s for i, s in enumerate(signs)]), n


def with_length(entries):
    return key_of(entries), len(entries)


completion_inputs = st.one_of(
    sparse_zero_sequences(),
    st.integers(min_value=1, max_value=7).map(lambda n: with_length([0] * n)),  # all zeros
    st.lists(st.sampled_from((-1, 1)), min_size=33, max_size=40).map(with_length),  # no zeros
)


@st.composite
def equal_length_vertex_sets(draw):
    """(keys, n): up to eight keys of n entries with few zeros."""
    n = draw(st.integers(min_value=1, max_value=40))
    seqs = draw(st.lists(sparse_zero_sequences(n, max_zeros=4), min_size=0, max_size=8))
    return [key for key, _ in seqs], n


@st.composite
def equal_zero_vertex_sets(draw):
    """(keys, n, n0): up to eight keys of n = 1..40 entries, each with n0 = 1..4 zeros."""
    n = draw(st.integers(min_value=1, max_value=40))
    n0 = draw(st.integers(min_value=1, max_value=min(n, 4)))
    zero_sets = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=n0, max_size=n0)
    signs = st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(zero_sets, signs), min_size=1, max_size=8))
    return [key_of([0 if i in zs else s for i, s in enumerate(ss)]) for zs, ss in rows], n, n0


@st.composite
def seq_triples(draw):
    """(a, b, c, n): three keys of n entries."""
    n = draw(st.integers(min_value=1, max_value=10))
    mk = keys_of_length(n)
    return draw(mk), draw(mk), draw(mk), n


# ---------------------------------------------------------------------------
# frozen product values and face examples


def test_product_table_values():
    v = key_of([1, 1, 0, 0])
    assert product(v, key_of([1, 1, 1, -1])) == key_of([1, 1, 1, -1])
    assert product(v, key_of([1, 1, -1, 0])) == key_of([1, 1, -1, 0])


def test_face_examples():
    assert product(key_of([1, 1, 0, 0]), key_of([1, 1, -1, 0])) == key_of([1, 1, -1, 0])
    assert product(key_of([1, 1, -1, 0]), key_of([1, 1, 1, -1])) != key_of([1, 1, 1, -1])
    a = key_of([1, -1, 0, 1])
    assert product(a, a) == a


# ---------------------------------------------------------------------------
# representation details


def test_text_round_trip():
    for e in ([1, 1, -1, 0], [0], [-1, -1], [1, 0, 1, 0, -1]):
        key = key_of(e)
        assert text(key, len(e)) == "(" + ",".join(str(x) for x in e) + ")"
        assert from_text(text(key, len(e))) == key
    assert from_text(" ( 1 , -1 , 0 ) ") == key_of([1, -1, 0])


def test_from_text_rejects_bad_input():
    with pytest.raises(ValueError):
        from_text("1,0,1")
    with pytest.raises(ValueError):
        from_text("(2,0)")


def test_entries_accessors():
    a = key_of([1, 0, -1, 0])
    assert entries_of(a, 4) == (1, 0, -1, 0)
    assert [entry(a, 4, i) for i in range(4)] == [1, 0, -1, 0]
    assert zero_positions(a, 4) == (1, 3)
    assert n_zeros(a, 4) == 2
    assert replace(a, 4, 1, 1) == key_of([1, 1, -1, 0])
    assert concat(a, [0, 1]) == key_of([1, 0, -1, 0, 0, 1])
    with pytest.raises(IndexError):
        entry(a, 4, 4)
    with pytest.raises(ValueError):
        replace(a, 4, 0, 2)


def test_canonical_order_is_lexicographic():
    keys = all_keys(3)
    assert sorted(keys) == sorted(keys, key=lambda k: entries_of(k, 3))


def test_cube_completions_counts():
    a, n = key_of([0, 1, 0, -1]), 4
    full = cube_completions(a, n)
    assert len(full) == 3 ** n_zeros(a, n)
    assert len(set(full)) == len(full)
    assert a in full
    regions = cube_completions(a, n, values=(-1, 1))
    assert len(regions) == 2 ** n_zeros(a, n)
    assert all(n_zeros(r, n) == 0 for r in regions)
    assert all(product(a, r) == r for r in regions)


# ---------------------------------------------------------------------------
# packed-key completions and closure against the replace-chain reference


@settings(max_examples=300)
@given(completion_inputs, st.sampled_from([(-1, 0, 1), (-1, 1)]))
@example(with_length([0] * 6), (-1, 0, 1))
@example(with_length([1, -1] * 20), (-1, 1))
@example(with_length([0] + [1, -1] * 17 + [0, 0]), (-1, 0, 1))
def test_completions_match_reference_in_order(seq, values):
    key, n = seq
    got = cube_completions(key, n, values)
    assert got == list(reference_cube_completions(key, n, values))
    assert all(c >> 2 * n == 0 for c in got)  # still n entries


@settings(max_examples=200)
@given(equal_length_vertex_sets())
@example(([key_of([0] * 4), key_of([1, 0, -1, 0])], 4))
@example(([key_of([0] + [1] * 39), key_of([-1] * 38 + [0, 0])], 40))
def test_closure_matches_reference(verts):
    keys, n = verts
    got, want = cube_closure(keys, n), reference_cube_closure(keys, n)
    assert list(got) == list(want)  # grades in the same order
    assert got == want  # each grade ascending


@settings(max_examples=200)
@given(equal_zero_vertex_sets(), st.sampled_from([(-1, 0, 1), (-1, 1)]))
@example(([key_of([0] + [1] * 38 + [0]), key_of([-1] * 36 + [0, 1, 0, -1])], 40, 2), (-1, 0, 1))
@example(([key_of([0, 0, 0, 0] + [1, -1] * 14)], 32, 4), (-1, 1))
def test_array_completions_and_closure_match_reference(verts, values):
    keys, n, n0 = verts
    got = completions(keys, [zero_positions(key, n) for key in keys], n, values)
    assert got.shape == (len(keys), len(values) ** n0)
    assert got.dtype == (np.int64 if n <= 31 else object)
    assert got.tolist() == [list(reference_cube_completions(key, n, values)) for key in keys]
    got, want = cube_closure(keys, n), reference_cube_closure(keys, n)
    assert list(got) == list(want) == list(range(n0 + 1))  # every grade, ascending
    assert got == want  # each grade ascending
    assert all(type(cell) is int for grade in got.values() for cell in grade)


def test_closure_rejects_mixed_lengths():
    # keys carry no length: a 3-entry key among 2-entry ones is too wide
    with pytest.raises(ValueError, match="more than 2 entries"):
        cube_closure([key_of([0, 1]), key_of([0, 1, 1])], 2)


# ---------------------------------------------------------------------------
# exhaustive small cases against the reference


def test_product_matches_naive_exhaustively_n2():
    for a in all_keys(2):
        for b in all_keys(2):
            assert product(a, b) == naive_product(a, b, 2)


# ---------------------------------------------------------------------------
# semigroup laws and structural properties


@given(sign_entries)
def test_idempotence(entries):
    a = key_of(entries)
    assert product(a, a) == a


@settings(max_examples=300)
@given(seq_triples())
def test_associativity(triple):
    a, b, c, _ = triple
    assert product(a, product(b, c)) == product(product(a, b), c)


@settings(max_examples=300)
@given(seq_triples())
def test_product_matches_naive(triple):
    a, b, _, n = triple
    assert product(a, b) == naive_product(a, b, n)


@settings(max_examples=300)
@given(seq_triples())
def test_absorption_characterizes_faces(triple):
    a, b, _, n = triple
    za, zb = set(zero_positions(a, n)), set(zero_positions(b, n))
    agree_off_za = all(entry(a, n, i) == entry(b, n, i) for i in range(n) if i not in za)
    assert (product(a, b) == b) == (zb <= za and agree_off_za)


@settings(max_examples=300)
@given(seq_triples())
def test_commutativity_iff_no_opposition(triple):
    a, b, _, n = triple
    opposed = any(x * y == -1 for x, y in zip(entries_of(a, n), entries_of(b, n)))
    assert (product(a, b) == product(b, a)) == (not opposed)


@settings(max_examples=200)
@given(vertex_sets())
def test_cube_closure_is_closed_under_resolving_zeros(verts):
    keys, n = verts
    cells = {key for grade in cube_closure(keys, n).values() for key in grade}
    for cell in cells:
        for p in zero_positions(cell, n):
            assert replace(cell, n, p, 1) in cells
            assert replace(cell, n, p, -1) in cells


@given(sign_entries)
def test_n_zeros_counts_zeros(entries):
    assert n_zeros(key_of(entries), len(entries)) == sum(1 for e in entries if e == 0)


@settings(max_examples=300)
@given(seq_triples())
def test_product_zeros_are_common_zeros(triple):
    a, b, _, n = triple
    expected = set(zero_positions(a, n)) & set(zero_positions(b, n))
    assert set(zero_positions(product(a, b), n)) == expected


@settings(max_examples=300)
@given(seq_triples())
def test_face_relation_is_partial_order(triple):
    a, b, c, _ = triple
    if product(a, b) == b and product(b, a) == a:
        assert a == b
    if product(a, b) == b and product(b, c) == c:
        assert product(a, c) == c


# ---------------------------------------------------------------------------
# the packed format: pack, unpack and text against the one-field-at-a-time key


@settings(max_examples=100)
@given(
    st.sampled_from((1, 26, 27, 31, 32, 33, 52, 53, 100)).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
)
def test_pack_unpack_text_round_trip(rows):
    n = len(rows[0])
    keys = pack(np.array(rows)).tolist()
    assert keys == [key_of(row) for row in rows]
    assert all(type(k) is int for k in keys)
    assert unpack(keys, n).tolist() == rows
    assert [text(k, n) for k in keys] == ["(" + ",".join(map(str, row)) + ")" for row in rows]


@pytest.mark.parametrize("n", range(1, 65))
def test_pack_constant_rows_are_exact(n):
    # all +1 is the largest word sum, and with its last entry 0 the largest odd
    # one: above 2**53 a float64 holds only even integers
    rows = [[e] * n for e in (1, 0, -1)] + [[1] * (n - 1) + [0]]
    keys = pack(np.array(rows, dtype=np.int8)).tolist()
    assert keys == [key_of(row) for row in rows]
    assert unpack(keys, n).tolist() == rows
