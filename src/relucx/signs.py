"""Ternary sign sequences as packed integer keys, and the face semigroup on them.

A cell of the polyhedral complex carved out by a ReLU network is identified
by the vector of signs (-1, 0, +1) that the node maps take on its relative
interior.  The program carries that vector as one Python integer, its key:
two bits per entry, the code for an entry e being e + 1 (so -1 -> 0b00,
0 -> 0b01, +1 -> 0b10), with entry 0 in the most significant field.  Keys of
one length therefore order as the sequences do lexicographically under
-1 < 0 < +1.  A key does not record its length n, so every function here
that needs it takes it.  `pack`, `unpack` and `text` convert between keys,
arrays of entries and the textual form "(1,0,-1)"; they hold for any n.

On keys, a completion (the key with its zero fields cleared, OR a pattern of
codes) and a facet (one field set to 0b01) are single integer operations;
the builder's region incidence and the cube closure that the topology layer
reads its cells from run on them, as does the face `product`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "cube_closure",
    "pack",
    "product",
    "text",
    "unpack",
]

# Two-bit fields per int64 word while packing and unpacking: keys of up to
# this many entries are int64 arrays, longer ones arrays of Python ints.
_WORD_FIELDS = 31

_ENTRY_TEXT = ("-1", "0", "1")  # by code


@lru_cache(maxsize=None)
def _lo_mask(n: int) -> int:
    """Integer with the low bit of each of the n two-bit fields set."""
    return ((1 << (2 * n)) - 1) // 3


def _zero_bits(key: int, n: int) -> int:
    """Low bit set in each field whose entry is 0."""
    return ~(key >> 1) & key & _lo_mask(n)


def n_zeros(key: int, n: int) -> int:
    return _zero_bits(key, n).bit_count()


def pack(rows) -> np.ndarray:
    """Keys of the rows of an (R, n) array of entries in {-1, 0, +1}, as an (R,) array.

    The array is int64 for n <= 31 and holds Python ints otherwise; its
    `tolist()` gives Python ints either way.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[1]
    keys = np.zeros(len(rows), dtype=np.int64 if n <= _WORD_FIELDS else object)
    for lo in range(0, n, _WORD_FIELDS):
        width = min(_WORD_FIELDS, n - lo)
        weights = 4 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        # sum (e + 1) * w, without a copy of the rows for the + 1
        keys = keys << 2 * width | rows[:, lo : lo + width] @ weights + weights.sum()
    return keys


def unpack(keys, n: int) -> np.ndarray:
    """Entries of keys of n entries, as an (R, n) int8 array: the inverse of `pack`."""
    keys = np.asarray(keys, dtype=np.int64 if n <= _WORD_FIELDS else object)
    shifts = np.arange(2 * n - 2, -1, -2, dtype=np.int64)
    return ((keys[:, None] >> shifts) & 3).astype(np.int8) - 1


def text(key: int, n: int) -> str:
    """The textual form "(1,0,-1)" of a key of n entries."""
    return "(" + ",".join([_ENTRY_TEXT[key >> s & 3] for s in range(2 * n - 2, -1, -2)]) + ")"


def product(a: int, b: int) -> int:
    """Face product of two keys of one length: a's entry where nonzero, b's at a's zeros.

    Associative and idempotent; commutative exactly when no coordinate carries
    strictly opposite nonzero signs in a and b.  The cell of a is a face of
    the cell of b exactly when product(a, b) == b.
    """
    zf = _zero_bits(a, a.bit_length())  # a's leading -1 fields are 0b00
    zf |= zf << 1  # widen to full two-bit fields
    return a & ~zf | b & zf


def facet_keys(key: int, n: int) -> Iterator[int]:
    """Keys with one nonzero entry of a key of n entries set to 0, first entry first."""
    nonzero = _lo_mask(n) & ~_zero_bits(key, n)  # low bit of each nonzero field
    while nonzero:
        shift = nonzero.bit_length() - 1
        nonzero ^= 1 << shift
        yield key & ~(3 << shift) | 1 << shift  # that field set to 0b01


def completion_keys(key: int, n: int, values: tuple[int, ...], patterns: dict) -> Iterator[int]:
    """Keys of a key of n entries with every zero re-assigned a value from `values`.

    A completion is the key with its zero fields cleared, OR one pattern of
    codes.  `patterns` holds the patterns of each zero mask met so far, in
    `itertools.product` order, most significant field first; a caller keeps
    one such dict for one pass, with one `values`.
    """
    zero_lo = _zero_bits(key, n)
    pats = patterns.get(zero_lo)
    if pats is None:
        codes, pats, rest = [v + 1 for v in values], [0], zero_lo
        while rest:
            shift = rest.bit_length() - 1
            rest ^= 1 << shift
            pats = [p | c << shift for p in pats for c in codes]
        patterns[zero_lo] = pats
    return map((key ^ zero_lo).__or__, pats)  # zero fields are 0b01: XOR clears them


def cube_closure(vertex_keys: Iterable[int], n: int) -> dict[int, set[int]]:
    """Close a set of vertex keys of n entries under resolving zeros to +1/-1.

    Returns the cell keys graded by zero count, ascending, with empty grades
    left out; grade 0 holds the top-dimensional regions.
    """
    keys: set[int] = set()
    patterns: dict[int, list[int]] = {}
    for v in vertex_keys:
        keys.update(completion_keys(v, n, (-1, 0, 1), patterns))
    if keys and max(keys) >> 2 * n:
        raise ValueError(f"a vertex key has more than {n} entries")
    lo = _lo_mask(n)
    graded: list[set[int]] = [set() for _ in range(n + 1)]
    for key in keys:  # of the codes 0b00, 0b01, 0b10 only a zero sets the low bit
        graded[(key & lo).bit_count()].add(key)
    return {zeros: cells for zeros, cells in enumerate(graded) if cells}
