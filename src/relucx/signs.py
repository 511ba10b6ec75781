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
codes) and a facet (one field set to 0b01) are single integer operations, as is
the face `product`; `completions` makes all completions of an array of keys as
one array, which the builder's region incidence and the cube closure sort.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "cube_closure",
    "pack",
    "product",
    "text",
    "unpack",
]

# Keys of up to this many two-bit fields are int64 arrays, longer ones Python ints.
_WORD_FIELDS = 31
# Fields summed by one float64 matvec in `pack`: every product and partial sum
# is an integer below 2 * 4**26 / 3 < 2**53, so the sum is exact in any order.
_FLOAT_FIELDS = 26

_ENTRY_TEXT = ("-1", "0", "1")  # by code


@lru_cache(maxsize=None)
def _lo_mask(n: int) -> int:
    """Integer with the low bit of each of the n two-bit fields set."""
    return ((1 << (2 * n)) - 1) // 3


def _zero_bits(key: int, n: int) -> int:
    """Low bit set in each field whose entry is 0."""
    return ~(key >> 1) & key & _lo_mask(n)


def pack(rows) -> np.ndarray:
    """Keys of the rows of an (R, n) array of entries in {-1, 0, +1}, as an (R,) array.

    The array is int64 for n <= 31 and holds Python ints otherwise; its
    `tolist()` gives Python ints either way.  Each word of up to _FLOAT_FIELDS
    fields is one exact float64 matvec of the rows against powers of 4.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[1]
    keys = np.zeros(len(rows), dtype=np.int64 if n <= _WORD_FIELDS else object)
    for lo in range(0, n, _FLOAT_FIELDS):
        weights = 4.0 ** np.arange(min(_FLOAT_FIELDS, n - lo) - 1, -1, -1)
        # sum (e + 1) * w without a copy of the rows for the + 1; k weights sum to (4**k - 1) / 3
        word = rows[:, lo : lo + len(weights)] @ weights + (4.0 ** len(weights) - 1) / 3
        keys = keys << 2 * len(weights) | word.astype(np.int64)
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


def completions(keys, zero_positions, n: int, values) -> np.ndarray:
    """Keys of n entries with every zero re-assigned a value from `values`, as a (V, P) array.

    Row v holds the len(values)**n0 completions of keys[v], with zeros at the ascending
    positions zero_positions[v] (a (V, n0) array), in `itertools.product` order: the key
    XOR its zero fields' 0b01, OR value codes.  int64 for n <= 31, else Python ints.
    """
    dtype = np.int64 if n <= _WORD_FIELDS else object
    shifts = (2 * (n - 1 - np.asarray(zero_positions, dtype=np.int64))).astype(dtype)
    codes = np.array([v + 1 for v in values], dtype=dtype)
    out = np.asarray(keys, dtype=dtype)[:, None]
    for shift in shifts.T[:, :, None, None]:  # one zero field of every key at a time
        out = (out[:, :, None] ^ 1 << shift | codes << shift).reshape(len(out), -1)
    return out


def cube_closure(vertex_keys, n: int) -> dict[int, tuple[int, ...]]:
    """Close a set of vertex keys of n entries under resolving zeros to +1/-1.

    Returns the cell keys graded by zero count, ascending, each grade an ascending
    tuple, with empty grades left out; grade 0 holds the top-dimensional regions.
    """
    keys = np.asarray(vertex_keys, dtype=np.int64 if n <= _WORD_FIELDS else object)
    if not len(keys):
        return {}
    if keys.max() >> 2 * n:
        raise ValueError(f"a vertex key has more than {n} entries")
    zeros = unpack(keys, n) == 0
    counts = zeros.sum(axis=1)
    cells, grades = [], []
    for n0 in np.flatnonzero(np.bincount(counts)):  # keys of one zero count at a time
        positions = np.argsort(~zeros[counts == n0], axis=1, kind="stable")[:, :n0]  # of zeros
        cells.append(completions(keys[counts == n0], positions, n, (-1, 0, 1)))
        grade = (np.indices((3,) * n0).reshape(n0, 3**n0) == 1).sum(axis=0)  # pattern zeros
        grades.append(np.tile(grade, len(cells[-1])))
    cells, first = np.unique(np.concatenate([block.ravel() for block in cells]), return_index=True)
    grades = np.concatenate(grades)[first]
    return {z: tuple(cells[grades == z].tolist()) for z in sorted(set(grades.tolist()))}
