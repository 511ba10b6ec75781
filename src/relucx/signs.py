"""Ternary sign sequences and the face semigroup on them.

A cell of the polyhedral complex carved out by a ReLU network is identified
by the vector of signs (-1, 0, +1) that the node maps take on its relative
interior.  This module implements that combinatorial layer in isolation:
sequences, the idempotent face product (a is a face of b exactly when
product(a, b) == b), the cube completions obtained by resolving zeros, and
the cube closure of a set of vertex sequences, which the topology layer
reads its cells from.

Sequences are packed two bits per entry into a single Python integer so
that equality, hashing and the canonical order are plain integer operations.
The code for an entry e is e + 1 (so -1 -> 0b00, 0 -> 0b01, +1 -> 0b10)
and entry 0 occupies the most significant field, which makes the integer
order coincide with lexicographic order under -1 < 0 < +1.  A completion
(the key with its zero fields cleared, OR a pattern of codes) is then one
integer operation, so completions and closures run on keys and make one
`SignSequence` per distinct cell.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "SignSequence",
    "cube_closure",
    "product",
]


@lru_cache(maxsize=None)
def _lo_mask(n: int) -> int:
    """Integer with the low bit of each of the n two-bit fields set."""
    return ((1 << (2 * n)) - 1) // 3


class SignSequence:
    """Immutable sequence over {-1, 0, +1}, ordered most-significant-first."""

    __slots__ = ("n", "key")

    def __init__(self, n: int, key: int):
        self.n = n
        self.key = key

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "SignSequence":
        key = 0
        n = 0
        for e in entries:
            if e not in (-1, 0, 1):
                raise ValueError(f"sign entry must be -1, 0 or +1, got {e!r}")
            key = (key << 2) | (e + 1)
            n += 1
        return cls(n, key)

    @classmethod
    def from_text(cls, text: str) -> "SignSequence":
        """Parse the textual form "(1,1,-1,0)" (spaces tolerated)."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"sign sequence text must be parenthesized: {text!r}")
        parts = [p.strip() for p in body[1:-1].split(",") if p.strip()]
        return cls.from_entries(int(p) for p in parts)

    @property
    def entries(self) -> tuple[int, ...]:
        k = self.key  # a list first: tuple(<generator>) measured ~1.3 MB more peak RSS
        return tuple([((k >> shift) & 3) - 1 for shift in range(2 * self.n - 2, -1, -2)])

    def entry(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return ((self.key >> (2 * (self.n - 1 - i))) & 3) - 1

    def _zero_bits(self) -> int:
        """Low bit set in each field whose entry is 0."""
        k = self.key
        return ~(k >> 1) & k & _lo_mask(self.n)

    def zero_positions(self) -> tuple[int, ...]:
        z = self._zero_bits()
        return tuple(i for i in range(self.n) if (z >> (2 * (self.n - 1 - i))) & 1)

    def n_zeros(self) -> int:
        return self._zero_bits().bit_count()

    def replace(self, position: int, value: int) -> "SignSequence":
        if value not in (-1, 0, 1):
            raise ValueError(f"sign entry must be -1, 0 or +1, got {value!r}")
        shift = 2 * (self.n - 1 - position)
        key = (self.key & ~(3 << shift)) | ((value + 1) << shift)
        return SignSequence(self.n, key)

    def concat(self, entries: Iterable[int]) -> "SignSequence":
        tail = SignSequence.from_entries(entries)
        return SignSequence(self.n + tail.n, (self.key << (2 * tail.n)) | tail.key)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SignSequence)
            and self.n == other.n
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.n, self.key))

    def __lt__(self, other: "SignSequence") -> bool:
        return (self.n, self.key) < (other.n, other.key)

    def text(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"SignSequence{self.text()}"


def product(a: SignSequence, b: SignSequence) -> SignSequence:
    """Face product: keep a's entry where nonzero, fall through to b's at a's zeros.

    Associative and idempotent; commutative exactly when no coordinate carries
    strictly opposite nonzero signs in a and b.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    zf = a._zero_bits()
    zf |= zf << 1  # widen to full two-bit fields
    return SignSequence(a.n, (a.key & ~zf) | (b.key & zf))


def facet_keys(a: SignSequence) -> Iterator[int]:
    """Packed keys of a with one nonzero entry set to 0, first entry first."""
    nonzero = _lo_mask(a.n) & ~a._zero_bits()  # low bit of each nonzero field
    while nonzero:
        shift = nonzero.bit_length() - 1
        nonzero ^= 1 << shift
        yield a.key & ~(3 << shift) | 1 << shift  # that field set to 0b01


def completion_keys(a: SignSequence, values: tuple[int, ...], patterns: dict) -> Iterator[int]:
    """Packed keys of a with every zero re-assigned a value from `values`.

    A completion is a's key with its zero fields cleared, OR one pattern of
    codes.  `patterns` holds the patterns of each zero mask met so far, in
    `itertools.product` order, most significant field first; a caller keeps
    one such dict for one pass, with one `values`.
    """
    zero_lo = a._zero_bits()
    pats = patterns.get(zero_lo)
    if pats is None:
        codes, pats, rest = [v + 1 for v in values], [0], zero_lo
        while rest:
            shift = rest.bit_length() - 1
            rest ^= 1 << shift
            pats = [p | c << shift for p in pats for c in codes]
        patterns[zero_lo] = pats
    return map((a.key ^ zero_lo).__or__, pats)  # zero fields are 0b01: XOR clears them


def cube_closure(vertex_signs) -> dict[int, set[SignSequence]]:
    """Close a set of equal-length vertex sequences under resolving zeros to +1/-1.

    Returns the cells graded by zero count, ascending, with empty grades
    left out; grade 0 holds the top-dimensional regions.  Cells are collected
    and graded as packed keys, and each distinct cell is wrapped once.
    """
    keys: set[int] = set()
    patterns: dict[int, list[int]] = {}
    lengths = set()
    for v in vertex_signs:
        keys.update(completion_keys(v, (-1, 0, 1), patterns))
        lengths.add(v.n)
    if len(lengths) > 1:
        raise ValueError(f"vertex sequences of different lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    lo = _lo_mask(n)
    graded: list[set[SignSequence]] = [set() for _ in range(n + 1)]
    for key in keys:  # of the codes 0b00, 0b01, 0b10 only a zero sets the low bit
        graded[(key & lo).bit_count()].add(SignSequence(n, key))
    return {zeros: cells for zeros, cells in enumerate(graded) if cells}
