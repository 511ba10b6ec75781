"""Ternary sign sequences and the face semigroup on them.

A cell of the polyhedral complex carved out by a ReLU network is identified
by the vector of signs (-1, 0, +1) that the node maps take on its relative
interior.  This module implements that combinatorial layer in isolation:
sequences, the idempotent face product (a is a face of b exactly when
product(a, b) == b), the cube completions obtained by resolving zeros, and
the cube closure of a set of vertex sequences, which both the builder and
the topology layer read their cells from.

Sequences are packed two bits per entry into a single Python integer so
that equality, hashing and the canonical order are plain integer operations.
The code for an entry e is e + 1 (so -1 -> 0b00, 0 -> 0b01, +1 -> 0b10)
and entry 0 occupies the most significant field, which makes the integer
order coincide with lexicographic order under -1 < 0 < +1.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterable, Iterator

__all__ = [
    "CubeClosure",
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
        k = self.key
        out = []
        for i in range(self.n):
            out.append(((k >> (2 * (self.n - 1 - i))) & 3) - 1)
        return tuple(out)

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

    def __le__(self, other: "SignSequence") -> bool:
        return (self.n, self.key) <= (other.n, other.key)

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


def cube_completions(a: SignSequence, values: tuple[int, ...] = (-1, 0, 1)) -> Iterator[SignSequence]:
    """All sequences obtained by re-assigning every zero of a a value from `values`."""
    zeros = a.zero_positions()
    for combo in iter_product(values, repeat=len(zeros)):
        s = a
        for p, v in zip(zeros, combo):
            s = s.replace(p, v)
        yield s


CubeClosure = namedtuple("CubeClosure", ["graded", "regions"])


def cube_closure(vertex_signs) -> CubeClosure:
    """Close a set of vertex sequences under resolving zeros to +1/-1.

    Returns the cells graded by zero count together with the zero-zero grade
    (the top-dimensional regions) as a separate set.
    """
    graded: dict[int, set[SignSequence]] = {}
    for v in vertex_signs:
        for cell in cube_completions(v):
            graded.setdefault(cell.n_zeros(), set()).add(cell)
    return CubeClosure(graded, graded.get(0, set()))
