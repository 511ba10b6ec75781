"""Shared fixtures and the acceptance-summary hook."""

import numpy as np
import pytest

from relucx import AffineLayer, ReluNetwork
from relucx.signs import unpack

# Results registered by tests/test_acceptance.py: list of (number, ok, detail).
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def register_criterion(number: int, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        line = f"CRITERION {number} {verdict}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


def make_hand_net() -> ReluNetwork:
    """(2,2,1) net: identity first layer, output relu(x) + relu(y) - 1."""
    return ReluNetwork(
        (2, 2, 1),
        (
            AffineLayer(np.eye(2), np.zeros(2)),
            AffineLayer(np.array([[1.0, 1.0]]), np.array([-1.0])),
        ),
    )


@pytest.fixture
def hand_net() -> ReluNetwork:
    return make_hand_net()


def key_of(entries) -> int:
    """Packed key of a sequence of entries in {-1, 0, +1}, built one field at a time."""
    key = 0
    for e in entries:
        if e not in (-1, 0, 1):
            raise ValueError(f"sign entry must be -1, 0 or +1, got {e!r}")
        key = key << 2 | e + 1
    return key


# Key operations that only the tests use; a key does not record its length n


def n_zeros(key: int, n: int) -> int:
    """Number of 0 entries of a key of n entries: fields whose code is 0b01."""
    return (~(key >> 1) & key & ((1 << 2 * n) - 1) // 3).bit_count()


def entries_of(key: int, n: int) -> tuple[int, ...]:
    return tuple(unpack([key], n)[0].tolist())


def from_text(text: str) -> int:
    """Key of the textual form "(1,1,-1,0)" (spaces tolerated)."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"sign sequence text must be parenthesized: {text!r}")
    return key_of(int(p) for p in body[1:-1].split(",") if p.strip())


def entry(key: int, n: int, i: int) -> int:
    if not 0 <= i < n:
        raise IndexError(i)
    return entries_of(key, n)[i]


def zero_positions(key: int, n: int) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(entries_of(key, n)) if e == 0)


def replace(key: int, n: int, position: int, value: int) -> int:
    entries = list(entries_of(key, n))
    entries[position] = value
    return key_of(entries)


def concat(key: int, entries) -> int:
    entries = list(entries)
    return key << 2 * len(entries) | key_of(entries)
