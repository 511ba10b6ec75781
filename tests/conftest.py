"""Shared fixtures and the acceptance-summary hook."""

import numpy as np
import pytest

from relucx import AffineLayer, ReluNetwork, SignSequence

S = SignSequence.from_entries

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
    """Packed key of a sequence of entries."""
    return S(entries).key


# SignSequence operations that only the tests use


def from_text(text: str) -> SignSequence:
    """Parse the textual form "(1,1,-1,0)" (spaces tolerated)."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"sign sequence text must be parenthesized: {text!r}")
    return S(int(p) for p in body[1:-1].split(",") if p.strip())


def entry(seq: SignSequence, i: int) -> int:
    if not 0 <= i < seq.n:
        raise IndexError(i)
    return seq.entries[i]


def zero_positions(seq: SignSequence) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(seq.entries) if e == 0)


def replace(seq: SignSequence, position: int, value: int) -> SignSequence:
    if value not in (-1, 0, 1):
        raise ValueError(f"sign entry must be -1, 0 or +1, got {value!r}")
    entries = list(seq.entries)
    entries[position] = value
    return S(entries)


def concat(seq: SignSequence, entries) -> SignSequence:
    return S([*seq.entries, *entries])
