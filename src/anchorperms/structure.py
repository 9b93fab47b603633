"""Executable structure results: the k = 2 decomposition, Joker
detection, and the departure classifier for k = 3.

A 2-bounded anchored permutation deviates from the identity only in
isolated (+2, -1, +2) excursions; the set I of excursion start indices
determines it completely. For k = 3, a +3 departure from a completed
diagonal prefix is either the Joker pattern or a cascading 3-pattern with
parameters (m, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import LemmaViolationError, Permutation, gaps, is_anchored, is_k_bounded


@dataclass(frozen=True)
class DepartureClassification:
    kind: str  # "joker" | "cascading" | "not-applicable"
    m: int | None = None
    d: int | None = None

    def __post_init__(self):
        if self.kind not in ("joker", "cascading", "not-applicable"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "cascading":
            if self.m is None or self.m < 1 or self.d not in (-2, -1, 1, 2):
                raise ValueError("cascading requires m >= 1 and d in {-2,-1,1,2}")
        elif self.m is not None or self.d is not None:
            raise ValueError(f"{self.kind} carries no parameters")


JOKER = DepartureClassification("joker")
NOT_APPLICABLE = DepartureClassification("not-applicable")


def cascading(m: int, d: int) -> DepartureClassification:
    return DepartureClassification("cascading", m, d)


@dataclass(frozen=True)
class K2Decomposition:
    """Excursion start indices of a 2-bounded anchored permutation."""

    indices: frozenset[int]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        idx = sorted(self.indices)
        for i in idx:
            if not 2 <= i <= self.n - 2:
                raise ValueError(f"index {i} outside 2..{self.n - 2}")
        for a, b in zip(idx, idx[1:]):
            if b - a < 3:
                raise ValueError(f"indices {a},{b} differ by less than 3")


def decompose_k2(p: Permutation) -> K2Decomposition:
    """The unique index set I with p(i) = i+1 on I, i-1 on I+1, i elsewhere."""
    if not (is_k_bounded(p, 2) and is_anchored(p)):
        raise ValueError("permutation must be 2-bounded and anchored")
    indices = frozenset(i for i in range(1, p.n + 1) if p[i] == i + 1)
    try:
        dec = K2Decomposition(indices, p.n)
    except ValueError as exc:
        raise LemmaViolationError(
            f"excursion indices {sorted(indices)} violate the spacing rule "
            f"for {p.entries}"
        ) from exc
    if reconstruct_k2(dec).entries != p.entries:
        raise LemmaViolationError(
            f"{p.entries} does not follow the excursion pattern"
        )
    return dec


def reconstruct_k2(dec: K2Decomposition) -> Permutation:
    """Inverse of decompose_k2."""
    entries = list(range(1, dec.n + 1))
    for i in dec.indices:
        entries[i - 1] = i + 1
        entries[i] = i
    return Permutation(tuple(entries))


def find_joker(p: Permutation) -> list[int]:
    """Positions i where entries i..i+4 are (i+2, i, i+3, i+1, i+4)."""
    hits = []
    for i in range(1, p.n - 3):
        if p.entries[i - 1 : i + 4] == (i + 2, i, i + 3, i + 1, i + 4):
            hits.append(i)
    return hits


def cascading_gap_word(m: int, d: int) -> tuple[int, ...]:
    """Full gap word of a cascading 3-pattern: runs of +3 of length m,
    then d, a -3 run, the forced small gap, and a +3 run back up."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if d not in (-2, -1, 1, 2):
        raise ValueError("d must be one of -2, -1, +1, +2")
    m_prime = m if d > 0 else m - 1
    d_bar = 1 if d in (1, -2) else -1
    return (3,) * m + (d,) + (-3,) * m_prime + (d_bar,) + (3,) * m_prime


def _prefix_is_anchored(p: Permutation, i: int) -> bool:
    """Entries 1..i are a permutation of {1..i} ending at i."""
    return p[i] == i and max(p.entries[:i]) == i


def departure_points(p: Permutation) -> Iterator[int]:
    """Positions i < n where an anchored prefix ends (entries 1..i are
    {1..i}, ending at i) and the next gap is +3: the departures that
    lemma 3.3 classifies."""
    for i in range(1, p.n):
        if _prefix_is_anchored(p, i) and p[i + 1] - p[i] == 3:
            yield i


def classify_departure(p: Permutation, i: int) -> DepartureClassification:
    """Classify the departure following an anchored prefix ending at
    position i. Raises LemmaViolationError if neither pattern matches,
    which would falsify the structure result."""
    if not (is_k_bounded(p, 3) and is_anchored(p)):
        raise ValueError("permutation must be 3-bounded and anchored")
    if not 1 <= i <= p.n:
        raise ValueError(f"position {i} out of range")
    if not _prefix_is_anchored(p, i):
        raise ValueError(f"entries 1..{i} are not an anchored prefix")
    if i == p.n or p[i + 1] - p[i] != 3:
        return NOT_APPLICABLE
    if i + 5 <= p.n and p.entries[i : i + 5] == (i + 3, i + 1, i + 4, i + 2, i + 5):
        return JOKER
    tail = gaps(p)[i - 1 :]
    m = 0
    while m < len(tail) and tail[m] == 3:
        m += 1
    if m >= len(tail) or tail[m] not in (-2, -1, 1, 2):
        raise LemmaViolationError(
            f"departure at {i} in {p.entries}: no small gap after the +3 run"
        )
    d = tail[m]
    word = cascading_gap_word(m, d)
    if tail[: len(word)] != word:
        raise LemmaViolationError(
            f"departure at {i} in {p.entries}: gaps {tail[:len(word)]} "
            f"do not match the cascading word {word}"
        )
    return cascading(m, d)


def validate_lemma33(p: Permutation) -> bool:
    """Check every +3 departure from an anchored prefix against the
    Joker/cascading dichotomy. False means a counterexample."""
    if not (is_k_bounded(p, 3) and is_anchored(p)):
        raise ValueError("permutation must be 3-bounded and anchored")
    for i in departure_points(p):
        try:
            classify_departure(p, i)
        except LemmaViolationError:
            return False
    return True
