"""Core value types and validity predicates.

Permutations are stored in list notation, 1-indexed: entry i is the value
at position i. All counts are exact Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


class LemmaViolationError(AssertionError):
    """A structural claim that should be mathematically impossible failed.

    Distinct from ValueError (caller bug): raising this means either the
    implementation is broken or a claimed structural property is false.
    The test suite treats it as fatal.
    """


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n} in list notation."""

    entries: tuple[int, ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1:
            raise ValueError("permutation must have at least one entry")
        if sorted(self.entries) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, position: int) -> int:
        """Value at 1-indexed position."""
        if not 1 <= position <= self.n:
            raise IndexError(f"position {position} out of range 1..{self.n}")
        return self.entries[position - 1]


@dataclass(frozen=True)
class Variant:
    """Endpoint constraint on the permutations being counted.

    kind 'anchored' fixes the first entry to 1 and the last to n;
    'endpoints' fixes the first and last entries to given values;
    'free' leaves both ends unconstrained.
    """

    kind: str
    start: int | None = None
    end: int | None = None

    def __post_init__(self):
        if self.kind not in ("anchored", "endpoints", "free"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "endpoints":
            if self.start is None or self.end is None:
                raise ValueError("endpoints variant requires start and end")
            for value in (self.start, self.end):
                _check_int(value, "endpoint values must be ints")
        elif self.start is not None or self.end is not None:
            raise ValueError(f"{self.kind} variant takes no endpoint values")

    def check_range(self, n: int) -> None:
        """Validate endpoint values against a concrete n."""
        if self.kind != "endpoints":
            return
        if not (1 <= self.start <= n and 1 <= self.end <= n):
            raise ValueError(f"endpoints {self.start},{self.end} out of range 1..{n}")
        if n > 1 and self.start == self.end:
            raise ValueError("start and end must differ when n > 1")

    def ends(self, n: int) -> tuple[int, ...]:
        """The pinned (first, last) values for length n; () when free."""
        if self.kind == "anchored":
            return (1, n)
        if self.kind == "endpoints":
            return (self.start, self.end)
        return ()

    def matches(self, p: Permutation) -> bool:
        ends = self.ends(p.n)
        return not ends or (p.entries[0], p.entries[-1]) == ends


ANCHORED = Variant("anchored")
FREE = Variant("free")


def endpoints(start: int, end: int) -> Variant:
    return Variant("endpoints", start, end)


@dataclass
class CountTable:
    """Exact counts for n = offset, offset + 1, ... at a fixed (k, variant)
    pair; a list, so the indices are contiguous by construction."""

    k: int
    variant: Variant
    counts: list[int] = field(default_factory=list)
    provenance: str = "unknown"
    offset: int = 1

    def __post_init__(self):
        if any(v < 0 for v in self.counts):
            raise ValueError("counts must be nonnegative")

    def __getitem__(self, n: int) -> int:
        if not self.offset <= n < self.offset + len(self.counts):
            raise KeyError(n)  # a bare index would wrap offset - 1 to the last count
        return self.counts[n - self.offset]

    def __len__(self) -> int:
        return len(self.counts)

    def values(self) -> list[int]:
        """The counts in index order, as a copy."""
        return list(self.counts)


def _check_int(value, message: str) -> int:
    """The value if it is an int; anything else, a bool too, raises rather than truncates."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{message}, not {value!r}")
    return value


def check_args(k: int, n: int = 1, variant: Variant = FREE) -> int:
    """Validate a counting request (gap bound, length, pinned ends at that
    length); the gap bound."""
    if _check_int(k, "k must be an int") < 1:
        raise ValueError("k must be >= 1")
    _check_int(n, "n must be an int")
    if n < 1:
        raise ValueError("n must be >= 1")
    variant.check_range(n)
    return k


def is_k_bounded(p: Permutation, k: int) -> bool:
    """True iff every consecutive absolute difference is at most k."""
    _check_int(k, "k must be an int")
    e = p.entries
    return all(abs(e[i + 1] - e[i]) <= k for i in range(len(e) - 1))


def is_anchored(p: Permutation) -> bool:
    return ANCHORED.matches(p)


def gaps(p: Permutation | Sequence[int]) -> tuple[int, ...]:
    """Signed consecutive differences, in order. Empty for n = 1."""
    e = p.entries if isinstance(p, Permutation) else tuple(p)
    return tuple(e[i + 1] - e[i] for i in range(len(e) - 1))
