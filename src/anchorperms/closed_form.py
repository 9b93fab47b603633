"""Constant-size-state counters for k = 1, 2, 3.

Implements the proven recurrences and rational generating functions for
anchored bounded-gap permutations, plus the coupled F/G/H class system for
k = 3. All arithmetic is exact; no floats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Iterator, Sequence

from .core import ANCHORED, FREE, CountTable, Variant, check_args
from .polys import poly_divmod, poly_gcd, trim


@dataclass(frozen=True)
class Recurrence:
    """The sequence a_1, a_2, ... that starts with `initial` (at least
    `order` terms) and continues from n0 = len(initial) + 1 on by the
    integer linear recurrence a_n = sum_j c_j * a_{n-j}."""

    coefficients: tuple[int, ...]
    initial: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")
        if len(self.initial) < self.order:
            raise ValueError("need at least `order` initial terms")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def n0(self) -> int:
        return len(self.initial) + 1

    def terms(self) -> Iterator[int]:
        """The endless sequence, holding only the last `order` terms."""
        yield from self.initial
        window = deque(self.initial, maxlen=self.order)
        while True:
            window.append(sum(map(mul, self.coefficients, reversed(window))))
            yield window[-1]


@dataclass(frozen=True)
class RationalGF:
    """Ratio of integer polynomials, coefficients ascending by degree.

    The denominator has constant term 1, the one thing checked here. The
    fraction is in lowest terms as built: by seqmine.to_gf from a register
    find_recurrence returns (see there), by reduced, or as gf_k2 and gf_k3.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        if not self.denominator or self.denominator[0] != 1:
            raise ValueError("denominator constant term must be 1")

    @staticmethod
    def reduced(numerator, denominator) -> "RationalGF":
        """Build from possibly-unreduced integer/rational polynomials.

        Both sides are divided by their polynomial gcd and then by the
        single scalar that makes the denominator's constant term 1, so the
        value of the fraction is preserved exactly."""
        den = trim(list(denominator))
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(numerator, den)
        num, _ = poly_divmod(numerator, g)
        den, _ = poly_divmod(den, g)
        if not den or den[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        c = den[0]
        den = [x / c for x in den]
        num = [x / c for x in num]
        if any(x.denominator != 1 for x in num + den):
            raise ValueError("cannot normalize to integer coefficients")
        return RationalGF(tuple(int(x) for x in num), tuple(int(x) for x in den))


def _table(k: int, variant: Variant, vals: list[int]) -> CountTable:
    return CountTable(k=k, variant=variant, counts=vals, provenance="closed-form")


K2_INITIAL = (1, 1, 1)
K2_COEFFS = (1, 0, 1)
K3_INITIAL = (1, 1, 1, 2, 6, 14, 28, 56)
K3_COEFFS = (2, -1, 2, 1, 1, 0, -1, -1)
# The anchored counts by k, for each k that has a proven closed form; only
# the identity is 1-bounded and anchored.
ANCHORED_RECURRENCES: dict[int, Recurrence] = {
    1: Recurrence((1,), (1,)),
    2: Recurrence(K2_COEFFS, K2_INITIAL),
    3: Recurrence(K3_COEFFS, K3_INITIAL),
}


def _closed_terms(k: int, n: int, variant: Variant) -> Iterator[int]:
    """The anchored counts from n = 1 on, once the request is checked; n is
    the last length asked for. k is checked before n."""
    rec = ANCHORED_RECURRENCES.get(check_args(k))
    if rec is None or variant != ANCHORED:
        raise ValueError("closed-form counting covers anchored k <= 3 only")
    check_args(k, n, variant)
    return rec.terms()


def closed_table(k: int, max_n: int, variant: Variant = ANCHORED) -> CountTable:
    """Anchored counts for n = 1..max_n from the proven recurrence for k.
    The variant is taken as the other counters take it; any but ANCHORED,
    like any k > 3, raises ValueError."""
    return _table(k, variant, list(islice(_closed_terms(k, max_n, variant), max_n)))


def closed_count(k: int, n: int, variant: Variant = ANCHORED) -> int:
    """The count for n alone: closed_table's checks, no table, and only the
    last `order` terms held at any time."""
    return next(islice(_closed_terms(k, n, variant), n - 1, None))


def count_k1(n: int) -> int:
    return closed_count(1, n)


def k2_table(max_n: int) -> list[int]:
    """R_1..R_max_n with R_n = R_{n-1} + R_{n-3}."""
    return list(islice(ANCHORED_RECURRENCES[2].terms(), max(max_n, 0)))


def count_k2(n: int) -> int:
    return closed_count(2, n)


def k3_table(max_n: int) -> list[int]:
    """F_1..F_max_n using the depth-8 recurrence beyond the seed block."""
    return list(islice(ANCHORED_RECURRENCES[3].terms(), max(max_n, 0)))


def count_k3(n: int) -> int:
    return closed_count(3, n)


# Class seeds for the coupled F/G/H system, n = 1..5. Validated against
# filtered enumeration in the test suite, then trusted here.
FGH_SEEDS_F = (1, 1, 1, 2, 6)
FGH_SEEDS_G = (1, 1, 2, 4, 10)
FGH_SEEDS_H = (0, 0, 0, 2, 3)

# The k = 3 class relations, each stated once. A rule is a tuple of
# (coefficient, sequence, lag) terms over the sequences F, G, H (0, 1, 2).
# A term reads a_(n - lag), reads 0 below n = 1, and lag 0 reads a
# sequence computed earlier in the same step.
_F, _G, _H = range(3)
FGH_RULES = (
    ((1, _G, 1), (1, _H, 1), (1, _F, 5)),
    ((1, _F, 0), (1, _G, 2), (1, _F, 3), (1, _G, 4), (1, _H, 2)),
    ((1, _F, 3), (1, _G, 3), (1, _F, 4), (1, _G, 5), (1, _H, 3)),
)
# H eliminated: F and G alone.
FG_RULES = (
    ((1, _G, 1), (1, _F, 4), (1, _G, 2), (-1, _F, 2), (1, _F, 5)),
    ((1, _F, 0), (1, _G, 2), (1, _G, 3), (1, _G, 4), (1, _F, 5)),
)
H_ELIMINATION = ((1, _F, 3), (1, _G, 1), (-1, _F, 1))


def rule_at(rule: Sequence[tuple[int, int, int]], seqs: Sequence[Sequence[int]], n: int) -> int:
    """The rule's value at n; seqs[s] holds a_1.. of sequence s."""
    return sum(c * seqs[s][n - lag - 1] for c, s, lag in rule if n - lag >= 1)


def _run_rules(rules, seeds, max_n: int) -> list[list[int]]:
    """Each sequence's first max_n terms: its seed, then its rule."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    seqs = [list(seed[:max_n]) for seed in seeds]
    for n in range(1, max_n + 1):
        for seq, rule in zip(seqs, rules):
            if len(seq) < n:
                seq.append(rule_at(rule, seqs, n))
    return seqs


def fgh_table(max_n: int) -> tuple[CountTable, CountTable, CountTable]:
    """Joint F/G/H tables from the three mutual recurrences."""
    f, g, h = _run_rules(FGH_RULES, (FGH_SEEDS_F, FGH_SEEDS_G, FGH_SEEDS_H), max_n)
    return _table(3, ANCHORED, f), _table(3, FREE, g), _table(3, FREE, h)


def fg_two_term_table(max_n: int) -> tuple[CountTable, CountTable]:
    """F/G via the H-eliminated two-sequence system.

    The eliminated system is homogeneous except for a unit impulse at
    n = 1 (the x on the right side of the generating-function relation).
    That impulse is the one seed, F_1 = 1; G_1 follows from its rule, and
    with the zero convention below n = 1 nothing else is seeded.
    """
    f, g = _run_rules(FG_RULES, ((1,), ()), max_n)
    return _table(3, ANCHORED, f), _table(3, FREE, g)


def h_eliminated(n: int) -> int:
    """H_n via the elimination identity H_n = F_{n-3} + G_{n-1} - F_{n-1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f, g, _ = fgh_table(n)
    return rule_at(H_ELIMINATION, (f.values(), g.values()), n)


def gf_k2() -> RationalGF:
    """x / (1 - x - x^3)."""
    return RationalGF((0, 1), (1, -1, 0, -1))


def gf_k3() -> RationalGF:
    """(x - x^2 - x^4) / (1 - 2x + x^2 - 2x^3 - x^4 - x^5 + x^7 + x^8)."""
    return RationalGF((0, 1, -1, 0, -1), (1, -2, 1, -2, -1, -1, 0, 1, 1))


def expand_gf(gf: RationalGF, n_terms: int) -> list[int]:
    """Coefficients of x^1..x^N of the power series of gf.

    Uses the linear recursion induced by the denominator; exact integers
    throughout (denominator constant term is 1).
    """
    if n_terms < 1:
        return []
    num = list(gf.numerator)
    den = list(gf.denominator)
    a: list[int] = []
    for m in range(0, n_terms + 1):
        c = num[m] if m < len(num) else 0
        for j in range(1, min(m, len(den) - 1) + 1):
            c -= den[j] * a[m - j]
        a.append(c)
    return a[1:]
