"""Minimal linear recurrence discovery from exact count tables.

This is the experimental probe for whether the anchored counting sequences
have rational generating functions for every k, not just the proven k <= 3.

The miner runs Berlekamp-Massey (BM; Massey 1969, "Shift-register
synthesis and BCH decoding") mod a prime, lifts the result symmetrically to
integers and accepts it only after an exact check on every term. It climbs
a ladder of two Mersenne primes, 2^89 - 1 and then 2^521 - 1, so one pass
lifts coefficients of up to 88 bits (k <= 6) and the second up to 520 bits
(k = 7 needs 325). The minimality certificate: an integer recurrence
reduced mod p is a shift register of the same length, so the linear
complexity mod p is at most the one over Q. With twice that many terms the
shortest register is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Sequence

from .core import ANCHORED
from .closed_form import RationalGF, Recurrence
from .polys import PRIME_LADDER, trim
from .profile_dp import state_space_size, term_table


class InsufficientDataError(ValueError):
    """Too few terms to certify a fit at the requested maximum order."""


def _berlekamp_massey(terms: list[int], p: int) -> tuple[list[int], int]:
    """(connection polynomial C with C[0] = 1 and deg C <= L, length L) of
    the shortest shift register generating the terms modulo p."""
    s = [t % p for t in terms]
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for n in range(len(s)):
        d = sum(x * y for x, y in zip(c, s[n::-1])) % p
        if d:
            factor = d * pow(last, -1, p) % p
            prev = c[:]
            c += [0] * (len(b) + shift - len(c))
            for i, x in enumerate(b):
                c[i + shift] = (c[i + shift] - factor * x) % p
            if 2 * length <= n:
                length, b, last, shift = n + 1 - length, prev, d, 0
        shift += 1
    return (c + [0] * length)[: length + 1], length


def _check_window(n_terms: int, max_order: int) -> None:
    """A mining window must hold 2 * max_order + 4 terms, max_order >= 1."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if n_terms < 2 * max_order + 4:
        raise InsufficientDataError(
            f"insufficient data: need at least {2 * max_order + 4} terms"
            f" for max_order={max_order}, got {n_terms}"
        )


def find_recurrence(terms: Sequence[int], max_order: int) -> Recurrence | None:
    """Minimal-order integer linear recurrence fitting the terms.

    Terms are indexed from n = 1. BM's shortest register for the window,
    of length L and connection polynomial C = 1 - c_1 x - ... - c_r x^r,
    is the Recurrence of those c_j seeded with the first L terms: order
    r = deg C, n0 = L + 1. It is returned only if its terms() reproduce the
    window, r <= max_order, L - r <= max_order and L + r < len(terms);
    else None. A window shorter than 2 * L may hide a lower-order fit with
    a longer transient.

    The 2 * max_order + 4 terms the window must hold determine a register
    uniquely only if L <= max_order + 2. A recurrence whose order plus
    transient exceeds half the window can therefore come back None,
    meaning "not determined by this window", not "no such recurrence".

    BM runs once per rung of PRIME_LADDER, and the first register whose
    lift verifies is returned. A lift that fails climbs to the next rung
    only if 2 * L <= len(terms), where the window determines the register
    mod p; otherwise, or past the last rung, the result is None."""
    terms = list(terms)
    _check_window(len(terms), max_order)
    for p in PRIME_LADDER:
        conn, L = _berlekamp_massey(terms, p)
        coeffs = tuple(trim([-x if x <= p // 2 else p - x for x in conn[1:]]))
        # C = 1 (no coefficients): the terms are 0 mod p from n = L + 1 on.
        rec = Recurrence(coeffs, tuple(terms[:L])) if coeffs else None
        if rec and all(a == b for a, b in zip(rec.terms(), terms)):
            r = rec.order
            if max(r, L - r) > max_order or L + r >= len(terms):
                return None
            return rec
        if 2 * L > len(terms):
            return None
    return None


def predict(rec: Recurrence, seed: Sequence[int], count: int) -> list[int]:
    """The `count` terms that follow `seed` under the recurrence; the seed
    must hold at least `order` terms."""
    seeded = Recurrence(rec.coefficients, tuple(seed))
    return list(islice(seeded.terms(), len(seed), len(seed) + count))


def to_gf(rec: Recurrence, terms: Sequence[int]) -> RationalGF:
    """Rational generating function Sum terms_n x^n of the recurrence
    seeded with the terms before n0; ValueError unless it reproduces every
    given term. Only the n0 coefficients of C * (0, *seed) below x^n0 are
    built, C = 1 - c_1 x - ... - c_r x^r: the recurrence cancels the rest.

    For a register find_recurrence returns, with the seed it was mined
    from, the fraction is in lowest terms. BM's register of length L gives
    num = x * P with L = max(deg C, deg P + 1). By Gauss's lemma a common
    factor g over Q can be taken primitive in Z[x], so C / g and P / g are
    integer polynomials and C / g has constant term 1. Mod p at the rung
    that verified, they form a register of length <= L - deg g generating
    the window, against BM's minimality. For any other recurrence or seed
    the fraction may not be reduced; nothing here checks it."""
    seeded = Recurrence(rec.coefficients, tuple(terms[: rec.n0 - 1]))
    for n, (a, b) in enumerate(zip(seeded.terms(), terms), start=1):
        if a != b:
            raise ValueError(f"recurrence fails to reproduce term {n}")
    den = (1, *(-c for c in rec.coefficients))
    s = (0, *seeded.initial)
    num = trim([sum(map(mul, den[: m + 1], s[m::-1])) for m in range(rec.n0)])
    return RationalGF(tuple(num), den)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one conjecture probe. Evidence, not a verdict: a found
    recurrence with matching holdout supports rationality for this k but
    proves nothing."""

    k: int
    order: int
    coefficients: tuple[int, ...]
    gf: RationalGF
    holdout_match: bool
    state_space_size: int


def conjecture_probe(
    k: int, terms_n: int, holdout: int, max_order: int | None = None
) -> ProbeReport | None:
    """Mine a recurrence from DP-generated anchored counts and validate it
    on held-out DP terms. None when no recurrence of the allowed order
    fits the mining window. The holdout (a holdout below 1 would check
    nothing) and the window are checked before any DP work."""
    if holdout < 1:
        raise ValueError("holdout must be >= 1")
    max_order = max(1, (terms_n - 4) // 2) if max_order is None else max_order
    _check_window(terms_n, max_order)
    all_terms = term_table(k, ANCHORED, terms_n + holdout).values()
    mine_terms = all_terms[:terms_n]
    rec = find_recurrence(mine_terms, max_order)
    if rec is None:
        return None
    return ProbeReport(
        k=k,
        order=rec.order,
        coefficients=rec.coefficients,
        gf=to_gf(rec, mine_terms),
        holdout_match=predict(rec, mine_terms, holdout) == all_terms[terms_n:],
        state_space_size=state_space_size(k),
    )
