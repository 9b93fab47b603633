"""Small exact polynomial helpers over the rationals.

Polynomials are coefficient lists in ascending degree order. Only what the
generating-function code needs: normalization, division and gcd.
`Fraction` is imported only inside the exact division and gcd, which only
`closed_form.RationalGF.reduced` uses.
"""

from __future__ import annotations

# The Mersenne primes 2^89 - 1 and 2^521 - 1: the rungs seqmine's miner
# climbs.
PRIME_LADDER = ((1 << 89) - 1, (1 << 521) - 1)


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Exact division with remainder over Q."""
    from fractions import Fraction
    b = trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim([Fraction(x) for x in a])
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = q[shift] = Fraction(r[-1], b[-1])
        for j, y in enumerate(b):
            r[shift + j] -= c * y  # subtract c * x^shift * b
        r = trim(r)
    return trim(q), r


def poly_gcd(a: list, b: list) -> list:
    """Monic gcd over Q (empty list for gcd(0,0))."""
    from fractions import Fraction
    a = trim([Fraction(x) for x in a])
    b = trim([Fraction(x) for x in b])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a

