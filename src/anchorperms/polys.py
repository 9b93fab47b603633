"""Small exact polynomial helpers over the rationals.

Polynomials are coefficient lists in ascending degree order. Only what the
generating-function code needs: arithmetic, gcd, normalization, and a
modular coprimality certificate.
"""

from __future__ import annotations

from fractions import Fraction

# The Mersenne primes 2^89 - 1 and 2^521 - 1: the rungs seqmine's miner
# climbs, and (the first) coprime_mod_p's modulus.
PRIME_LADDER = ((1 << 89) - 1, (1 << 521) - 1)


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Exact division with remainder over Q."""
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
    a = trim([Fraction(x) for x in a])
    b = trim([Fraction(x) for x in b])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def coprime_mod_p(a: list, b: list) -> bool:
    """Certificate that a and b (integer or rational) are coprime over Q.

    True when p = 2^89 - 1 divides no coefficient denominator nor b's
    leading coefficient, and gcd(a mod p, b mod p) is a nonzero constant.
    By Gauss's lemma a common factor over Q would survive reduction mod p
    with its degree intact. False proves nothing; use poly_gcd then."""
    p = PRIME_LADDER[0]
    a, b = trim(list(a)), trim(list(b))
    if not b or b[-1].numerator % p == 0 or any(x.denominator % p == 0 for x in a + b):
        return False

    def mod_p(poly: list) -> list:
        return trim([x.numerator * pow(x.denominator, -1, p) % p for x in poly])

    u, v = mod_p(b), mod_p(a)
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):
            c = u[-1] * inv % p
            shift = len(u) - len(v)
            for j, y in enumerate(v):
                u[shift + j] = (u[shift + j] - c * y) % p
            u = trim(u)
        u, v = v, u
    return len(u) == 1
