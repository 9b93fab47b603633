import random
from itertools import islice

import pytest

from anchorperms.closed_form import (
    K3_COEFFS, RationalGF, Recurrence, expand_gf, gf_k2, gf_k3, k2_table, k3_table,
)
from anchorperms.core import endpoints
from anchorperms.polys import PRIME_LADDER, poly_gcd
from anchorperms.profile_dp import term_table
from anchorperms.seqmine import (
    InsufficientDataError,
    conjecture_probe,
    find_recurrence,
    predict,
    to_gf,
)


def test_recovers_k2_recurrence():
    rec = find_recurrence(k2_table(30), max_order=6)
    assert rec.order == 3
    assert rec.coefficients == (1, 0, 1)


def test_recovers_k3_depth8_recurrence():
    rec = find_recurrence(k3_table(40), max_order=12)
    assert rec.order == 8
    assert rec.coefficients == K3_COEFFS


def test_recovers_fibonacci():
    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    rec = find_recurrence(fib, max_order=5)
    assert rec.order == 2
    assert rec.coefficients == (1, 1)


def test_allows_leading_transient():
    # 9, then Fibonacci: the relation only holds past the first term.
    terms = [9, 1, 1]
    while len(terms) < 26:
        terms.append(terms[-1] + terms[-2])
    rec = find_recurrence(terms, max_order=5)
    assert rec.order == 2
    assert rec.coefficients == (1, 1)
    assert rec.n0 >= 4


def test_no_low_order_recurrence_for_factorials():
    import math

    terms = [math.factorial(n) for n in range(1, 21)]
    assert find_recurrence(terms, max_order=5) is None


def test_insufficient_data_raises():
    with pytest.raises(InsufficientDataError):
        find_recurrence([1, 1, 2, 3, 5], max_order=4)
    with pytest.raises(ValueError):
        find_recurrence(k2_table(30), max_order=0)


def test_modular_presearch_path_agrees_with_plain_scan():
    # A loose order bound must not change the minimal recurrence found.
    terms = k3_table(100)
    rec = find_recurrence(terms, max_order=40)
    assert rec.order == 8
    assert rec.coefficients == K3_COEFFS


def test_coefficient_above_half_the_prime_is_lifted_exactly():
    # Both lifts fail on the first rung; the second lifts them.
    for m in (2**88 + 3, 2**300 + 3):
        rec = find_recurrence([m**n for n in range(1, 30)], max_order=5)
        assert rec.order == 1
        assert rec.coefficients == (m,)


def test_coefficient_above_half_the_last_rung_is_not_lifted():
    m = 2**520 + 3
    assert find_recurrence([m**n for n in range(1, 30)], max_order=5) is None


def test_terms_divisible_by_the_first_prime():
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    rec = find_recurrence([x * PRIME_LADDER[0] for x in fib], max_order=5)
    assert rec.order == 2
    assert rec.coefficients == (1, 1)


def test_every_rung_is_a_mersenne_prime():
    # Lucas-Lehmer: for an odd prime q, 2^q - 1 is prime iff s_(q-2) = 0,
    # where s_0 = 4 and s_(i+1) = s_i^2 - 2 mod 2^q - 1.
    assert list(PRIME_LADDER) == sorted(PRIME_LADDER)
    for m in PRIME_LADDER:
        q = m.bit_length()
        assert m == 2**q - 1
        assert all(q % d for d in range(2, q))
        s = 4
        for _ in range(q - 2):
            s = (s * s - 2) % m
        assert s == 0


def test_random_recurrences_with_wide_coefficients_are_recovered():
    rng = random.Random(17)
    for _ in range(200):
        order = rng.randint(1, 6)
        coeffs = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 500)) for _ in range(order)]
        coeffs[-1] = coeffs[-1] or 1
        initial = [rng.randint(-(2**20), 2**20) for _ in range(order)]
        n = 2 * order + 4 + rng.randrange(4)
        window = list(islice(Recurrence(tuple(coeffs), tuple(initial)).terms(), n))
        rec = find_recurrence(window, max_order=order)
        assert rec is not None and rec.order <= order
        assert list(islice(rec.terms(), n)) == window


def test_raising_max_order_keeps_the_result():
    # Period-10 word with one glitch at n = 20: a_n = a_{n-10} from n = 31.
    terms = [0, -1, 1, -2, -1, -2, 0, 2, 2, 2] * 5
    terms[19] = -1
    results = {find_recurrence(terms, max_order=m) for m in (20, 21, 22)}
    assert len(results) == 1


def test_predict_extends_sequence():
    terms = k2_table(25)
    rec = find_recurrence(terms[:20], max_order=6)
    assert predict(rec, terms[:20], 5) == terms[20:]
    with pytest.raises(ValueError):
        predict(rec, terms[:2], 1)


def test_to_gf_reproduces_proven_generating_functions():
    terms2 = k2_table(30)
    assert to_gf(find_recurrence(terms2, 6), terms2) == gf_k2()
    terms3 = k3_table(40)
    assert to_gf(find_recurrence(terms3, 12), terms3) == gf_k3()


def test_recurrence_with_a_transient_seeds_gf_and_prediction():
    # k = 5 with pinned endpoints (3, 4): the register is one term longer
    # than the recurrence's order, so the seed runs past `order`.
    values = term_table(5, endpoints(3, 4), 180).values()
    mined = values[:160]
    rec = find_recurrence(mined, 70)
    assert (rec.order, rec.n0) == (62, 64)
    assert rec.initial == tuple(mined[: rec.n0 - 1])
    assert expand_gf(to_gf(rec, mined), 180) == values
    assert predict(rec, mined, 20) == values[160:]


def test_to_gf_takes_the_numerator_from_the_given_terms():
    fib = [1, 1]
    lucas = [1, 3]
    while len(lucas) < 24:
        fib.append(fib[-1] + fib[-2])
        lucas.append(lucas[-1] + lucas[-2])
    rec = find_recurrence(fib, max_order=5)
    assert to_gf(rec, lucas) == RationalGF((0, 1, 2), (1, -1, -1))
    lucas[rec.n0 + 2] += 1
    with pytest.raises(ValueError):
        to_gf(rec, lucas)


def test_bm_certifies_the_paper_gfs_minimal():
    # BM's shortest register for a window of 2m + 4 terms, m the larger
    # degree, has the GF's own order and transient: no shorter one exists.
    for gf, m in ((gf_k2(), 3), (gf_k3(), 8)):
        assert m == max(len(gf.denominator), len(gf.numerator)) - 1
        terms = expand_gf(gf, 2 * m + 4)
        rec = find_recurrence(terms, m)
        assert (rec.order, rec.n0 - 1) == (len(gf.denominator) - 1, m)
        assert to_gf(rec, terms) == gf


def test_constant_sequence_mines_the_order_one_register():
    rec = find_recurrence([1] * 10, 3)
    assert rec == Recurrence((1,), (1,))
    assert to_gf(rec, [1] * 10) == RationalGF((0, 1), (1, -1))


def test_conjecture_probe_k2():
    report = conjecture_probe(2, terms_n=30, holdout=10)
    assert report.order == 3
    assert report.coefficients == (1, 0, 1)
    assert report.gf == gf_k2()
    assert report.holdout_match
    assert report.state_space_size == 8


def test_conjecture_probe_k4():
    report = conjecture_probe(4, terms_n=80, holdout=20)
    assert report.order == 31
    assert report.holdout_match
    assert report.state_space_size == 95
    assert report.gf.denominator[0] == 1
    assert len(report.gf.denominator) == report.order + 1
    # Exact, and independent of BM: the mined GF is in lowest terms.
    assert len(poly_gcd(list(report.gf.numerator), list(report.gf.denominator))) == 1


@pytest.fixture
def no_dp(monkeypatch):
    def term_table(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr("anchorperms.seqmine.term_table", term_table)


@pytest.mark.parametrize("holdout", [0, -1])
def test_conjecture_probe_rejects_a_holdout_below_one(holdout, no_dp):
    # Zero held-out terms would match vacuously; a negative count would
    # silently shorten the mining window. Neither reaches the DP.
    with pytest.raises(ValueError, match="holdout must be >= 1"):
        conjecture_probe(3, terms_n=40, holdout=holdout)


@pytest.mark.parametrize(
    "terms_n, max_order, error, message",
    [
        (60, 40, InsufficientDataError, "need at least 84 terms"),
        (40, 0, ValueError, "max_order must be >= 1"),
        (5, None, InsufficientDataError, "need at least 6 terms for max_order=1"),
    ],
)
def test_conjecture_probe_checks_the_window_before_the_dp(
    terms_n, max_order, error, message, no_dp
):
    with pytest.raises(error, match=message):
        conjecture_probe(7, terms_n, holdout=20, max_order=max_order)
