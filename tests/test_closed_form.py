import dataclasses
import tracemalloc
from itertools import islice

import pytest

from anchorperms.backtrack import count_brute, count_classes_fgh
from anchorperms.closed_form import (
    FGH_SEEDS_F,
    FGH_SEEDS_G,
    FGH_SEEDS_H,
    FG_RULES,
    FGH_RULES,
    H_ELIMINATION,
    K3_COEFFS,
    RationalGF,
    Recurrence,
    closed_count,
    closed_table,
    count_k1,
    count_k2,
    count_k3,
    expand_gf,
    fg_two_term_table,
    fgh_table,
    gf_k2,
    gf_k3,
    h_eliminated,
    k2_table,
    k3_table,
)
from anchorperms.core import ANCHORED, FREE, CountTable, endpoints
from anchorperms.polys import poly_gcd


def test_count_k1():
    assert count_k1(1) == 1
    assert count_k1(7) == 1
    assert count_k1(100) == 1


def test_count_k2_known_values():
    assert count_k2(3) == 1
    assert count_k2(7) == 6
    assert count_k2(12) == 41
    assert k2_table(7) == [1, 1, 1, 2, 3, 4, 6]


def test_count_k3_known_values():
    assert count_k3(8) == 56
    assert count_k3(9) == 118
    assert count_k3(10) == 254
    assert k3_table(8) == [1, 1, 1, 2, 6, 14, 28, 56]


def test_closed_table_serves_k1_to_k3():
    for k, vals in ((1, [1] * 60), (2, k2_table(60)), (3, k3_table(60))):
        t = closed_table(k, 60)
        assert isinstance(t, CountTable)
        assert (t.k, t.variant, t.provenance, t.offset) == (k, ANCHORED, "closed-form", 1)
        assert t.values() == vals
    assert closed_table(3, 1).values() == [1]
    for k, count in ((1, count_k1), (2, count_k2), (3, count_k3)):
        vals = closed_table(k, 200).values()
        assert [count(n) for n in range(1, 201)] == vals
        assert [closed_count(k, n) for n in range(1, 201)] == vals


def test_closed_count_holds_a_window_not_the_sequence():
    # Term 20000 of the k = 3 sequence has about 2.7 KB; the whole list of
    # terms before it is tens of MB.
    tracemalloc.start()
    try:
        count_k3(20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_closed_table_rejects_bad_arguments():
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            closed_table(k, 5)
    with pytest.raises(ValueError, match="closed-form"):
        closed_table(4, 5)
    with pytest.raises(ValueError, match="closed-form"):  # the k check comes before the n check
        closed_table(4, 0)
    # The closed forms count anchored permutations only.
    with pytest.raises(ValueError, match="closed-form"):
        closed_table(3, 5, FREE)
    with pytest.raises(ValueError, match="closed-form"):
        closed_count(3, 5, endpoints(1, 5))
    for max_n in (0, -2):
        for call in (closed_table, closed_count):
            with pytest.raises(ValueError, match="n must be >= 1"):
                call(3, max_n)
    with pytest.raises(ValueError, match="closed-form"):
        closed_count(4, 5)
    with pytest.raises(ValueError, match="k must be >= 1"):
        closed_count(0, 5)


def test_tables_are_empty_below_one():
    for max_n in (0, -2):
        assert k2_table(max_n) == []
        assert k3_table(max_n) == []


def test_recurrence_terms():
    fib = Recurrence((1, 1), (1, 1))
    assert list(islice(fib.terms(), 7)) == [1, 1, 2, 3, 5, 8, 13]
    # A seed longer than the order is kept as given.
    assert list(islice(Recurrence((1, 1), (5, 1, 1)).terms(), 5)) == [5, 1, 1, 2, 3]


def test_count_k2_matches_brute_oracle():
    for n in range(1, 17):
        assert count_k2(n) == count_brute(2, n, ANCHORED)


def test_count_k3_matches_brute_oracle():
    for n in range(1, 13):
        assert count_k3(n) == count_brute(3, n, ANCHORED)


def test_fgh_seeds_match_filtered_enumeration():
    for n in range(1, 6):
        assert count_classes_fgh(n) == (
            FGH_SEEDS_F[n - 1],
            FGH_SEEDS_G[n - 1],
            FGH_SEEDS_H[n - 1],
        )


def test_fgh_table_known_values():
    f, g, h = fgh_table(8)
    assert g[8] == 93
    assert h[6] == 5
    assert f[7] == 28 == g[6] + h[6] + f[2]


def test_two_term_system_agrees_with_three_term():
    f3, g3, _ = fgh_table(30)
    f2, g2 = fg_two_term_table(30)
    assert f2.values() == f3.values()
    assert g2.values() == g3.values()
    assert f2[1] == 1
    assert f2[5] == 6 and g2[5] == 10
    assert f2[9] == count_k3(9) == 118


def test_fgh_agrees_with_depth8_recurrence():
    f, _, _ = fgh_table(40)
    assert f.values() == k3_table(40)


def test_rule_data_is_well_formed():
    # (own sequence, number of sequences, rule); H_ELIMINATION defines H
    # (sequence 2) from F and G.
    cases = [(own, 3, rule) for own, rule in enumerate(FGH_RULES)]
    cases += [(own, 2, rule) for own, rule in enumerate(FG_RULES)]
    cases.append((2, 3, H_ELIMINATION))
    for own, width, rule in cases:
        for _, seq, lag in rule:
            assert 0 <= seq < width
            assert lag >= 0
            assert lag > 0 or seq < own


def test_h_eliminated():
    assert h_eliminated(4) == 2
    assert h_eliminated(5) == 3
    assert h_eliminated(1) == 0
    _, _, h = fgh_table(20)
    for n in range(1, 21):
        assert h_eliminated(n) == h[n]


def test_gf_polynomials_exact():
    g2 = gf_k2()
    assert g2.numerator == (0, 1)
    assert g2.denominator == (1, -1, 0, -1)
    g3 = gf_k3()
    assert g3.numerator == (0, 1, -1, 0, -1)
    assert g3.denominator == (1, -2, 1, -2, -1, -1, 0, 1, 1)
    for gf in (g2, g3):
        assert gf.denominator[0] == 1
        assert len(poly_gcd(list(gf.numerator), list(gf.denominator))) == 1


def test_expand_gf_examples():
    assert expand_gf(gf_k2(), 7) == [1, 1, 1, 2, 3, 4, 6]
    assert expand_gf(gf_k3(), 8) == [1, 1, 1, 2, 6, 14, 28, 56]
    assert expand_gf(RationalGF((0, 1), (1, -1)), 5) == [1, 1, 1, 1, 1]
    assert expand_gf(gf_k2(), 0) == []


def test_expand_gf_matches_recurrences_to_200():
    assert expand_gf(gf_k2(), 200) == k2_table(200)
    assert expand_gf(gf_k3(), 200) == k3_table(200)


def test_depth8_recurrence_also_holds_at_n8():
    # The relation is needed from n = 9 but, with the zero convention for
    # indices below 1, it already holds at n = 8.
    f = k3_table(13)
    for n in range(8, 14):
        assert f[n - 1] == sum(
            c * (f[n - 1 - j] if n - j >= 1 else 0)
            for j, c in enumerate(K3_COEFFS, start=1)
        )


def test_recurrence_type_invariants():
    with pytest.raises(ValueError):
        Recurrence((1, 0), (1, 1))
    with pytest.raises(ValueError):
        Recurrence((), (1,))
    with pytest.raises(ValueError):
        Recurrence((1, 1), (1,))
    # Order and n0 follow from the two stored fields.
    rec = Recurrence((1, 1), (5, 1, 1))
    assert [f.name for f in dataclasses.fields(rec)] == ["coefficients", "initial"]
    assert (rec.order, rec.n0) == (2, 4)


def test_rational_gf_type_invariants():
    with pytest.raises(ValueError):
        RationalGF((0, 1), (2, -1))


def test_rational_gf_reduced_preserves_value():
    # Scaling is fixed so the denominator's constant term is 1.
    assert RationalGF.reduced([0, 2], [2, -2]) == RationalGF((0, 1), (1, -1))
    # Common polynomial factors are stripped: (2x - 2x^2)/(2 - 2x) = x.
    assert RationalGF.reduced([0, 2, -2], [2, -2]) == RationalGF((0, 1), (1,))
    # A numerator with content > 1 must not be rescaled on its own.
    gf = RationalGF.reduced([0, 4], [1, -1])
    assert gf == RationalGF((0, 4), (1, -1))
    assert expand_gf(gf, 3) == [4, 4, 4]


def test_bad_n_rejected():
    for fn in (count_k1, count_k2, count_k3, h_eliminated):
        with pytest.raises(ValueError):
            fn(0)
    for fn in (count_k1, count_k2, count_k3):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n must be >= 1"):
                fn(n)
