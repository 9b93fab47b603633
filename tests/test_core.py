import pytest
from hypothesis import given
from hypothesis import strategies as st

from anchorperms.core import (
    ANCHORED,
    FREE,
    CountTable,
    Permutation,
    Variant,
    check_args,
    endpoints,
    gaps,
    is_anchored,
    is_k_bounded,
)

perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda e: Permutation(tuple(e)))


def test_is_k_bounded_known_values():
    assert is_k_bounded(Permutation((1, 4, 2, 3, 6, 5, 7, 8, 9)), 3)
    assert is_k_bounded(Permutation(tuple(range(1, 10))), 1)
    assert not is_k_bounded(Permutation((1, 4, 2, 3)), 2)


def test_is_anchored_known_values():
    assert is_anchored(Permutation((1, 3, 2, 4)))
    assert is_anchored(Permutation((1,)))
    assert not is_anchored(Permutation((2, 1, 3)))


def test_gaps_known_values():
    assert gaps(Permutation((1, 3, 2, 4))) == (2, -1, 2)
    assert gaps(Permutation(tuple(range(1, 5)))) == (1, 1, 1)
    assert gaps(Permutation((1, 4, 2, 5, 3, 6))) == (3, -2, 3, -2, 3)
    assert gaps(Permutation((1,))) == ()


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_variant_invariants():
    with pytest.raises(ValueError):
        Variant("bogus")
    with pytest.raises(ValueError):
        Variant("endpoints")
    endpoints(1, 1).check_range(1)
    with pytest.raises(ValueError):
        endpoints(2, 2).check_range(3)
    with pytest.raises(ValueError):
        endpoints(1, 9).check_range(5)
    assert ANCHORED.ends(7) == (1, 7)
    assert endpoints(3, 5).ends(7) == (3, 5)
    assert FREE.ends(7) == ()


def test_check_args_order_and_messages():
    assert check_args(3, 5, endpoints(2, 4)) == 3
    for args, message in (
        ((0, -1, endpoints(9, 9)), "k must be >= 1"),
        ((2, 0, endpoints(9, 9)), "n must be >= 1"),
        ((2, 3, endpoints(2, 2)), "start and end must differ"),
    ):
        with pytest.raises(ValueError, match=message):
            check_args(*args)


@pytest.mark.parametrize("k", [2.5, 3.9, 3.0, "3", True, None])
def test_k_must_be_an_int_or_a_gap_spec(k):
    # A gap bound of another type is rejected, never truncated: at 2.5 the
    # DP used to return the k = 2 count.
    from anchorperms.backtrack import count_brute
    from anchorperms.closed_form import closed_count
    from anchorperms.profile_dp import count_dp, term_table

    for call in (
        lambda: count_dp(k, 6),
        lambda: term_table(k, ANCHORED, 6),
        lambda: closed_count(k, 9),
        lambda: count_brute(k, 6),
        lambda: check_args(k),
        lambda: is_k_bounded(Permutation((1, 2)), k),
    ):
        with pytest.raises(ValueError, match="k must be an int"):
            call()
    assert check_args(3) == 3


@pytest.mark.parametrize("n", [5.0, True, "5"])
def test_n_and_pinned_values_must_be_ints(n):
    # Checked like k: at True every method used to return the n = 1 count,
    # and a float failed differently in each.
    from anchorperms.backtrack import count_brute
    from anchorperms.closed_form import closed_count
    from anchorperms.profile_dp import count_dp, term_table

    for call in (
        lambda: count_dp(2, n),
        lambda: term_table(2, ANCHORED, n),
        lambda: count_brute(2, n),
        lambda: closed_count(2, n),
        lambda: check_args(2, n),
    ):
        with pytest.raises(ValueError, match="n must be an int"):
            call()
    for start in (1.0, True):
        with pytest.raises(ValueError, match="endpoint values must be ints"):
            endpoints(start, 3)


def test_count_table_contiguity():
    # A list of counts from the offset on has no gap and no wrong offset to
    # reject; a negative count is still refused.
    with pytest.raises(ValueError):
        CountTable(k=2, variant=ANCHORED, counts=[1, -1])
    t = CountTable(k=2, variant=ANCHORED, counts=[1, 1, 2], offset=3)
    assert [t[n] for n in (3, 4, 5)] == t.values() == [1, 1, 2]
    t.values().append(7)  # values() is a copy
    assert len(t) == 3


@pytest.mark.parametrize("offset", [0, 1])
def test_count_table_index_out_of_range_raises_key_error(offset):
    t = CountTable(k=2, variant=ANCHORED, counts=[5, 6, 7], offset=offset)
    assert t[offset] == 5 and t[offset + 2] == 7
    for n in (offset - 1, offset + 3):
        with pytest.raises(KeyError):
            t[n]


@given(perms, st.integers(1, 6))
def test_reversal_symmetry(p, k):
    assert is_k_bounded(p, k) == is_k_bounded(Permutation(p.entries[::-1]), k)


@given(perms, st.integers(1, 6))
def test_monotone_relaxation(p, k):
    if is_k_bounded(p, k):
        assert is_k_bounded(p, k + 1)


def test_reversal_swaps_endpoint_classes():
    # For n <= 8 reversal is a bijection from permutations starting at 1
    # and ending at n onto those starting at n and ending at 1.
    from anchorperms.backtrack import enumerate_perms

    for n in range(2, 9):
        fwd = {p.entries for p in enumerate_perms(2, n, endpoints(1, n))}
        bwd = {p.entries for p in enumerate_perms(2, n, endpoints(n, 1))}
        assert {e[::-1] for e in fwd} == bwd


@given(perms)
def test_variant_matches(p):
    assert FREE.matches(p)
    assert ANCHORED.matches(p) == (p.entries[0] == 1 and p.entries[-1] == p.n)
