import pytest

from anchorperms.backtrack import count_brute
from anchorperms.closed_form import count_k2, k3_table
from anchorperms.core import ANCHORED, FREE, endpoints
from anchorperms.profile_dp import (
    count_dp,
    state_space_size,
    term_table,
    term_table_stats,
)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("variant", [ANCHORED, FREE], ids=["anchored", "free"])
def test_dp_matches_brute_force(k, variant):
    for n in range(1, 9):
        assert count_dp(k, n, variant) == count_brute(k, n, variant)


def test_dp_matches_brute_force_endpoints():
    for n in range(2, 8):
        for s in range(1, n + 1):
            for e in range(1, n + 1):
                if s == e:
                    continue
                v = endpoints(s, e)
                assert count_dp(3, n, v) == count_brute(3, n, v)


def test_dp_matches_closed_forms_deep():
    assert term_table(2, ANCHORED, 60).values() == [count_k2(n) for n in range(1, 61)]
    assert term_table(3, ANCHORED, 60).values() == k3_table(60)


def test_dp_known_values():
    assert count_dp(3, 8, ANCHORED) == 56
    assert count_dp(3, 9, ANCHORED) == 118
    assert count_dp(1, 5, ANCHORED) == 1
    assert count_dp(1, 1, FREE) == 1


def test_free_is_twice_undirected_path_count():
    # Reversal pairs up free variants, so free counts are even for n >= 2.
    for k in (2, 3, 4):
        for n in range(2, 10):
            assert count_dp(k, n, FREE) % 2 == 0


def test_term_table_single_sweep_consistent_with_pointwise():
    t = term_table(4, ANCHORED, 12)
    for n in range(1, 13):
        assert t[n] == count_dp(4, n, ANCHORED)


def test_term_table_stats_reports_peak():
    t, peak = term_table_stats(3, ANCHORED, 30)
    assert t.values() == k3_table(30)
    assert peak >= 1


def test_term_table_stats_validates_like_term_table():
    for table_fn in (term_table, term_table_stats):
        with pytest.raises(ValueError):
            table_fn(3, endpoints(1, 9), 5)
        with pytest.raises(ValueError):
            table_fn(3, ANCHORED, 0)


def test_state_space_sizes_frozen():
    assert [state_space_size(k) for k in range(1, 6)] == [3, 8, 26, 95, 365]


def test_invalid_arguments():
    with pytest.raises(ValueError):
        count_dp(0, 5, ANCHORED)
    with pytest.raises(ValueError):
        count_dp(2, 0, ANCHORED)
    with pytest.raises(ValueError):
        count_dp(2, 3, endpoints(1, 9))
