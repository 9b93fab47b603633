import functools
import gc
import itertools
import tracemalloc

import pytest

from anchorperms.backtrack import (
    brute_table,
    count_brute,
    count_brute_stats,
    count_classes_fgh,
    enumerate_perms,
)
from anchorperms.closed_form import count_k2
from anchorperms.core import ANCHORED, FREE, Permutation, endpoints, is_k_bounded
from anchorperms.profile_dp import term_table


def entries(k, n, variant=ANCHORED, **kw):
    return [p.entries for p in enumerate_perms(k, n, variant, **kw)]


def test_enumerate_known_streams():
    assert entries(2, 5) == [(1, 2, 3, 4, 5), (1, 2, 4, 3, 5), (1, 3, 2, 4, 5)]
    assert entries(1, 4) == [(1, 2, 3, 4)]
    assert entries(3, 1) == [(1,)]


def test_count_brute_known_values():
    assert count_brute(3, 5, ANCHORED) == 6
    assert count_brute(3, 6, ANCHORED) == 14
    assert count_brute(4, 5, ANCHORED) == 6


@functools.lru_cache(maxsize=1)  # the tests walk n in the outer loop
def _all_perms(n):
    return [Permutation(e) for e in itertools.permutations(range(1, n + 1))]


def _filter_reference(k, n, variant):
    return [p.entries for p in _all_perms(n) if is_k_bounded(p, k) and variant.matches(p)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", [ANCHORED, FREE], ids=["anchored", "free"])
def test_completeness_against_full_filter(k, variant):
    for n in range(1, 9):
        assert entries(k, n, variant) == _filter_reference(k, n, variant)


def test_endpoints_variant_against_filter():
    for n in range(2, 7):
        for s in range(1, n + 1):
            for e in range(1, n + 1):
                if s == e:
                    continue
                v = endpoints(s, e)
                for k in range(1, 6):
                    expected = _filter_reference(k, n, v)
                    assert entries(k, n, v) == expected, (k, n, v)
                    assert entries(k, n, v, prune=False) == expected, (k, n, v)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_stream_sound_sorted_and_duplicate_free(k):
    for n in range(1, 10):
        stream = entries(k, n)
        assert all(
            is_k_bounded(Permutation(e), k) and e[0] == 1 and e[-1] == n
            for e in stream
        )
        assert stream == sorted(stream)
        assert len(stream) == len(set(stream))


def test_pruning_is_behavior_invisible():
    for k in (2, 3, 4):
        for n in range(1, 9):
            assert entries(k, n, prune=True) == entries(k, n, prune=False)
            assert entries(k, n, FREE, prune=True) == entries(k, n, FREE, prune=False)


def test_k2_recurrence_on_brute_counts():
    r = [count_brute(2, n, ANCHORED) for n in range(1, 17)]
    for n in range(4, 17):
        assert r[n - 1] == r[n - 2] + r[n - 4]
    assert r == [count_k2(n) for n in range(1, 17)]


def test_count_classes_fgh_known_values():
    assert count_classes_fgh(5) == (6, 10, 3)
    assert count_classes_fgh(4) == (2, 4, 2)
    assert count_classes_fgh(1) == (1, 1, 0)


def test_fgh_mutual_recurrences_hold():
    vals = {n: count_classes_fgh(n) for n in range(1, 11)}
    f = {n: v[0] for n, v in vals.items()}
    g = {n: v[1] for n, v in vals.items()}
    h = {n: v[2] for n, v in vals.items()}
    for n in range(6, 11):
        assert f[n] == g[n - 1] + h[n - 1] + f[n - 5]
        assert g[n] == f[n] + g[n - 2] + f[n - 3] + g[n - 4] + h[n - 2]
        assert h[n] == f[n - 3] + g[n - 3] + f[n - 4] + g[n - 5] + h[n - 3]


def test_brute_table_and_stats():
    t = brute_table(3, 8)
    assert t.values() == [1, 1, 1, 2, 6, 14, 28, 56]
    count, nodes = count_brute_stats(3, 8, ANCHORED)
    assert count == 56
    assert nodes >= count


@pytest.mark.parametrize(
    ("args", "expected"),
    [
        ((3, 8, ANCHORED), (56, 408)),
        ((4, 9, FREE), (15860, 72550)),
        ((3, 9, endpoints(3, 9)), (57, 647)),
        ((6, 10, ANCHORED), (16800, 80734)),
        ((3, 13, ANCHORED), (2401, 33794)),
    ],
)
def test_count_brute_stats_frozen_search_tree(args, expected):
    # Frozen (count, nodes) of the pruned search: a changed node count
    # means a changed search tree.
    assert count_brute_stats(*args) == expected
    assert count_brute(*args) == expected[0]


def _unmemoized_stats(k, n, variant):
    # The full walk of the pruned search tree that count_brute_stats
    # memoizes, on sets instead of bit masks: every subtree is visited.
    ends = variant.ends(n)
    final = ends[-1] if ends else None
    nodes = 0

    def walk(a, free):
        nonlocal nodes
        if len(free) == 1:
            (last,) = free
            nodes += abs(a - last) <= k
            return int(abs(a - last) <= k)
        total = 0
        for v in sorted(free - {final}):
            if abs(v - a) <= k:
                nodes += 1
                rest = free - {v}
                m = min(rest)
                if abs(v - m) <= k or any(m < u <= m + k for u in rest):
                    total += walk(v, rest)
        return total

    total = 0
    for first in ends[:1] or range(1, n + 1):
        nodes += 1
        total += walk(first, set(range(1, n + 1)) - {first}) if n > 1 else 1
    return total, nodes


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_count_brute_stats_matches_the_full_tree_walk(k):
    for n in range(1, 10):
        variants = [ANCHORED, FREE] + [
            endpoints(s, e) for s in range(1, n + 1) for e in range(1, n + 1) if s != e
        ]
        for v in variants:
            expected = _unmemoized_stats(k, n, v)
            assert count_brute_stats(k, n, v) == expected, (k, n, v)
            assert sum(1 for _ in enumerate_perms(k, n, v, prune=False)) == expected[0]


def test_enumerate_has_no_depth_limit():
    # One loop over the levels: no recursion, whatever the length.
    assert next(enumerate_perms(2, 3000)).entries == tuple(range(1, 3001))
    assert sum(1 for _ in enumerate_perms(1, 5000)) == 1


def test_count_brute_releases_its_memo():
    # The nested counter is a reference cycle that only the cyclic
    # collector frees; its memo must be emptied before the call returns.
    count_brute(4, 10, FREE)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            count_brute(4, 10, FREE)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 1 << 20, grown


def test_brute_table_rejects_empty_range():
    # Like term_table: a table needs max_n >= 1.
    for max_n in (0, -2):
        with pytest.raises(ValueError, match="n must be >= 1"):
            brute_table(3, max_n)


def test_brute_table_follows_the_dp_endpoint_rule():
    # The pinned ends are checked once, at max_n; a shorter length than a
    # pinned value counts 0.
    for max_n in range(4, 9):
        brute = brute_table(3, max_n, endpoints(3, 4)).values()
        assert brute == term_table(3, endpoints(3, 4), max_n).values()
        assert brute[:3] == [0, 0, 0]
    with pytest.raises(ValueError, match="endpoints 3,4 out of range 1..3"):
        brute_table(3, 3, endpoints(3, 4))
    with pytest.raises(ValueError, match="endpoints 3,4 out of range 1..3"):
        term_table(3, endpoints(3, 4), 3)


def test_invalid_n_rejected():
    # enumerate_perms checks its arguments at the call, before any next().
    with pytest.raises(ValueError):
        enumerate_perms(2, 0, ANCHORED)
    with pytest.raises(ValueError):
        count_brute(2, 0, ANCHORED)
    for call in (
        lambda: count_brute(0, 5),
        lambda: enumerate_perms(0, 3),
        lambda: brute_table(0, 4),
    ):
        with pytest.raises(ValueError, match="k must be >= 1"):
            call()
