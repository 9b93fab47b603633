import json
import math
import os
import pickle
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorperms
from anchorperms.backtrack import count_brute, enumerate_perms
from anchorperms.closed_form import closed_table, count_k2, k3_table
from anchorperms.core import ANCHORED, FREE, endpoints
from anchorperms.profile_dp import (
    count_dp,
    state_space_size,
    sweep_terms,
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_term_table_matches_pointwise_and_brute_every_variant(k):
    # A free or endpoints path can be complete before the sweep ends (its
    # second end leaves the window as the last value is placed): every
    # entry must count it, not only the last.
    max_n = 9
    variants = [ANCHORED, FREE] + [
        endpoints(s, e) for s in range(1, max_n + 1) for e in range(1, max_n + 1) if s != e
    ]
    for variant in variants:
        table = term_table(k, variant, max_n)
        first = max(variant.start, variant.end) if variant.kind == "endpoints" else 1
        for n in range(first, max_n + 1):
            assert table[n] == count_dp(k, n, variant) == count_brute(k, n, variant), (variant, n)


def test_term_table_is_zero_below_the_pinned_values():
    # No permutation of [n] starts at s and ends at e when max(s, e) > n;
    # that includes n = 1, the single-vertex path.
    assert term_table(3, endpoints(1, 2), 6).values() == [0, 1, 1, 2, 4, 8]
    for s in range(1, 6):
        for e in range(1, 6):
            if s != e:
                table = term_table(3, endpoints(s, e), 5)
                assert all(table[n] == 0 for n in range(1, max(s, e))), (s, e)
    assert term_table(3, endpoints(1, 1), 1).values() == [1]
    assert term_table(3, ANCHORED, 1).values() == term_table(3, FREE, 1).values() == [1]


@st.composite
def dp_cases(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    kinds = ["anchored", "free"] + (["endpoints"] if n >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "endpoints":
        s, e = draw(st.permutations(range(1, n + 1)))[:2]
        variant = endpoints(s, e)
    else:
        variant = ANCHORED if kind == "anchored" else FREE
    return k, n, variant, draw(st.integers(n, 8))


# No per-example deadline: streaming the largest draws through
# enumerate_perms (k = 5, n = 8, free: 15 600 permutations) takes longer
# than hypothesis's default 200 ms.
@settings(deadline=None)
@given(dp_cases())
def test_dp_brute_and_table_agree_on_random_cases(case):
    k, n, variant, max_n = case
    dp = count_dp(k, n, variant)
    brute = count_brute(k, n, variant)
    assert dp == brute
    assert brute == sum(1 for _ in enumerate_perms(k, n, variant))
    assert term_table(k, variant, max_n)[n] == dp
    if variant == ANCHORED and k <= 3:
        assert dp == closed_table(k, n)[n]


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


def test_windows_as_wide_as_the_permutation():
    # With k >= n - 1 no gap is too large, so every anchored permutation and
    # every permutation counts. These sweeps store the largest offsets a
    # window of n values holds.
    for n in range(2, 9):
        for k in (n - 1, n + 5):
            assert count_dp(k, n, ANCHORED) == math.factorial(n - 2), (k, n)
            assert count_dp(k, n, FREE) == math.factorial(n), (k, n)


def test_term_table_single_sweep_consistent_with_pointwise():
    t = term_table(4, ANCHORED, 12)
    for n in range(1, 13):
        assert t[n] == count_dp(4, n, ANCHORED)


def test_term_table_stats_reports_peak():
    t, _ = term_table_stats(3, ANCHORED, 30)
    assert t.values() == k3_table(30)
    # Peak profile counts at n = 30 for k = 1..6. Two encodings of one
    # state that compared unequal would count it twice and raise these.
    frozen = [
        (ANCHORED, [1, 4, 15, 56, 215, 852]),
        (FREE, [1, 7, 37, 151, 601, 2424]),
        (endpoints(2, 3), [1, 2, 16, 68, 276, 1137]),
    ]
    for variant, peaks in frozen:
        assert [term_table_stats(k, variant, 30)[1] for k in range(1, 7)] == peaks, variant


def test_term_table_stats_validates_like_term_table():
    for table_fn in (term_table, term_table_stats):
        with pytest.raises(ValueError):
            table_fn(3, endpoints(1, 9), 5)
        with pytest.raises(ValueError):
            table_fn(3, ANCHORED, 0)


def test_state_space_sizes_frozen():
    assert [state_space_size(k) for k in range(1, 8)] == [3, 8, 26, 95, 365, 1438, 5802]


def test_state_space_sizes_frozen_after_other_sweeps():
    # Free and endpoints sweeps share the anchored graph and reach profiles
    # the anchored rule never does. Those may not count toward the state
    # space.
    for k in range(1, 6):
        term_table(k, FREE, 9)
        for s, e in ((2, 3), (3, 2), (4, 6), (5, 2)):
            term_table(k, endpoints(s, e), 9)
    assert [state_space_size(k) for k in range(1, 6)] == [3, 8, 26, 95, 365]


# Mixed requests as (function, arguments). Several share a k, so in one
# process later requests reuse the profiles earlier ones reached; in the
# endpoint requests marked *, both pinned values leave the window, which
# reaches profiles the anchored rule never does.
CALL_ORDER_REQUESTS = [
    (count_dp, (4, 8, endpoints(2, 3))),  # *
    (term_table_stats, (4, ANCHORED, 10)),
    (count_dp, (3, 7, FREE)),
    (term_table_stats, (5, endpoints(2, 6), 8)),
    (state_space_size, (4,)),
    (count_dp, (5, 9, ANCHORED)),
    (term_table_stats, (3, endpoints(4, 2), 8)),  # *
    (state_space_size, (3,)),
    (count_dp, (4, 6, ANCHORED)),
    (term_table_stats, (4, FREE, 8)),
    (state_space_size, (5,)),
    (count_dp, (5, 8, endpoints(3, 1))),  # *
    (term_table_stats, (3, ANCHORED, 12)),
    (count_dp, (4, 8, endpoints(3, 5))),
    # Shorter, equal and longer requests of one variant: replayed or resumed
    # from whichever ran first.
    (term_table_stats, (4, FREE, 5)),
    (term_table_stats, (4, FREE, 11)),
    (count_dp, (4, 8, FREE)),
    (term_table_stats, (3, ANCHORED, 12)),
]

# Runs the pickled requests from stdin in the order given by argv[1] and
# prints each result, in request order, as JSON.
CALL_ORDER_CHILD = """
import json, pickle, sys
requests = pickle.load(sys.stdin.buffer)
order = list(range(len(requests)))
results = [None] * len(requests)
for i in (order[::-1] if sys.argv[1] == "reversed" else order):
    fn, args = requests[i]
    out = fn(*args)
    if isinstance(out, tuple):
        out = [out[0].values(), out[1]]
    elif not isinstance(out, int):  # a sweep_terms generator
        out = [list(row) for row in out]
    results[i] = out
print(json.dumps(results))
"""


def _run_in_fresh_interpreter(order, requests=CALL_ORDER_REQUESTS):
    src = str(Path(anchorperms.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CALL_ORDER_CHILD, order],
        input=pickle.dumps(requests),
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_results_do_not_depend_on_call_order():
    forward = _run_in_fresh_interpreter("forward")
    assert _run_in_fresh_interpreter("reversed") == forward
    for (fn, args), result in zip(CALL_ORDER_REQUESTS, forward):
        if fn is state_space_size:
            assert result == [3, 8, 26, 95, 365][args[0] - 1]
        elif fn is count_dp:
            k, n, variant = args
            assert n > 8 or result == count_brute(k, n, variant), args
        else:
            k, variant, max_n = args
            for n, count in enumerate(result[0], start=1):
                if n <= 8 and max(variant.ends(n), default=n) <= n:
                    assert count == count_brute(k, n, variant), (args, n)


# Each sweep below is the first of its variant on its graph in a fresh
# interpreter, so none of its rows is replayed or resumed.
RESUMED, PINNED = endpoints(3, 1), endpoints(2, 3)
FRESH_SWEEPS = [
    (sweep_terms, (4, RESUMED, 14)),
    (sweep_terms, (5, ANCHORED, 12)),
    (sweep_terms, (5, PINNED, 12)),
    (sweep_terms, (5, FREE, 12)),
]


@pytest.fixture(scope="module")
def fresh():
    """(k, variant) -> the rows of a fresh sweep, as lists, checked against
    brute force for n <= 8."""
    rows = _run_in_fresh_interpreter("forward", FRESH_SWEEPS)
    out = {}
    for (_, (k, variant, _)), sweep in zip(FRESH_SWEEPS, rows):
        for n, count, _ in sweep[:8]:
            if max(variant.ends(n), default=n) <= n:
                assert count == count_brute(k, n, variant), (k, variant, n)
        out[k, variant] = sweep
    return out


def _rows(k, variant, max_n):
    return [list(row) for row in sweep_terms(k, variant, max_n)]


def _start_cold(k):
    # A sweep of another endpoints variant takes the graph's stored sweep of
    # that kind, so the next RESUMED sweep starts from n = 1.
    count_dp(k, 2, endpoints(2, 1))


def test_replayed_and_resumed_sweeps_equal_a_fresh_one(fresh):
    want = fresh[4, RESUMED]
    _start_cold(4)
    # Ascending (each resumes the last), equal, descending (replays), longer.
    for max_n in (3, 5, 9, 12, 12, 7, 3, 12, 14):
        assert _rows(4, RESUMED, max_n) == want[:max_n], max_n
        table, peak = term_table_stats(4, RESUMED, max_n)
        assert (table.values(), peak) == ([r[1] for r in want[:max_n]], want[max_n - 1][2])
        assert count_dp(4, max_n, RESUMED) == want[max_n - 1][1]


def test_sweeps_of_one_variant_in_lockstep(fresh):
    # Each sweep appends to its own rows, never to rows another sweep
    # stored, so neither sees the other's steps twice.
    want = fresh[4, RESUMED]
    _start_cold(4)
    a, b = sweep_terms(4, RESUMED, 10), sweep_terms(4, RESUMED, 12)
    pairs = list(zip(a, b))
    assert [list(x) for x, _ in pairs] == [list(y) for _, y in pairs] == want[:10]
    assert [list(y) for y in b] == want[10:12]
    assert _rows(4, RESUMED, 14) == want


def test_abandoned_sweep_then_a_longer_table(fresh):
    want = fresh[4, RESUMED]
    _start_cold(4)
    sweep = sweep_terms(4, RESUMED, 12)
    assert [list(row) for row in islice(sweep, 5)] == want[:5]
    sweep.close()
    table, peak = term_table_stats(4, RESUMED, 12)
    assert (table.values(), peak) == ([r[1] for r in want[:12]], want[11][2])


def test_variants_taking_turns_on_the_shared_graph(fresh):
    # Free, anchored and pinned sweeps of one k share one graph, which keeps
    # the last sweep of each variant kind. In a fresh interpreter, each of
    # them starts cold (9), resumes (12) and replays (10) while the other
    # two take turns between its requests.
    turns = [(variant, max_n) for max_n in (9, 12, 10) for variant in (FREE, ANCHORED, PINNED)]
    rows = _run_in_fresh_interpreter("forward", [(sweep_terms, (5, *turn)) for turn in turns])
    for (variant, max_n), sweep in zip(turns, rows):
        assert sweep == fresh[5, variant][:max_n], (variant, max_n)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        count_dp(0, 5, ANCHORED)
    with pytest.raises(ValueError):
        count_dp(2, 0, ANCHORED)
    with pytest.raises(ValueError):
        count_dp(2, 3, endpoints(1, 9))


def test_sweeps_past_the_profile_offset_limit_fail_at_the_call():
    # Profiles store offsets in 6 bits. Each request below is rejected
    # before any step; none may be run without the check.
    with pytest.raises(ValueError, match="min\\(k, n - 1\\) <= 31"):
        count_dp(33, 33)
    with pytest.raises(ValueError, match="<= 31"):
        sweep_terms(40, ANCHORED, 33)
    with pytest.raises(ValueError, match="<= 31"):
        term_table(32, FREE, 40)
    with pytest.raises(ValueError, match="<= 31"):
        state_space_size(33)
    # A large k with a small n keeps a small window.
    assert count_dp(100, 8) == math.factorial(6)


def test_sweep_checks_its_arguments_at_the_call():
    # A bad request raises before any row is asked for.
    with pytest.raises(ValueError, match="k must be >= 1"):
        sweep_terms(0, ANCHORED, 3)
    with pytest.raises(ValueError):
        sweep_terms(3, endpoints(5, 1), 3)
