"""End-to-end acceptance checks.

Each test covers one criterion, prints a single PASS/FAIL line (run with
pytest -s to see them live), and asserts exact integer equality — no
tolerances anywhere. The slowest is the k=5 recurrence probe, which mines
an order-114 recurrence exactly; it took 1.7-2.0 s in isolation (Python
3.11, 2 cores), nearly all of it in the DP for 270 terms.
"""

import time

import pytest

from anchorperms.backtrack import count_brute
from anchorperms.cli import main
from anchorperms.closed_form import (
    K3_COEFFS,
    K3_INITIAL,
    count_k2,
    count_k3,
    expand_gf,
    gf_k2,
    gf_k3,
    k2_table,
    k3_table,
)
from anchorperms.core import ANCHORED
from anchorperms.oeis import compare, default_oeis_cache_dir, parse_bfile
from anchorperms.profile_dp import count_dp, term_table
from anchorperms.seqmine import conjecture_probe, find_recurrence, to_gf
from anchorperms.verify import (
    suite_fgh,
    suite_lemma2,
    suite_lemma33,
    suite_recurrences,
)

# Discovered once, then frozen as regression constants: minimal recurrence
# orders found by the miner for the anchored k=4 and k=5 sequences.
FROZEN_ORDER_K4 = 31
FROZEN_ORDER_K5 = 114


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok, criterion


def report_checks(criterion: str, checks) -> None:
    """report() over named suite checks, naming the ones that failed."""
    failed = [name for name, ok in checks if not ok]
    report(criterion + (f" (failed: {failed})" if failed else ""), not failed)


def test_criterion_01_k2_three_way_agreement():
    ok = all(
        count_brute(2, n, ANCHORED) == count_k2(n) == count_dp(2, n, ANCHORED)
        for n in range(1, 17)
    )
    ok = ok and term_table(2, ANCHORED, 200).values() == k2_table(200)
    report("criterion 1: k=2 brute = closed form = dp (n<=16; closed=dp to 200)", ok)


def test_criterion_02_k3_recurrence_reproduction():
    # The depth-8 recurrence on brute force is the suite's check for
    # 8 <= n <= 13.
    checks = suite_recurrences()
    seeds = tuple(count_brute(3, n, ANCHORED) for n in range(1, 9))
    checks.append(("brute seeds equal K3_INITIAL", seeds == K3_INITIAL))
    checks.append(
        ("dp equals closed form to n=200", term_table(3, ANCHORED, 200).values() == k3_table(200))
    )
    checks.append(("count_k3(200) is the last table term", count_k3(200) == k3_table(200)[-1]))
    report_checks("criterion 2: k=3 seeds + depth-8 recurrence on brute; closed=dp to 200", checks)


def test_criterion_03_fgh_system():
    report_checks(
        "criterion 3: F/G/H mutual recurrences + H elimination + G table", suite_fgh(13)
    )


def test_criterion_04_generating_functions():
    ok = expand_gf(gf_k2(), 200) == k2_table(200)
    ok = ok and expand_gf(gf_k3(), 200) == k3_table(200)
    ok = ok and gf_k2().numerator == (0, 1) and gf_k2().denominator == (1, -1, 0, -1)
    ok = ok and gf_k3().numerator == (0, 1, -1, 0, -1)
    ok = ok and gf_k3().denominator == (1, -2, 1, -2, -1, -1, 0, 1, 1)
    report("criterion 4: generating functions expand to the tables, polynomials exact", ok)


def test_criterion_05_miner_recovery():
    terms2 = term_table(2, ANCHORED, 40).values()
    rec2 = find_recurrence(terms2, max_order=10)
    terms3 = term_table(3, ANCHORED, 50).values()
    rec3 = find_recurrence(terms3, max_order=12)
    ok = rec2 is not None and rec2.order == 3 and rec2.coefficients == (1, 0, 1)
    ok = ok and rec3 is not None and rec3.order == 8 and rec3.coefficients == K3_COEFFS
    ok = ok and to_gf(rec2, terms2) == gf_k2()
    ok = ok and to_gf(rec3, terms3) == gf_k3()
    report("criterion 5: miner recovers the proven k=2 and k=3 recurrences and GFs", ok)


def test_criterion_06_conjecture_probe_k4_k5():
    r4 = conjecture_probe(4, terms_n=80, holdout=20)
    ok = r4 is not None and r4.holdout_match and r4.order == FROZEN_ORDER_K4
    r5 = conjecture_probe(5, terms_n=250, holdout=20)
    ok = ok and r5 is not None and r5.holdout_match and r5.order == FROZEN_ORDER_K5
    report(
        "criterion 6: k=4 and k=5 probes find recurrences matching 20 held-out terms",
        ok,
    )


def test_criterion_07_k2_decomposition():
    report_checks(
        "criterion 7: k=2 decompose/reconstruct round trip, I-set count matches",
        suite_lemma2(16),
    )


def test_criterion_08_departure_dichotomy():
    report_checks(
        "criterion 8: every +3 departure is Joker or cascading for n<=12", suite_lemma33(12)
    )


def test_criterion_09_oeis_fixture():
    fixture = (default_oeis_cache_dir() / "A249665.txt").read_text()
    theirs = parse_bfile(fixture)
    ours = term_table(3, ANCHORED, 60)
    r = compare(ours, theirs)
    ok = r.full_match_at_best_shift and r.best_shift in range(-3, 4)
    report(
        f"criterion 9: A249665 ({theirs.provenance}) fully matches the k=3 DP table"
        f" (shift {r.best_shift})",
        ok,
    )


def test_criterion_10_performance_floor(capsys):
    t0 = time.perf_counter()
    code_a = main(["table", "--k", "3", "--method", "dp", "--max-n", "200"])
    dp_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    code_b = main(["count", "--k", "3", "--n", "13", "--method", "brute"])
    brute_seconds = time.perf_counter() - t0
    capsys.readouterr()  # drop the table/count output
    ok = code_a == 0 and code_b == 0 and dp_seconds < 60 and brute_seconds < 60
    report(
        f"criterion 10: dp table to n=200 in {dp_seconds:.2f}s, "
        f"brute n=13 in {brute_seconds:.2f}s (both < 60s)",
        ok,
    )
