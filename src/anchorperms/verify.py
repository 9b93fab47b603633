"""Named invariant suites behind `anchorperms verify`.

Each suite returns (name, passed) pairs so the CLI and the test suite can
share one implementation.
"""

from __future__ import annotations

from itertools import islice

from . import oeis as oeis_mod
from .backtrack import count_brute, count_classes_fgh, enumerate_perms
from .closed_form import (
    FGH_RULES,
    H_ELIMINATION,
    K3_COEFFS,
    Recurrence,
    closed_table,
    count_k2,
    expand_gf,
    fg_two_term_table,
    fgh_table,
    gf_k2,
    gf_k3,
    k2_table,
    k3_table,
    rule_at,
)
from .core import ANCHORED, LemmaViolationError
from .profile_dp import term_table
from .structure import (
    JOKER, classify_departure, decompose_k2, departure_points, find_joker, reconstruct_k2,
)

Check = tuple[str, bool]

REFERENCE_G_VALUES = (1, 1, 2, 4, 10, 22, 45, 93)


def _count_spaced_subsets(n: int) -> int:
    """Subsets of {2..n-2} whose members pairwise differ by >= 3."""

    def rec(lo: int) -> int:
        if lo > n - 2:
            return 1
        return rec(lo + 1) + rec(lo + 3)

    return rec(2)


def _require(max_n: int, least: int) -> None:
    """A suite whose checks would run over an empty range is a usage error,
    not a pass."""
    if max_n < least:
        raise ValueError(f"max_n must be >= {least}")


def suite_lemma2(max_n: int = 16) -> list[Check]:
    _require(max_n, 1)
    checks = []
    for n in range(1, max_n + 1):
        perms = list(enumerate_perms(2, n, ANCHORED))
        ok = all(reconstruct_k2(decompose_k2(p)).entries == p.entries for p in perms)
        checks.append((f"k2 decompose/reconstruct round trip, n={n}", ok))
        checks.append(
            (
                f"k2 spaced-subset count equals closed form, n={n}",
                _count_spaced_subsets(n) == count_k2(n) == len(perms),
            )
        )
    return checks


def suite_lemma33(max_n: int = 12) -> list[Check]:
    _require(max_n, 1)
    checks = []
    for n in range(1, max_n + 1):
        all_ok = True
        joker_ok = True
        for p in enumerate_perms(3, n, ANCHORED):
            joker_positions = set(find_joker(p))
            for i in departure_points(p):
                try:
                    kind = classify_departure(p, i)
                except LemmaViolationError:
                    all_ok = False  # a counterexample to the dichotomy
                    continue
                # The factor itself starts one position after the departure.
                if (kind == JOKER) != (i + 1 in joker_positions):
                    joker_ok = False
        checks.append((f"lemma 3.3 dichotomy holds on full sweep, n={n}", all_ok))
        checks.append((f"joker detectors agree, n={n}", joker_ok))
    return checks


def suite_fgh(max_n: int = 13) -> list[Check]:
    _require(max_n, 6)  # the class relations are checked from n = 6
    checks = []
    vals = [count_classes_fgh(n) for n in range(1, max_n + 1)]
    seqs = _, g, h = [[v[i] for v in vals] for i in range(3)]
    for n in range(6, max_n + 1):
        for name, seq, rule in zip("FGH", seqs, FGH_RULES):
            checks.append((f"{name} recurrence at n={n}", seq[n - 1] == rule_at(rule, seqs, n)))
        checks.append(
            (f"H elimination identity at n={n}", h[n - 1] == rule_at(H_ELIMINATION, seqs, n))
        )
    checks.append(
        (
            "G table matches reference values for n <= 8",
            tuple(g[:8]) == REFERENCE_G_VALUES[: min(max_n, 8)],
        )
    )
    checks.append(
        (
            "closed-form F/G/H tables agree with filtered enumeration",
            [t.values() for t in fgh_table(max_n)] == seqs,
        )
    )
    return checks


def suite_recurrences(max_n: int = 16) -> list[Check]:
    _require(max_n, 8)  # the depth-8 relation is checked from n = 8
    checks = []
    n2 = min(max_n, 16)
    checks.append(
        (
            f"k=2 brute equals recurrence for n <= {n2}",
            [count_brute(2, n, ANCHORED) for n in range(1, n2 + 1)] == k2_table(n2),
        )
    )
    n3 = min(max_n, 13)
    brute3 = [count_brute(3, n, ANCHORED) for n in range(1, n3 + 1)]
    checks.append(
        (f"k=3 brute equals recurrence for n <= {n3}", brute3 == k3_table(n3))
    )
    # With a_0 = 0 prepended the relation already holds from n = 8.
    checks.append(
        (
            f"k=3 depth-8 recurrence holds for 8 <= n <= {n3}",
            list(islice(Recurrence(K3_COEFFS, (0, *brute3[:7])).terms(), 1, n3 + 1)) == brute3,
        )
    )
    big = max(max_n, 20)
    ft, _, ht = fgh_table(big)
    f2t, _ = fg_two_term_table(big)
    checks.append(
        (
            "three-sequence, two-sequence, and depth-8 F tables agree",
            ft.values() == f2t.values() == k3_table(big),
        )
    )
    return checks


def suite_gf(max_n: int = 200) -> list[Check]:
    _require(max_n, 1)
    return [
        (
            f"k=2 generating function expansion matches recurrence to n={max_n}",
            expand_gf(gf_k2(), max_n) == k2_table(max_n),
        ),
        (
            f"k=3 generating function expansion matches recurrence to n={max_n}",
            expand_gf(gf_k3(), max_n) == k3_table(max_n),
        ),
        (
            "k=2 dp table matches generating function",
            term_table(2, ANCHORED, max_n).values() == expand_gf(gf_k2(), max_n),
        ),
        (
            "k=3 dp table matches generating function",
            term_table(3, ANCHORED, max_n).values() == expand_gf(gf_k3(), max_n),
        ),
    ]


def suite_oeis(max_n: int = 60) -> list[Check]:
    """The check names the b-file's source header. Unless the file says it
    was fetched, it is a local fixture and the check is one of consistency
    only. Raises OfflineCacheMissError when neither cache nor
    network is available; the CLI maps that to the environment-error exit
    code."""
    _require(max_n, 1)
    table = oeis_mod.fetch_terms("A249665", oeis_mod.default_oeis_cache_dir())
    if table.provenance.startswith("fetched from "):
        subject = f"A249665 ({table.provenance}) fully matches"
    else:
        subject = f"consistency check: the local A249665 fixture ({table.provenance}) matches"
    report = oeis_mod.compare(closed_table(3, max_n), table)
    return [
        (
            f"{subject} the k=3 anchored table at shift {report.best_shift}",
            report.full_match_at_best_shift
            and report.best_shift in range(-3, 4),
        )
    ]


SUITES = {
    "lemma2": suite_lemma2,
    "lemma33": suite_lemma33,
    "fgh": suite_fgh,
    "recurrences": suite_recurrences,
    "gf": suite_gf,
    "oeis": suite_oeis,
}
