"""Backtracking enumerator and brute-force counting oracle.

Everything else in the package is tested against this module. Enumeration
yields permutations in lexicographic order of their list notation.
"""

from __future__ import annotations

from typing import Iterator

from .core import (
    ANCHORED,
    CountTable,
    Permutation,
    Variant,
    endpoints,
    norm_k,
)

JOKER_HEAD = (3, 1, 4, 2, 5)


def _first_candidates(n: int, variant: Variant) -> list[int]:
    if variant.kind == "anchored":
        return [1]
    if variant.kind == "endpoints":
        return [variant.start]
    return list(range(1, n + 1))


def _reachable(prefix: list[int], used: list[bool], k: int, n: int) -> bool:
    """Cheap feasibility check: the minimum unused value must still be
    reachable, either directly from the last entry or via some unused
    value within k above it."""
    m = None
    for v in range(1, n + 1):
        if not used[v]:
            m = v
            break
    if m is None:
        return True
    a = prefix[-1]
    if abs(a - m) <= k:
        return True
    return any(not used[v] for v in range(m + 1, min(n, m + k) + 1))


def enumerate_perms(
    k, n: int, variant: Variant = ANCHORED, *, prune: bool = True
) -> Iterator[Permutation]:
    """Yield every k-bounded permutation under the variant, in lexicographic
    order, each exactly once. Pruning is behavior-invisible; disable it only
    for differential testing."""
    kk = norm_k(k)
    if n < 1:
        raise ValueError("n must be >= 1")
    variant.check_range(n)

    final = None
    if variant.kind == "anchored":
        final = n
    elif variant.kind == "endpoints":
        final = variant.end

    used = [False] * (n + 1)
    prefix: list[int] = []

    def extend() -> Iterator[Permutation]:
        if len(prefix) == n:
            yield Permutation(tuple(prefix))
            return
        a = prefix[-1]
        last_pos = len(prefix) == n - 1
        for v in range(max(1, a - kk), min(n, a + kk) + 1):
            if used[v]:
                continue
            if final is not None:
                if last_pos and v != final:
                    continue
                if not last_pos and v == final and prune:
                    continue
            used[v] = True
            prefix.append(v)
            if not prune or _reachable(prefix, used, kk, n):
                yield from extend()
            prefix.pop()
            used[v] = False

    for first in _first_candidates(n, variant):
        if not 1 <= first <= n:
            continue
        used[first] = True
        prefix.append(first)
        yield from extend()
        prefix.pop()
        used[first] = False


def count_brute(k, n: int, variant: Variant = ANCHORED, *, prune: bool = True) -> int:
    """Number of k-bounded permutations under the variant; streams the
    search rather than materializing the permutations."""
    return sum(1 for _ in enumerate_perms(k, n, variant, prune=prune))


def count_brute_stats(k, n: int, variant: Variant = ANCHORED) -> tuple[int, int]:
    """(count, nodes): search-tree node count for benchmarking."""
    kk = norm_k(k)
    variant.check_range(n)
    final = None
    if variant.kind == "anchored":
        final = n
    elif variant.kind == "endpoints":
        final = variant.end

    used = [False] * (n + 1)
    prefix: list[int] = []
    nodes = 0

    def count() -> int:
        nonlocal nodes
        if len(prefix) == n:
            return 1
        total = 0
        a = prefix[-1]
        last_pos = len(prefix) == n - 1
        for v in range(max(1, a - kk), min(n, a + kk) + 1):
            if used[v]:
                continue
            if final is not None:
                if last_pos and v != final:
                    continue
                if not last_pos and v == final:
                    continue
            used[v] = True
            prefix.append(v)
            nodes += 1
            if _reachable(prefix, used, kk, n):
                total += count()
            prefix.pop()
            used[v] = False
        return total

    total = 0
    for first in _first_candidates(n, variant):
        if not 1 <= first <= n:
            continue
        used[first] = True
        prefix.append(first)
        nodes += 1
        total += count()
        prefix.pop()
        used[first] = False
    return total, nodes


def _count_endpoint(k: int, n: int, start: int, end: int) -> int:
    """count_brute for a fixed start/end pair, 0 when the pair is infeasible
    for this n (out of range or coincident with n > 1)."""
    if not (1 <= start <= n and 1 <= end <= n):
        return 0
    if n > 1 and start == end:
        return 0
    if n == 1:
        return 1
    return count_brute(k, n, endpoints(start, end))


def count_classes_fgh(n: int) -> tuple[int, int, int]:
    """Brute-force (F, G, H) for k = 3.

    F: anchored; G: first entry 1 or 2, last entry n; H: first entry 3,
    last entry n, first five entries not the Joker head (3,1,4,2,5).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = count_brute(3, n, ANCHORED)
    g = _count_endpoint(3, n, 1, n) + _count_endpoint(3, n, 2, n)
    if not (1 <= 3 <= n) or (n > 1 and 3 == n) or n == 1:
        h = 0
    else:
        h = sum(
            1
            for p in enumerate_perms(3, n, endpoints(3, n))
            if p.entries[:5] != JOKER_HEAD
        )
    return f, g, h


def brute_table(k, max_n: int, variant: Variant = ANCHORED) -> CountTable:
    kk = norm_k(k)
    terms = {n: count_brute(kk, n, variant) for n in range(1, max_n + 1)}
    return CountTable(k=kk, variant=variant, terms=terms, provenance="brute")
