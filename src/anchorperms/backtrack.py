"""Backtracking enumerator and brute-force counting oracle.

Everything else in the package is tested against this module. Enumeration
yields permutations in lexicographic order of their list notation. The
counting oracle walks the same pruned search tree but caches each (last
value, unused set) state, and still reports the node count of the full
tree.
"""

from __future__ import annotations

from typing import Iterator

from .core import ANCHORED, CountTable, Permutation, Variant, check_args, endpoints

JOKER_HEAD = (3, 1, 4, 2, 5)


def _feasible(a: int, free: int, k: int) -> bool:
    """Cheap pruning test after placing a, with `free` the bit mask of the
    unused values (bit v for value v): the lowest unused value must still be
    reachable, either directly from a or via some unused value within k
    above it."""
    if not free:
        return True
    m = (free & -free).bit_length() - 1
    return abs(a - m) <= k or bool(free >> (m + 1) & ((1 << k) - 1))


def _tree(k: int, n: int, variant: Variant) -> tuple[int, list[list[tuple[int, int]]]]:
    """The pruned search tree that both walkers below share: (checked k,
    nbrs), where nbrs[a] lists (v, bit of v) for the values that may follow
    a. The root is a virtual value 0 whose row holds the first values. The
    pinned last value is never placed before the last position, where the
    one value left closes the permutation if it lies within k."""
    kk = check_args(k, n, variant)
    ends = variant.ends(n)
    final = ends[-1] if ends else None
    nbrs = [[(v, 1 << v) for v in ends[:1] or range(1, n + 1)]]
    nbrs += (
        [(v, 1 << v) for v in range(max(1, a - kk), min(n, a + kk) + 1) if v != final]
        for a in range(1, n + 1)
    )
    return kk, nbrs


def enumerate_perms(
    k, n: int, variant: Variant = ANCHORED, *, prune: bool = True
) -> Iterator[Permutation]:
    """Yield every k-bounded permutation under the variant, in lexicographic
    order, each exactly once. Pruning is behavior-invisible; disable it only
    for differential testing."""
    kk, nbrs = _tree(k, n, variant)

    def stream() -> Iterator[Permutation]:
        # One loop over the levels, no recursion: prefix[0] is the root's 0
        # and rows[i] walks the candidates for the value after prefix[i].
        prefix, free, rows = [0], (1 << (n + 1)) - 2, [iter(nbrs[0])]
        while rows:
            if len(prefix) < n:
                for v, bit in rows[-1]:
                    if free & bit and (not prune or _feasible(v, free ^ bit, kk)):
                        prefix.append(v)
                        free ^= bit
                        rows.append(iter(nbrs[v]))
                        break
                else:
                    rows.pop()
                    free ^= 1 << prefix.pop()
                continue
            last = free.bit_length() - 1  # the one value left
            if abs(prefix[-1] - last) <= kk:
                yield Permutation((*prefix[1:], last))
            rows.pop()
            free ^= 1 << prefix.pop()

    return stream()  # the arguments are checked at the call, not at next()


def count_brute(k: int, n: int, variant: Variant = ANCHORED) -> int:
    """Number of k-bounded permutations under the variant."""
    return count_brute_stats(k, n, variant)[0]


def count_brute_stats(k: int, n: int, variant: Variant = ANCHORED) -> tuple[int, int]:
    """(count, nodes): the pruned search of `enumerate_perms`, counting its
    leaves and its tree nodes without building any permutation.

    A subtree depends only on its last value and its set of unused values,
    so each (value, set) state is walked once and its pair reused (the
    Bellman / Held-Karp subset recursion). `nodes` still counts the full
    tree, every repeated subtree included."""
    kk, nbrs = _tree(k, n, variant)
    shift = (n + 1).bit_length()
    memo: dict[int, tuple[int, int]] = {}  # free << shift | a -> pair

    def count(a: int, free: int, left: int) -> tuple[int, int]:
        """(completions, subtree nodes) of a prefix that ends in a (0 for
        the empty one) and leaves `left` >= 1 positions, and the values in
        `free`, to fill."""
        if left == 1:
            # One value is left (the pinned end, if any): close directly.
            return (1, 1) if abs(a - (free.bit_length() - 1)) <= kk else (0, 0)
        key = free << shift | a
        pair = memo.get(key)
        if pair is not None:
            return pair
        total = nodes = 0
        for v, bit in nbrs[a]:
            if free & bit:
                nodes += 1
                if _feasible(v, free ^ bit, kk):
                    c, m = count(v, free ^ bit, left - 1)
                    total += c
                    nodes += m
        memo[key] = total, nodes
        return total, nodes

    try:
        return count(0, (1 << (n + 1)) - 2, n)
    finally:
        # `count` closes over itself, a cycle that only the cyclic garbage
        # collector frees; empty the memo now so it does not wait for that.
        memo.clear()


def count_classes_fgh(n: int) -> tuple[int, int, int]:
    """Brute-force (F, G, H) for k = 3.

    F: anchored; G: first entry 1 or 2, last entry n; H: first entry 3,
    last entry n, first five entries not the Joker head (3,1,4,2,5).
    """
    f = count_brute(3, n, ANCHORED)
    g = f + count_brute(3, n, endpoints(2, n)) if n >= 3 else f
    h = 0
    if n > 3:
        h = sum(
            1
            for p in enumerate_perms(3, n, endpoints(3, n))
            if p.entries[:5] != JOKER_HEAD
        )
    return f, g, h


def brute_table(k: int, max_n: int, variant: Variant = ANCHORED) -> CountTable:
    """Brute-force counts for n = 1..max_n; the pinned ends are checked at
    max_n, and a length below a pinned value counts 0, as in term_table."""
    kk = check_args(k, max_n, variant)
    counts = [
        count_brute(kk, n, variant) if max(variant.ends(n), default=n) <= n else 0
        for n in range(1, max_n + 1)
    ]
    return CountTable(k=kk, variant=variant, counts=counts, provenance="brute")
