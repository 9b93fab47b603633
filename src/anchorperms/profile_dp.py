"""Polynomial-time exact counting for arbitrary fixed k.

A k-bounded permutation of [n] is a Hamiltonian path in the graph on
{1..n} with edges between values differing by at most k; the variant pins
the path's endpoints. Values are processed in increasing order, so only
the last k processed values can still gain neighbors. The DP state
(profile) records, for that window, each value's degree in the partial
linear forest plus, for each open end, the offset to the other end of its
segment, and how many path endpoints have already been committed among
values that left the window. Offsets are relative and name no segment, so
equal states are equal tuples by construction.

Profiles for a fixed k form a finite set, which is what makes the
generating function provably rational for every k via the transfer-matrix
method. The engine compiles that matrix lazily, once per k in a process:
a profile gets an integer id and its ends mask (the window slots that
hold the ends of the complete path it forms, -1 if none) when first
reached; its successor ids under each leaving rule (the degrees the oldest
value may leave with) are computed once, and a step is
``nxt[dst] += cur[src]`` over those edges. No edge needs a multiplicity:
the new value's degree and the degrees left in the window determine which
open ends it attached to. Row n sums the profiles whose ends mask is the
slots of the values pinned at n (any mask for a free variant).

Row n of a sweep does not depend on how far the sweep goes: its leaving
rules and designated slots read only the variant's kind and ``variant.ends(n)``.
So each graph keeps, per variant kind, the last sweep's rows and final
profile counts, and a later sweep of that variant replays them and steps on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .core import ANCHORED, CountTable, Variant, check_args, norm_k

# Slot encoding: (degree, offset). A saturated (degree 2) slot stores None.
# An open slot's offset leads to the other end of its segment: 0 for a lone
# value, None once that end has left the window as a path endpoint.
Slot = tuple[int, int | None]
Profile = tuple[tuple[Slot, ...], int]

_START: Profile = ((), 0)
_SLOTS: dict[Slot, Slot] = {}  # interned, so stored profiles share slots
# Leaving rules: bit d is set if the oldest value may leave with degree d.
# A pinned value ends the path, any other is interior; free allows either.
END, INTERIOR, EITHER = 0b010, 0b100, 0b110


def _attach_choices(slots: tuple[Slot, ...]) -> Iterator[tuple[int, ...]]:
    """Ways the new value can attach to open ends: none, one, or two ends
    at distinct slots of distinct segments (same segment would close a
    cycle, same slot would duplicate an edge)."""
    open_idx = [i for i, (deg, _) in enumerate(slots) if deg < 2]
    yield ()
    for i in open_idx:
        yield (i,)
    for a, i in enumerate(open_idx):
        off = slots[i][1]
        for j in open_idx[a + 1 :]:
            if j - i != off:  # j is not the other end of i's segment
                yield (i, j)


def _apply_attach(slots: tuple[Slot, ...], choice: tuple[int, ...]) -> list[Slot]:
    """Attach the new value to the chosen open ends and append its slot.
    Besides the chosen slots, only the two ends of the merged segment
    change: they now point at each other."""
    work = list(slots)
    if not choice:
        work.append((0, 0))
        return work
    work.append((len(choice), None))
    ends = []  # the other end of each chosen slot's segment; None if it left
    for i in choice:
        deg, off = work[i]
        work[i] = (deg + 1, None)  # a lone value is its own other end: reset below
        ends.append(None if off is None else i + off)
    if len(ends) == 1:
        ends.append(len(slots))  # the new value ends the segment
    a, b = ends
    if a is not None:
        work[a] = (work[a][0], None if b is None else b - a)
    if b is not None:
        work[b] = (work[b][0], None if a is None else a - b)
    return work


def _open_ends(slots: tuple[Slot, ...]) -> int:
    return sum(2 - deg for deg, _ in slots if deg < 2)


def _successors(profile: Profile, k: int, leave: int) -> Iterator[Profile]:
    """Profiles reached by placing the next value, one per attachment.
    When the window is full its oldest value leaves with a degree the
    leaving rule allows, and as a path endpoint only while one is left."""
    slots, closed = profile
    if closed == 2 and not _open_ends(slots):
        return  # a complete path: any further value would stay isolated
    leaving = len(slots) == k
    for choice in _attach_choices(slots):
        new_closed = closed
        if leaving:
            deg = slots[0][0] + (0 in choice)  # the leaving value's degree
            if not leave >> deg & 1 or deg == 1 and closed == 2:
                continue
        new = _apply_attach(slots, choice)
        if leaving:
            off = new.pop(0)[1]
            if deg == 1:
                new_closed += 1
                if off is not None:
                    new[off - 1] = (new[off - 1][0], None)  # its partner's other end left
                elif any(d < 2 for d, _ in new):
                    continue  # path sealed while another segment is still open
        yield tuple([_SLOTS.setdefault(slot, slot) for slot in new]), new_closed


def _ends_mask(profile: Profile) -> int:
    """The mask of the window slots that hold the ends of the one complete
    path the profile forms if its newest value is n; -1 if it forms none."""
    slots, closed = profile
    if closed + _open_ends(slots) != 2 or not all(deg for deg, _ in slots):
        return -1
    return sum(1 << idx for idx, (deg, _) in enumerate(slots) if deg == 1)


class _Graph:
    """The transfer matrix for fixed k, compiled lazily: profiles indexed
    in first-reached order, each edge list and ends mask computed once."""

    def __init__(self, k: int):
        self.k = k
        self.ids: dict[Profile, int] = {}
        self.profiles: list[Profile] = []
        self._edges: dict[int, list] = {END: [], INTERIOR: [], EITHER: []}  # [rule][pid]
        self.ends_mask: list[int] = []  # [pid]
        # Variant kind -> the last sweep of that kind: (variant, rows, profile
        # counts after the last row). Its rows list belongs to that sweep alone.
        self.last: dict[str, tuple[Variant, list[tuple[int, int, int]], dict[int, int]]] = {}

    def index(self, profile: Profile) -> int:
        pid = self.ids.get(profile)
        if pid is None:
            pid = self.ids[profile] = len(self.profiles)
            self.profiles.append(profile)
            self.ends_mask.append(_ends_mask(profile))
            for edges in self._edges.values():
                edges.append(None)
        return pid

    def edges(self, pid: int, leave: int) -> tuple[int, ...]:
        out = self._edges[leave][pid]
        if out is None:
            successors = _successors(self.profiles[pid], self.k, leave)
            out = self._edges[leave][pid] = tuple(map(self.index, successors))
        return out

    def step(self, cur: dict[int, int], leave: int) -> dict[int, int]:
        nxt: dict[int, int] = {}
        get, known = nxt.get, self._edges[leave]
        for src, cnt in cur.items():
            for dst in known[src] or self.edges(src, leave):
                nxt[dst] = get(dst, 0) + cnt
        return nxt

    def finished(self, cur: dict[int, int], designated: int | None) -> int:
        """The count of complete paths whose ends are the designated window
        slots (None: any slots, as in the free variant)."""
        masks = self.ends_mask
        if designated is None:
            return sum(cnt for pid, cnt in cur.items() if masks[pid] >= 0)
        return sum(cnt for pid, cnt in cur.items() if masks[pid] == designated)


@lru_cache(maxsize=16)
def _graph(k: int) -> _Graph:
    """The graph for k, shared by every sweep of every variant: edge lists
    are keyed by the leaving rule, and each profile has one ends mask."""
    return _Graph(k)


def sweep_terms(k, variant: Variant, max_n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, count, peak) for n = 1..max_n from one incremental sweep;
    peak is the largest number of simultaneous profiles so far. Rows the
    graph's last sweep of this variant's kind reached are replayed, not
    stepped, if it swept this variant. The arguments are checked at the
    call; that last sweep is read at the first row."""
    kk = check_args(k, max_n, variant)
    free = not variant.ends(max_n)

    def stream() -> Iterator[tuple[int, int, int]]:
        graph = _graph(kk)
        last = graph.last.get(variant.kind)
        if last is not None and last[0] == variant:
            rows, cur = last[1][:max_n], last[2]  # a copy: this sweep may append
            yield from rows
            peak = rows[-1][2]
        else:
            rows, cur, peak = [], {graph.index(_START): 1}, 1
        for n in range(len(rows) + 1, max_n + 1):
            ends = variant.ends(n)
            cur = graph.step(cur, EITHER if free else END if n - kk in ends else INTERIOR)
            peak = max(peak, len(cur))
            lo = max(1, n - kk + 1)  # the value in the window's first slot
            mask = None if free else sum(1 << (u - lo) for u in ends if u >= lo)
            # A single vertex is the trivial permutation, which qualifies only
            # if every pinned value is 1; a free path counts once per direction.
            if n == 1:
                count = int(all(u == 1 for u in ends))
            else:
                count = graph.finished(cur, mask) * (2 if free else 1)
            rows.append((n, count, peak))
            graph.last[variant.kind] = (variant, rows, cur)
            yield n, count, peak

    return stream()


def count_dp(k, n: int, variant: Variant = ANCHORED) -> int:
    """Exact count of k-bounded permutations under the variant."""
    for _, count, _ in sweep_terms(k, variant, n):
        pass
    return count


def term_table(k, variant: Variant = ANCHORED, max_n: int = 1) -> CountTable:
    """Counts for n = 1..max_n from a single incremental sweep."""
    return term_table_stats(k, variant, max_n)[0]


def term_table_stats(k, variant: Variant, max_n: int) -> tuple[CountTable, int]:
    """term_table plus the peak number of simultaneous profiles."""
    counts = []
    for _, count, peak in sweep_terms(k, variant, max_n):
        counts.append(count)
    return CountTable(k=norm_k(k), variant=variant, counts=counts, provenance="dp"), peak


def state_space_size(k) -> int:
    """Number of distinct profiles an anchored sweep reaches, by one walk of
    the shared graph along that sweep's edge lists: only value 1 leaves by
    END (a full window, no end left yet); every other step is INTERIOR."""
    graph = _graph(check_args(k))
    seen = {graph.index(_START)}
    todo = list(seen)
    while todo:
        pid = todo.pop()
        slots, closed = graph.profiles[pid]
        for dst in graph.edges(pid, INTERIOR if closed or len(slots) < graph.k else END):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return len(seen)
