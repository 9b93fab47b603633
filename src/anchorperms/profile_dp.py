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
method. The engine compiles that matrix lazily, once per (k, free) in a
process: a profile gets an integer id when first reached; its successor ids
and whether it finishes a path are computed once, and a step is
``nxt[dst] += cur[src]`` over those edges. No
edge needs a multiplicity: the new value's degree and the degrees left in
the window determine which open ends it attached to.

Row n of a sweep does not depend on how far the sweep goes: `free` depends
only on the variant's kind, and the pinned flag and finish mask read only
``variant.ends(n)``. So each graph keeps its last sweep's rows and final
profile counts, and a later sweep of the same variant replays those rows
and steps on from there.
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


def _successors(profile: Profile, k: int, pinned: bool, free: bool) -> Iterator[Profile]:
    """Profiles reached by placing the next value, one per attachment.
    When the window is full its oldest value leaves: it must end the path
    if `pinned`, else be interior; in the free variant either is fine."""
    slots, closed = profile
    if closed == 2 and not _open_ends(slots):
        return  # a complete path: any further value would stay isolated
    leaving = len(slots) == k
    for choice in _attach_choices(slots):
        new_closed = closed
        if leaving:
            deg = slots[0][0] + (0 in choice)  # the leaving value's degree
            if deg == 0:
                continue  # isolated value can never rejoin the path
            if deg == 2 and pinned and not free:
                continue  # pinned endpoint became interior
            if deg == 1 and (not pinned or closed == 2):
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


def _finishes(profile: Profile, designated: int | None) -> bool:
    """Whether the profile is one complete path if its newest value is n;
    `designated` masks the window slots of pinned endpoints (None: free)."""
    slots, closed = profile
    return closed + _open_ends(slots) == 2 and all(
        deg and (designated is None or (deg < 2) == (designated >> idx & 1))
        for idx, (deg, _) in enumerate(slots)
    )


class _Graph:
    """The transfer matrix for fixed k, compiled lazily: profiles indexed
    in first-reached order, each edge list and finish flag computed once."""

    def __init__(self, k: int, free: bool):
        self.k, self.free = k, free
        self.ids: dict[Profile, int] = {}
        self.profiles: list[Profile] = []
        self._edges: tuple[list, list] = ([], [])  # [pinned][pid] -> successor ids or None
        self._finish: dict[int | None, bytearray] = {}  # 0 unknown, 1 no, 2 yes
        # The last sweep run on this graph: (variant, rows, profile counts
        # after the last row). Its rows list belongs to that sweep alone.
        self.last: tuple[Variant, list[tuple[int, int, int]], dict[int, int]] | None = None

    def index(self, profile: Profile) -> int:
        pid = self.ids.get(profile)
        if pid is None:
            pid = self.ids[profile] = len(self.profiles)
            self.profiles.append(profile)
            for edges in self._edges:
                edges.append(None)
        return pid

    def edges(self, pid: int, pinned: bool) -> tuple[int, ...]:
        out = self._edges[pinned][pid]
        if out is None:
            successors = _successors(self.profiles[pid], self.k, pinned, self.free)
            out = self._edges[pinned][pid] = tuple(map(self.index, successors))
        return out

    def step(self, cur: dict[int, int], pinned: bool) -> dict[int, int]:
        nxt: dict[int, int] = {}
        get = nxt.get
        for src, cnt in cur.items():
            for dst in self.edges(src, pinned):
                nxt[dst] = get(dst, 0) + cnt
        return nxt

    def finished(self, cur: dict[int, int], designated: int | None) -> int:
        flags = self._finish.setdefault(designated, bytearray())
        flags.extend(bytes(len(self.profiles) - len(flags)))
        for pid in cur:
            if not flags[pid]:
                flags[pid] = 1 + _finishes(self.profiles[pid], designated)
        return sum(cnt for pid, cnt in cur.items() if flags[pid] == 2)


@lru_cache(maxsize=16)
def _graph(k: int, free: bool) -> _Graph:
    """The graph for (k, free), shared by every sweep: successors depend only
    on (profile, k, pinned, free) and finish flags are keyed by the
    designated mask, so anchored and endpoints variants share free=False."""
    return _Graph(k, free)


def sweep_terms(k, variant: Variant, max_n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, count, peak) for n = 1..max_n from one incremental sweep;
    peak is the largest number of simultaneous profiles so far. Rows the
    graph's last sweep of this variant reached are replayed, not stepped.
    The arguments are checked at the call; the graph's last sweep is read
    at the first row."""
    kk = check_args(k, max_n, variant)
    free = not variant.ends(max_n)

    def stream() -> Iterator[tuple[int, int, int]]:
        graph = _graph(kk, free)
        last = graph.last
        if last is not None and last[0] == variant:
            rows, cur = last[1][:max_n], last[2]  # a copy: this sweep may append
            yield from rows
            peak = rows[-1][2]
        else:
            rows, cur, peak = [], {graph.index(_START): 1}, 1
        for n in range(len(rows) + 1, max_n + 1):
            ends = variant.ends(n)
            cur = graph.step(cur, free or n - kk in ends)
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
            graph.last = (variant, rows, cur)
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
    terms = {}
    for n, count, peak in sweep_terms(k, variant, max_n):
        terms[n] = count
    return CountTable(k=norm_k(k), variant=variant, terms=terms, provenance="dp"), peak


def state_space_size(k) -> int:
    """Number of distinct reachable profiles under the anchored
    variant: the warm-up profiles plus the steady closure."""
    kk = check_args(k)
    graph = _graph(kk, False)
    cur = {graph.index(_START): 1}
    warm_up = set(cur)
    for v in range(1, kk + 2):
        cur = graph.step(cur, v - kk == 1)
        warm_up |= cur.keys()
    # Value 1 has left the window; no later leaving value is pinned, so all
    # later steps follow the same edges. The shared graph may also hold ids
    # only endpoints sweeps reach, so count what this rule reaches.
    seen, todo = set(cur), list(cur)
    while todo:
        new = set(graph.edges(todo.pop(), False)) - seen
        seen |= new
        todo += new
    return len(warm_up | seen)
