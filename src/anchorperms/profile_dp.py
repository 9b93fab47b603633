"""Polynomial-time exact counting for arbitrary fixed k.

A k-bounded permutation of [n] is a Hamiltonian path in the graph on
{1..n} with edges between values differing by at most k; the variant pins
the path's endpoints. Values are processed in increasing order, so only
the last k processed values can still gain neighbors. The DP state
(profile) records, for that window, each value's degree in the partial
linear forest plus, for each open end, the offset to the other end of its
segment, and how many path endpoints have already been committed among
values that left the window, in one ``bytes`` key. Offsets are relative
and name no segment, so equal states are equal keys by construction. They
fit 6 bits, so a sweep with min(k, n - 1) > 31 raises ValueError.

Profiles for a fixed k form a finite set, which is what makes the
generating function provably rational for every k via the transfer-matrix
method. The engine compiles that matrix lazily, once per k in a process:
a profile gets an integer id when first reached, and if it forms a
complete path it is filed under its ends mask (the window slots that hold
that path's ends); its successor ids under each leaving rule (the degrees
the oldest value may leave with) are computed once, and a step is
``nxt[dst] += cur[src]`` over those edges. No edge needs a multiplicity:
the new value's degree and the degrees left in the window determine which
open ends it attached to. Row n sums the profiles filed under the mask of
the slots of the values pinned at n (every complete one for a free
variant).

Row n of a sweep does not depend on how far the sweep goes: its leaving
rules and designated slots read only the variant's kind and ``variant.ends(n)``.
So each graph keeps, per variant kind, the last sweep's rows and final
profile counts, and a later sweep of that variant replays them and steps on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .core import ANCHORED, CountTable, Variant, check_args, norm_k

# Profile bytes: byte 0 counts the path ends already committed, then one
# byte per window slot, oldest first: ``degree << 6 | code``. The code is
# offset + 32 for an open slot's offset to the other end of its segment (a
# lone value is 32), and 0 once that end has left the window as a path
# endpoint, or when the slot is saturated (128). So a byte >= 64 has a
# neighbor and a byte < 128 is open. A step places value n after a window
# of min(k, n - 1) values, so its offsets reach that far; the code holds 31.
_START, _MAX_OFFSET = b"\0", 31
# Leaving rules: bit d is set if the oldest value may leave with degree d.
# A pinned value ends the path, any other is interior; free allows either.
END, INTERIOR, EITHER = 0b010, 0b100, 0b110


def _check_width(k: int, n: int) -> None:
    """Reject a sweep to n whose offsets would not fit the 6-bit code."""
    if (width := min(k, n - 1)) > _MAX_OFFSET:
        raise ValueError(f"the profile DP needs min(k, n - 1) <= {_MAX_OFFSET}, not {width}")


def _successors(profile: bytes, k: int, leave: int) -> list[bytes]:
    """Profiles reached by placing the next value, one per attachment: to
    no open end, to one, or to two at distinct slots of distinct segments
    (one segment would close a cycle, one slot would duplicate an edge).
    When the window is full its oldest value leaves with a degree the
    leaving rule allows, and as a path endpoint only while one is left."""
    closed, new = profile[0], len(profile)  # new: the new value's position
    opens = [i for i in range(1, new) if profile[i] < 128]
    if closed == 2 and not opens:
        return []  # a complete path: any further value would stay isolated
    # The other end of each open end's segment, 0 once it left. Below, j = 0
    # attaches the new value to i alone, so it ends the merged segment.
    other = [i + (s & 63) - 32 if s & 63 else 0 for i, s in enumerate(profile)]
    other[0] = new
    leaving, built = new - 1 == k, []
    if leaving:  # drop the choices whose leaving degree the rule forbids
        deg = profile[1] >> 6
        ok = [leave >> d & 1 and not (d == 1 and closed == 2) for d in (deg, deg + 1)]
    if not leaving or ok[0]:
        built.append(bytearray(profile) + b"\x20")  # to no end: a lone value (32)
    for x, i in enumerate(opens):
        if leaving and not ok[i == 1]:
            continue
        for j in (0, *opens[x + 1 :]):
            a, b = other[i], other[j]
            if j and a == j:
                continue  # j is the other end of i's segment
            # The chosen slots gain a degree and lose their code; the merged
            # segment's two ends point at each other.
            work = bytearray(profile)
            work.append(128 if j else 64)
            work[i] = (profile[i] + 64) & 192
            if j:
                work[j] = (profile[j] + 64) & 192
            if a:
                work[a] = work[a] & 192 | (b - a + 32 if b else 0)
            if b:
                work[b] = work[b] & 192 | (a - b + 32 if a else 0)
            built.append(work)
    out = []
    for work in built:
        if leaving:
            s = work[1]
            if s >> 6 == 1:  # the oldest value leaves as a path end
                work[0] += 1
                if s & 63:
                    work[(s & 63) - 31] &= 192  # its partner's other end left
                elif min(work[2:]) < 128:
                    continue  # path sealed while another segment is still open
            del work[1]
        out.append(bytes(work))
    return out


def _ends_mask(profile: bytes) -> int:
    """The mask of the window slots that hold the ends of the one complete
    path the profile forms if its newest value is n; -1 if it forms none."""
    slots = profile[1:]
    if not slots or min(slots) < 64:
        return -1  # a value with no neighbor yet
    ends = [idx for idx, s in enumerate(slots) if s < 128]
    return sum(1 << idx for idx in ends) if profile[0] + len(ends) == 2 else -1


class _Graph:
    """The transfer matrix for fixed k, compiled lazily: profiles indexed
    in first-reached order, each edge list computed once, and each profile
    that forms a complete path filed under its ends mask and under None."""

    def __init__(self, k: int):
        self.k = k
        self.ids: dict[bytes, int] = {}
        self.profiles: list[bytes] = []
        self._edges: dict[int, list] = {END: [], INTERIOR: [], EITHER: []}  # [rule][pid]
        self.complete: dict[int | None, list[int]] = {}  # ends mask (None: any) -> pids
        # Variant kind -> the last sweep of that kind: (variant, rows, profile
        # counts after the last row). Its rows list belongs to that sweep alone.
        self.last: dict[str, tuple[Variant, list[tuple[int, int, int]], dict[int, int]]] = {}

    def index(self, profile: bytes) -> int:
        pid = self.ids.get(profile)
        if pid is None:
            pid = self.ids[profile] = len(self.profiles)
            self.profiles.append(profile)
            mask = _ends_mask(profile)
            if mask >= 0:
                for key in (mask, None):
                    self.complete.setdefault(key, []).append(pid)
            for edges in self._edges.values():
                edges.append(None)
        return pid

    def edges(self, pid: int, leave: int) -> tuple[int, ...]:
        out = self._edges[leave][pid]
        if out is None:
            ids, index = self.ids, self.index
            succ = _successors(self.profiles[pid], self.k, leave)
            out = self._edges[leave][pid] = tuple([ids[p] if p in ids else index(p) for p in succ])
        return out

    def step(self, cur: dict[int, int], leave: int) -> dict[int, int]:
        nxt: dict[int, int] = {}
        get, known = nxt.get, self._edges[leave]
        for src, cnt in cur.items():
            out = known[src]
            if out is None:
                out = self.edges(src, leave)
            for dst in out:
                nxt[dst] = get(dst, 0) + cnt
        return nxt

    def finished(self, cur: dict[int, int], designated: int | None) -> int:
        """The count of complete paths whose ends are the designated window
        slots (None: any slots, as in the free variant)."""
        get = cur.get
        return sum(get(pid, 0) for pid in self.complete.get(designated, ()))


@lru_cache(maxsize=16)
def _graph(k: int) -> _Graph:
    """The graph for k, shared by every sweep of every variant: edge lists
    are keyed by the leaving rule, and complete profiles by ends mask."""
    return _Graph(k)


def sweep_terms(k, variant: Variant, max_n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, count, peak) for n = 1..max_n from one incremental sweep;
    peak is the largest number of simultaneous profiles so far. Rows the
    graph's last sweep of this variant's kind reached are replayed, not
    stepped, if it swept this variant. The arguments are checked at the
    call; that last sweep is read at the first row."""
    kk = check_args(k, max_n, variant)
    _check_width(kk, max_n)
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
    kk = check_args(k)
    _check_width(kk, kk + 1)
    graph = _graph(kk)
    seen = {graph.index(_START)}
    todo = list(seen)
    while todo:
        pid = todo.pop()
        profile = graph.profiles[pid]
        for dst in graph.edges(pid, INTERIOR if profile[0] or len(profile) <= kk else END):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return len(seen)
