"""Polynomial-time exact counting for arbitrary fixed k.

A k-bounded permutation of [n] is a Hamiltonian path in the graph on
{1..n} with edges between values differing by at most k; the variant pins
the path's endpoints. Values are processed in increasing order, so only
the last k processed values can still gain neighbors. The DP state
(profile) records, for that window, each value's degree in the partial
linear forest plus a canonical pairing of open segment ends, and how many
path endpoints have already been committed among values that left the
window.

Profiles for a fixed k form a finite set, which is what makes the
generating function provably rational for every k via the transfer-matrix
method; this module is the numerical engine behind that observation.
"""

from __future__ import annotations

from typing import Iterator

from .core import ANCHORED, CountTable, Variant, norm_k

# Slot encoding: (degree, label). Label 0 for saturated (degree 2) slots;
# otherwise the label names the open segment the slot's free end belongs
# to. A label occurring once means the segment's other end was committed
# as a final path endpoint when its value left the window.
Slot = tuple[int, int]
Profile = tuple[tuple[Slot, ...], int]


def canonicalize(slots: tuple[Slot, ...]) -> tuple[Slot, ...]:
    """Renumber segment labels in first-occurrence order."""
    mapping: dict[int, int] = {}
    out = []
    for deg, lab in slots:
        if deg == 2:
            out.append((2, 0))
        else:
            if lab not in mapping:
                mapping[lab] = len(mapping) + 1
            out.append((deg, mapping[lab]))
    return tuple(out)


def _designated(variant: Variant, n: int) -> tuple[int, ...]:
    if variant.kind == "anchored":
        return (1, n)
    if variant.kind == "endpoints":
        return (variant.start, variant.end)
    return ()


def _attach_choices(slots: tuple[Slot, ...]) -> Iterator[tuple[int, ...]]:
    """Ways the new value can attach to open ends: none, one, or two ends
    at distinct slots of distinct segments (same segment would close a
    cycle, same slot would duplicate an edge)."""
    open_idx = [i for i, (deg, _) in enumerate(slots) if deg < 2]
    yield ()
    for i in open_idx:
        yield (i,)
    for a in range(len(open_idx)):
        for b in range(a + 1, len(open_idx)):
            i, j = open_idx[a], open_idx[b]
            if slots[i][1] != slots[j][1]:
                yield (i, j)


def _apply_attach(
    slots: tuple[Slot, ...], choice: tuple[int, ...], fresh: int
) -> tuple[Slot, ...]:
    """Attach the new value to the chosen open ends and append its slot."""
    work = list(slots)
    if len(choice) == 0:
        new_slot = (0, fresh)
    elif len(choice) == 1:
        i = choice[0]
        deg, lab = work[i]
        work[i] = (1, lab) if deg == 0 else (2, 0)
        new_slot = (1, lab)
    else:
        i, j = choice
        lab_i = work[i][1]
        lab_j = work[j][1]
        for t, (deg, lab) in enumerate(work):
            if deg < 2 and lab == lab_j:
                work[t] = (deg, lab_i)
        for t in (i, j):
            deg, lab = work[t]
            work[t] = (1, lab) if deg == 0 else (2, 0)
        new_slot = (2, 0)
    work.append(new_slot)
    return tuple(work)


def _open_ends(slots: tuple[Slot, ...]) -> int:
    return sum(2 - deg for deg, _ in slots if deg < 2)


class _Sweep:
    """One incremental DP sweep over values 1..n for fixed k and variant."""

    def __init__(self, k: int, variant: Variant):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.variant = variant
        self.v = 0
        self.states: dict[Profile, int] = {((), 0): 1}
        self.peak_states = 1

    def step(self, final_step: bool) -> None:
        """Process the next value."""
        self.v += 1
        v = self.v
        k = self.k
        variant = self.variant
        exiting = v - k  # value leaving the window, if positive
        nxt: dict[Profile, int] = {}
        for (slots, closed), cnt in self.states.items():
            for choice in _attach_choices(slots):
                new_slots = _apply_attach(slots, choice, fresh=10 ** 6)
                new_closed = closed
                if len(new_slots) > k:
                    deg, lab = new_slots[0]
                    u = exiting
                    # For anchored, only value 1 may leave the window as a
                    # path endpoint (value n never leaves). For endpoints,
                    # either pinned value may; for free, any value.
                    if variant.kind == "anchored":
                        is_endpoint_value = u == 1
                    elif variant.kind == "endpoints":
                        is_endpoint_value = u in (variant.start, variant.end)
                    else:
                        is_endpoint_value = True
                    if deg == 2:
                        if variant.kind != "free" and is_endpoint_value:
                            continue  # pinned endpoint became interior
                        new_slots = new_slots[1:]
                    elif deg == 1:
                        if not is_endpoint_value or closed >= 2:
                            continue
                        new_closed = closed + 1
                        rest = new_slots[1:]
                        if not final_step and all(
                            l != lab for d, l in rest if d < 2
                        ):
                            continue  # segment sealed with values still to place
                        new_slots = rest
                    else:
                        continue  # isolated value can never rejoin the path
                key = (canonicalize(new_slots), new_closed)
                nxt[key] = nxt.get(key, 0) + cnt
        self.states = nxt
        self.peak_states = max(self.peak_states, len(nxt))

    def finished_count(self) -> int:
        """Count of complete paths if the value just processed were n."""
        n = self.v
        variant = self.variant
        if n == 1:
            # Single vertex: every variant admits exactly the trivial
            # permutation (endpoint ranges were validated upstream).
            return sum(
                cnt
                for (slots, closed), cnt in self.states.items()
                if len(slots) == 1 and closed == 0
            )
        designated = set(_designated(variant, n))
        total = 0
        for (slots, closed), cnt in self.states.items():
            if closed + _open_ends(slots) != 2:
                continue
            lo = n - len(slots) + 1
            ok = True
            for idx, (deg, _) in enumerate(slots):
                u = lo + idx
                if deg < 2:
                    if deg == 0:
                        ok = False
                        break
                    if variant.kind != "free" and u not in designated:
                        ok = False
                        break
                elif variant.kind != "free" and u in designated:
                    ok = False
                    break
            if ok:
                total += cnt
        if variant.kind == "free":
            total *= 2  # undirected path traversed in either direction
        return total


def count_dp(k, n: int, variant: Variant = ANCHORED) -> int:
    """Exact count of k-bounded permutations under the variant."""
    kk = norm_k(k)
    if n < 1:
        raise ValueError("n must be >= 1")
    variant.check_range(n)
    sweep = _Sweep(kk, variant)
    for v in range(1, n + 1):
        sweep.step(final_step=(v == n))
    return sweep.finished_count()


def term_table(k, variant: Variant = ANCHORED, max_n: int = 1) -> CountTable:
    """Counts for n = 1..max_n from a single incremental sweep."""
    return term_table_stats(k, variant, max_n)[0]


def term_table_stats(k, variant: Variant, max_n: int) -> tuple[CountTable, int]:
    """term_table plus the peak number of simultaneous profiles."""
    kk = norm_k(k)
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    variant.check_range(max_n)
    sweep = _Sweep(kk, variant)
    terms = {}
    for v in range(1, max_n + 1):
        sweep.step(final_step=(v == max_n))
        terms[v] = sweep.finished_count()
    table = CountTable(k=kk, variant=variant, terms=terms, provenance="dp")
    return table, sweep.peak_states


def state_space_size(k, max_steps: int = 2000) -> int:
    """Number of distinct reachable canonical profiles under the anchored
    variant. Runs the sweep until the per-step profile set revisits a
    previously seen set (the steady transition map is step-independent
    once the window is full), then reports the union's size."""
    kk = norm_k(k)
    sweep = _Sweep(kk, ANCHORED)
    seen: set[Profile] = set(sweep.states)
    step_sets: set[frozenset[Profile]] = set()
    for v in range(1, max_steps + 1):
        sweep.step(final_step=False)
        seen.update(sweep.states)
        if v > kk + 1:
            fs = frozenset(sweep.states)
            if fs in step_sets:
                return len(seen)
            step_sets.add(fs)
    raise RuntimeError(f"profile set did not stabilize within {max_steps} steps")
