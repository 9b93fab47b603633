#!/usr/bin/env python3
"""Print one sha256 over the profile DP's and the miner's outputs.

It hashes each term table for k = 1..7 and its peak profile count:
anchored to n = 60, free to n = 40, and a fixed set of endpoint pairs to
n = 24. Before those, each k runs an interleaved block on its cold graph:
each request follows other variants' sweeps on that graph, so it starts
cold, resumes or replays a stored sweep. It also hashes
`state_space_size(k)` for k = 1..8; the wide windows of the anchored and
free `count_dp(k, k)` for k = 8, 9 and the anchored k = 8 table to n = 26
with its peak; and the (order, n0, coefficients), or None, that
`find_recurrence` mines from a fixed set of windows, each with the GF
(numerator, denominator) that `to_gf` builds from it: anchored k = 2..6,
the k = 5 endpoint pairs the benchmark mines, and two windows too short to
determine their register. Two checkouts that print the same digest produce
the same counts, state counts, recurrences and GFs on all of them, so a
change to the DP's, the miner's or the GF's internals can be checked with
one command on each side (about 10 s):

    PYTHONPATH=src python3 scripts/dp_digest.py
"""

import hashlib
import json

from anchorperms.core import ANCHORED, FREE, endpoints
from anchorperms.profile_dp import count_dp, state_space_size, term_table, term_table_stats
from anchorperms.seqmine import find_recurrence, to_gf

KS = range(1, 8)
# Pairs with both ends low, with the start above the end, with both ends
# leaving the window before n = 24, and far apart.
ENDPOINT_PAIRS = (
    (1, 2), (2, 1), (2, 3), (3, 2), (1, 5), (5, 1), (3, 4), (4, 6), (6, 4), (2, 7),
    (7, 2), (5, 9), (9, 5), (1, 12), (12, 1), (8, 10), (10, 8), (3, 11), (11, 3), (6, 13),
)
REQUESTS = [(ANCHORED, 60), (FREE, 40)] + [(endpoints(s, e), 24) for s, e in ENDPOINT_PAIRS]
INTERLEAVED = [(ANCHORED, 30), (FREE, 20), (ANCHORED, 60), (FREE, 40), (endpoints(2, 3), 24),
               (ANCHORED, 45)]
# Mining windows (k, variant, terms, max_order); None takes the default
# bound of conjecture_probe. The last two are shorter than twice the
# register (orders 114 and 438), so they mine None.
MINED = [(k, ANCHORED, terms, None) for k, terms in ((2, 30), (3, 40), (4, 80), (5, 250), (6, 1000))]
MINED += [(5, endpoints(s, e), 160, 70) for s, e in ((1, 4), (2, 4), (3, 4), (4, 1), (4, 2), (4, 3))]
MINED += [(5, ANCHORED, 150, None), (6, ANCHORED, 800, None)]


def records():
    """(label, data) for every table and state count, in a fixed order."""
    for k in KS:
        for variant, max_n in INTERLEAVED + REQUESTS:
            table, peak = term_table_stats(k, variant, max_n)
            yield f"k={k} {variant.kind} {variant.ends(max_n)}", [table.values(), peak]
    yield "state_space_size", [state_space_size(k) for k in (*KS, 8)]
    for k in (8, 9):
        yield f"count_dp k={k} n={k}", [count_dp(k, k, variant) for variant in (ANCHORED, FREE)]
    table, peak = term_table_stats(8, ANCHORED, 26)
    yield "k=8 anchored 26", [table.values(), peak]
    for k, variant, terms, max_order in MINED:
        window = term_table(k, variant, terms).values()
        rec = find_recurrence(window, max_order or max(1, (terms - 4) // 2))
        mined = rec and [rec.order, rec.n0, list(rec.coefficients)]
        if rec:
            gf = to_gf(rec, window)
            mined.append([list(gf.numerator), list(gf.denominator)])
        yield f"mine k={k} {variant.kind} {variant.ends(terms)} terms={terms}", mined


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for record in records():
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()}  ({count} records)")


if __name__ == "__main__":
    main()
