#!/usr/bin/env python3
"""Print one sha256 over the profile DP's outputs for k = 1..7.

It hashes each term table and its peak profile count: anchored to
n = 60, free to n = 40, and a fixed set of endpoint pairs to n = 24.
Before those, each k runs an interleaved block on its cold graph: each
request follows other variants' sweeps on that graph, so it starts
cold, resumes or replays a stored sweep. It also hashes
`state_space_size(k)` for k = 1..8. Two checkouts that print the same
digest produce the same counts and the same state counts on all of them,
so a change to the DP's internals can be checked with one command on
each side (about 6 s):

    PYTHONPATH=src python3 scripts/dp_digest.py
"""

import hashlib
import json

from anchorperms.core import ANCHORED, FREE, endpoints
from anchorperms.profile_dp import state_space_size, term_table_stats

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


def records():
    """(label, data) for every table and state count, in a fixed order."""
    for k in KS:
        for variant, max_n in INTERLEAVED + REQUESTS:
            table, peak = term_table_stats(k, variant, max_n)
            yield f"k={k} {variant.kind} {variant.ends(max_n)}", [table.values(), peak]
    yield "state_space_size", [state_space_size(k) for k in (*KS, 8)]


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for record in records():
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()}  ({count} records)")


if __name__ == "__main__":
    main()
