"""Regenerate bench/reference.json: per-term digests of the anchored DP
tables that the dp_sweep workload checks for k >= 4.

These tables have no independent reference, so the digests only say that a
table is unchanged since they were frozen; they are not independent
evidence. Freeze them from a commit whose tables are trusted:

    PYTHONPATH=src python3 bench/freeze.py
"""

from __future__ import annotations

import json
from pathlib import Path

from anchorperms import ANCHORED, term_table

from child import term_digests

# Longest table each k needs: the dp_sweep sweeps reach 110, 63 and 23.
MAX_N = {5: 120, 6: 70, 7: 30}


def main() -> None:
    digests = {
        str(k): term_digests(term_table(k, ANCHORED, max_n).values())
        for k, max_n in MAX_N.items()
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps({"anchored": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
